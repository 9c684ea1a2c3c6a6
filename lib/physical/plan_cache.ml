module M = Xqp_obs.Metrics
module Dsan = Xqp_obs.Dsan

type key = {
  query : string;
  optimize : bool;
  strategy : string;
  doc_id : int;
  stats_version : int;
}

(* All caches share the process-wide metrics (the registry is the
   observability surface, not a per-cache one); practically there is one
   shared cache plus short-lived test instances. *)
let m_hits = M.counter M.default "plan_cache.hits"
let m_misses = M.counter M.default "plan_cache.misses"
let m_evictions = M.counter M.default "plan_cache.evictions"
let m_size = M.gauge M.default "plan_cache.size"

module Lru = struct
  type 'v entry = { value : 'v; mutable stamp : int }

  (* One independent LRU per shard, each behind its own guard: a hot key
     only contends with keys that hash to the same shard, and recency is
     tracked per shard (eviction picks the LRU entry of the full shard,
     which equals global LRU when there is one shard). *)
  type ('k, 'v) shard = {
    guard : Dsan.guard;
    table : ('k, 'v entry) Hashtbl.t;
    shard_capacity : int;
    mutable clock : int;
  }

  type ('k, 'v) t = { shards : ('k, 'v) shard array }

  (* Default shard count scales with capacity so small caches keep exact
     global-LRU semantics (1 shard) while a 256-entry cache spreads hot
     keys over 8 locks. *)
  let default_shards capacity = max 1 (min 8 (capacity / 32))

  let create ?(name = "Plan_cache") ?(capacity = 128) ?shards () =
    if capacity < 1 then invalid_arg (name ^ ".create: capacity must be positive");
    let n =
      match shards with
      | None -> default_shards capacity
      | Some n ->
        if n < 1 then invalid_arg (name ^ ".create: shards must be positive");
        min n capacity
    in
    let shard_capacity = max 1 (capacity / n) in
    {
      shards =
        Array.init n (fun i ->
            {
              guard = Dsan.guard (Printf.sprintf "%s shard %d" name i);
              table = Hashtbl.create (min shard_capacity 64);
              shard_capacity;
              clock = 0;
            });
    }

  let shard_count t = Array.length t.shards
  let capacity t = Array.fold_left (fun acc s -> acc + s.shard_capacity) 0 t.shards
  let shard_of t key = t.shards.(Hashtbl.hash key mod Array.length t.shards)

  (* Unlocked sum: [Hashtbl.length] is a single field read, so a racing
     insert can make the total stale by one but never tears it. Exact
     counts (tests) should quiesce writers first. *)
  let length t = Array.fold_left (fun acc s -> acc + Hashtbl.length s.table) 0 t.shards

  let tick s =
    Dsan.assert_held s.guard;
    s.clock <- s.clock + 1;
    s.clock

  let find t key =
    let s = shard_of t key in
    Dsan.with_guard s.guard (fun () ->
        match Hashtbl.find_opt s.table key with
        | Some entry ->
          entry.stamp <- tick s;
          Some entry.value
        | None -> None)

  (* O(shard capacity) victim scan; capacities are small (tens per shard)
     and eviction only happens on insert past capacity, so this never
     shows up next to the work a hit saves. Returns whether an entry was
     evicted. *)
  let evict_lru s =
    Dsan.assert_held s.guard;
    let victim =
      Hashtbl.fold
        (fun key entry acc ->
          match acc with
          | Some (_, best) when best.stamp <= entry.stamp -> acc
          | _ -> Some (key, entry))
        s.table None
    in
    match victim with
    | Some (key, _) ->
      Hashtbl.remove s.table key;
      true
    | None -> false

  let add t key value =
    let s = shard_of t key in
    Dsan.with_guard s.guard (fun () ->
        let evicted =
          match Hashtbl.find_opt s.table key with
          | Some _ ->
            Hashtbl.remove s.table key;
            false
          | None -> Hashtbl.length s.table >= s.shard_capacity && evict_lru s
        in
        Hashtbl.replace s.table key { value; stamp = tick s };
        evicted)

  let clear t = Array.iter (fun s -> Dsan.with_guard s.guard (fun () -> Hashtbl.reset s.table)) t.shards
end

type 'a t = (key, 'a) Lru.t

let create ?capacity ?shards () = Lru.create ?capacity ?shards ()
let shard_count = Lru.shard_count
let capacity = Lru.capacity
let length = Lru.length

let find t key =
  let hit = Lru.find t key in
  (match hit with Some _ -> M.incr m_hits | None -> M.incr m_misses);
  hit

let add t key value =
  if Lru.add t key value then M.incr m_evictions;
  M.set m_size (float_of_int (length t))

let clear t =
  Lru.clear t;
  M.set m_size 0.0
