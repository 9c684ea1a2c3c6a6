(* Query flight recorder: sharded per-fingerprint accumulators plus a
   bounded slow-query ring. See the interface for the design notes. *)

type sample = {
  fingerprint : string;
  query : string;
  mode : string;
  latency_ms : float;
  rows : int;
  pages_read : int;
  cache_hit : bool;
  deadline_missed : bool;
  failed : bool;
  worst_q_error : float;
}

type stat = {
  st_fingerprint : string;
  st_query : string;
  st_mode : string;
  st_count : int;
  st_errors : int;
  st_total_ms : float;
  st_max_ms : float;
  st_p50_ms : float;
  st_p99_ms : float;
  st_rows : int;
  st_pages_read : int;
  st_cache_hits : int;
  st_deadline_misses : int;
  st_worst_q_error : float;
}

type capture = {
  cap_request_id : string;
  cap_sample : sample;
  cap_plan : string;
  cap_ops : Op_row.t list;
  cap_events : Trace.event list;
  cap_wall : float;
}

(* Latency histogram: the same 64 log2 buckets as Metrics histograms —
   bucket 0 holds samples <= 1ms, bucket i holds (2^(i-1), 2^i]. *)
let n_buckets = 64

let bucket_index v =
  if v <= 1.0 then 0
  else min (n_buckets - 1) (1 + int_of_float (Float.log2 v))

let bucket_bound i = if i = 0 then 1.0 else Float.pow 2.0 (float_of_int i)

type entry = {
  e_fingerprint : string;
  e_query : string;
  e_mode : string;
  mutable e_count : int;
  mutable e_errors : int;
  mutable e_total_ms : float;
  mutable e_max_ms : float;
  e_buckets : int array;
  mutable e_rows : int;
  mutable e_pages : int;
  mutable e_cache_hits : int;
  mutable e_deadline_misses : int;
  mutable e_worst_q : float;
}

type shard = {
  s_guard : Dsan.guard;
  s_table : (string, entry) Hashtbl.t;
}

type ring = {
  r_guard : Dsan.guard;
  r_slots : capture option array;
  mutable r_head : int;  (* next write position *)
  mutable r_count : int;
}

type t = {
  on : bool Atomic.t;
  shards : shard array;
  capacity : int;  (* max distinct fingerprints per shard *)
  refused : int Atomic.t;
  ring : ring;
}

let create ?(shards = 8) ?(capacity = 512) ?(slow_capacity = 64) () =
  let shards = max 1 shards in
  {
    on = Atomic.make true;
    shards =
      Array.init shards (fun i ->
          {
            s_guard = Dsan.guard (Printf.sprintf "Flight_recorder shard %d" i);
            s_table = Hashtbl.create 64;
          });
    capacity = max 1 capacity;
    refused = Atomic.make 0;
    ring =
      {
        r_guard = Dsan.guard "Flight_recorder slow ring";
        r_slots = Array.make (max 1 slow_capacity) None;
        r_head = 0;
        r_count = 0;
      };
  }

let default = create ()
let set_enabled t on = Atomic.set t.on on
let enabled t = Atomic.get t.on
let dropped t = Atomic.get t.refused

let shard_of t key = t.shards.(Hashtbl.hash key mod Array.length t.shards)

let record t s =
  if Atomic.get t.on then begin
    let shard = shard_of t s.fingerprint in
    Dsan.with_guard shard.s_guard (fun () ->
        match Hashtbl.find_opt shard.s_table s.fingerprint with
        | None when Hashtbl.length shard.s_table >= t.capacity ->
          Atomic.incr t.refused
        | found ->
          let e =
            match found with
            | Some e -> e
            | None ->
              let e =
                {
                  e_fingerprint = s.fingerprint;
                  e_query = s.query;
                  e_mode = s.mode;
                  e_count = 0;
                  e_errors = 0;
                  e_total_ms = 0.0;
                  e_max_ms = 0.0;
                  e_buckets = Array.make n_buckets 0;
                  e_rows = 0;
                  e_pages = 0;
                  e_cache_hits = 0;
                  e_deadline_misses = 0;
                  e_worst_q = 1.0;
                }
              in
              Hashtbl.add shard.s_table s.fingerprint e;
              e
          in
          e.e_count <- e.e_count + 1;
          if s.failed then e.e_errors <- e.e_errors + 1;
          e.e_total_ms <- e.e_total_ms +. s.latency_ms;
          if s.latency_ms > e.e_max_ms then e.e_max_ms <- s.latency_ms;
          let b = bucket_index s.latency_ms in
          e.e_buckets.(b) <- e.e_buckets.(b) + 1;
          e.e_rows <- e.e_rows + s.rows;
          e.e_pages <- e.e_pages + s.pages_read;
          if s.cache_hit then e.e_cache_hits <- e.e_cache_hits + 1;
          if s.deadline_missed then
            e.e_deadline_misses <- e.e_deadline_misses + 1;
          if s.worst_q_error > e.e_worst_q then e.e_worst_q <- s.worst_q_error)
  end

let capture t c =
  if Atomic.get t.on then begin
    let r = t.ring in
    Dsan.with_guard r.r_guard (fun () ->
        r.r_slots.(r.r_head) <- Some c;
        r.r_head <- (r.r_head + 1) mod Array.length r.r_slots;
        if r.r_count < Array.length r.r_slots then r.r_count <- r.r_count + 1)
  end

(* Approximate percentile: smallest bucket whose cumulative count
   reaches q * total, reported as that bucket's upper bound. *)
let percentile buckets total q =
  if total = 0 then 0.0
  else begin
    let want = int_of_float (ceil (q *. float_of_int total)) in
    let want = max 1 want in
    let acc = ref 0 and result = ref (bucket_bound (n_buckets - 1)) in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + buckets.(i);
         if !acc >= want then begin
           result := bucket_bound i;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let stat_of_entry e =
  {
    st_fingerprint = e.e_fingerprint;
    st_query = e.e_query;
    st_mode = e.e_mode;
    st_count = e.e_count;
    st_errors = e.e_errors;
    st_total_ms = e.e_total_ms;
    st_max_ms = e.e_max_ms;
    st_p50_ms = percentile e.e_buckets e.e_count 0.50;
    st_p99_ms = percentile e.e_buckets e.e_count 0.99;
    st_rows = e.e_rows;
    st_pages_read = e.e_pages;
    st_cache_hits = e.e_cache_hits;
    st_deadline_misses = e.e_deadline_misses;
    st_worst_q_error = e.e_worst_q;
  }

let stats t =
  Array.fold_left
    (fun acc shard ->
      Dsan.with_guard shard.s_guard (fun () ->
          Hashtbl.fold (fun _ e acc -> stat_of_entry e :: acc) shard.s_table acc))
    [] t.shards

let key_of by st =
  match by with
  | `Total_ms -> st.st_total_ms
  | `Count -> float_of_int st.st_count
  | `Max_ms -> st.st_max_ms
  | `Q_error -> st.st_worst_q_error

let top ?(k = 20) ~by t =
  let all = stats t in
  let sorted =
    List.sort
      (fun a b ->
        match compare (key_of by b) (key_of by a) with
        | 0 -> compare a.st_fingerprint b.st_fingerprint
        | c -> c)
      all
  in
  List.filteri (fun i _ -> i < k) sorted

let by_of_string = function
  | "total_ms" -> Some `Total_ms
  | "count" -> Some `Count
  | "max_ms" -> Some `Max_ms
  | "q_error" -> Some `Q_error
  | _ -> None

let slow t =
  let r = t.ring in
  Dsan.with_guard r.r_guard (fun () ->
      let n = Array.length r.r_slots in
      let out = ref [] in
      (* oldest → newest, then reverse: most recent first *)
      for i = 0 to r.r_count - 1 do
        let idx = (r.r_head - r.r_count + i + (2 * n)) mod n in
        match r.r_slots.(idx) with
        | Some c -> out := c :: !out
        | None -> ()
      done;
      !out)

let reset t =
  Array.iter
    (fun shard ->
      Dsan.with_guard shard.s_guard (fun () -> Hashtbl.reset shard.s_table))
    t.shards;
  Atomic.set t.refused 0;
  let r = t.ring in
  Dsan.with_guard r.r_guard (fun () ->
      Array.fill r.r_slots 0 (Array.length r.r_slots) None;
      r.r_head <- 0;
      r.r_count <- 0)

(* --- JSON ---------------------------------------------------------------- *)

let round3 x = Float.round (x *. 1000.0) /. 1000.0

let stat_to_json st =
  Json.Obj
    [
      ("fingerprint", Json.Str st.st_fingerprint);
      ("query", Json.Str st.st_query);
      ("mode", Json.Str st.st_mode);
      ("count", Json.Num (float_of_int st.st_count));
      ("errors", Json.Num (float_of_int st.st_errors));
      ("total_ms", Json.Num (round3 st.st_total_ms));
      ("max_ms", Json.Num (round3 st.st_max_ms));
      ("p50_ms", Json.Num (round3 st.st_p50_ms));
      ("p99_ms", Json.Num (round3 st.st_p99_ms));
      ("rows", Json.Num (float_of_int st.st_rows));
      ("pages_read", Json.Num (float_of_int st.st_pages_read));
      ("cache_hits", Json.Num (float_of_int st.st_cache_hits));
      ("deadline_misses", Json.Num (float_of_int st.st_deadline_misses));
      ("worst_q_error", Json.Num (round3 st.st_worst_q_error));
    ]

let capture_to_json c =
  Json.Obj
    [
      ("request_id", Json.Str c.cap_request_id);
      ("query", Json.Str c.cap_sample.query);
      ("mode", Json.Str c.cap_sample.mode);
      ("fingerprint", Json.Str c.cap_sample.fingerprint);
      ("latency_ms", Json.Num (round3 c.cap_sample.latency_ms));
      ("rows", Json.Num (float_of_int c.cap_sample.rows));
      ("pages_read", Json.Num (float_of_int c.cap_sample.pages_read));
      ("cache_hit", Json.Bool c.cap_sample.cache_hit);
      ("deadline_missed", Json.Bool c.cap_sample.deadline_missed);
      ("failed", Json.Bool c.cap_sample.failed);
      ("worst_q_error", Json.Num (round3 c.cap_sample.worst_q_error));
      ("plan", Json.Str c.cap_plan);
      ("operators", Json.Arr (List.map Op_row.to_json c.cap_ops));
      ("trace_spans", Json.Num (float_of_int (List.length c.cap_events)));
      ("wall_time", Json.Num c.cap_wall);
    ]
