(* Scatter-gather corpus execution: one plan compiled against the catalog's
   merged summary fans out across shards on a persistent pool of worker
   domains; per-shard results merge back in global document order. See the
   .mli and DESIGN.md §14 for the ownership model. *)

module Doc = Xqp_xml.Document
module Catalog = Xqp_storage.Catalog
module Ops = Xqp_algebra.Operators
module Pp = Physical_plan
module M = Xqp_obs.Metrics
module Tr = Xqp_obs.Trace

(* --- global-ordinal node tagging ---------------------------------------- *)

(* Corpus result node ids carry their owning document's global ordinal in
   the high bits (ordinal + 1, so plain single-document ids — and the -1
   document context — decode to ordinal -1). Within-document ids stay
   below 2^40 by a huge margin; ordinals fit the remaining 22 bits of a
   63-bit int. Tagged ids are strictly increasing across (ordinal, node),
   so a merged corpus stream is still sorted and duplicate-free. *)
let ordinal_shift = 40
let node_mask = (1 lsl ordinal_shift) - 1
let encode ~ordinal node = ((ordinal + 1) lsl ordinal_shift) lor node
let ordinal_of id = (id lsr ordinal_shift) - 1
let node_of id = id land node_mask

(* [List.map (encode ~ordinal) nodes @ rest] as one new list. *)
let[@tail_mod_cons] rec encode_onto ~ordinal rest = function
  | [] -> rest
  | node :: nodes -> encode ~ordinal node :: encode_onto ~ordinal rest nodes

(* --- worker pool --------------------------------------------------------- *)

type pool = {
  p_lock : Mutex.t;
  p_work : Condition.t;
  p_done : Condition.t;
  mutable p_queue : (unit -> unit) list;
  p_queued : int Atomic.t; (* length of [p_queue], polled without the lock *)
  p_stop : bool Atomic.t; (* polled without the lock too *)
  mutable p_workers : unit Domain.t array;
}

(* How long an idle worker, or a coordinator whose batch is still running
   elsewhere, polls before it blocks on a condition variable. Waking a
   blocked domain is a cross-core wake-up whose latency the host's load
   decides: on a 2-vCPU VM it took about 0.35 ms of a 1.4 ms corpus query
   and set that query's tail. Back-to-back batches arrive well within the
   window, so a busy pool never sleeps; an idle one spins once, briefly. *)
let spin_s = 0.001

(* Poll [ready] with [Domain.cpu_relax] (which also serves stop-the-world
   requests) for up to [spin_s]; the clock is read every 32 polls. *)
let spin_until ready =
  let stop = Unix.gettimeofday () +. spin_s in
  let rec go i =
    ready ()
    || ((i land 31 <> 0 || Unix.gettimeofday () < stop)
       && begin
         Domain.cpu_relax ();
         go (i + 1)
       end)
  in
  go 1

let make_pool n =
  let pool =
    {
      p_lock = Mutex.create ();
      p_work = Condition.create ();
      p_done = Condition.create ();
      p_queue = [];
      p_queued = Atomic.make 0;
      p_stop = Atomic.make false;
      p_workers = [||];
    }
  in
  let rec worker () =
    let saw_work =
      spin_until (fun () -> Atomic.get pool.p_queued > 0 || Atomic.get pool.p_stop)
    in
    Mutex.lock pool.p_lock;
    if saw_work && pool.p_queue = [] && not (Atomic.get pool.p_stop) then begin
      (* another domain took the work first: the next batch is near *)
      Mutex.unlock pool.p_lock;
      worker ()
    end
    else begin
      while pool.p_queue = [] && not (Atomic.get pool.p_stop) do
        Condition.wait pool.p_work pool.p_lock
      done;
      match pool.p_queue with
      | [] -> Mutex.unlock pool.p_lock (* stopping *)
      | task :: rest ->
          pool.p_queue <- rest;
          Atomic.decr pool.p_queued;
          Mutex.unlock pool.p_lock;
          task ();
          worker ()
    end
  in
  pool.p_workers <- Array.init n (fun _ -> Domain.spawn worker);
  pool

let stop_pool pool =
  Mutex.lock pool.p_lock;
  Atomic.set pool.p_stop true;
  Condition.broadcast pool.p_work;
  Mutex.unlock pool.p_lock;
  Array.iter Domain.join pool.p_workers;
  pool.p_workers <- [||]

(* Run every task and wait. Tasks must not raise (shard tasks trap their
   own exceptions into result slots). Concurrent batches from different
   coordinator domains interleave freely in the shared queue; each waits
   on its own remaining-count. *)
let run_batch pool tasks =
  match pool with
  | None -> Array.iter (fun task -> task ()) tasks
  | Some pool ->
      let remaining = Atomic.make (Array.length tasks) in
      let wrapped task () =
        Fun.protect task ~finally:(fun () ->
            Mutex.lock pool.p_lock;
            if Atomic.fetch_and_add remaining (-1) = 1 then Condition.broadcast pool.p_done;
            Mutex.unlock pool.p_lock)
      in
      Mutex.lock pool.p_lock;
      pool.p_queue <- pool.p_queue @ Array.to_list (Array.map wrapped tasks);
      ignore (Atomic.fetch_and_add pool.p_queued (Array.length tasks));
      Condition.broadcast pool.p_work;
      (* The coordinator helps drain the queue instead of blocking: with
         fewer cores than domains this collapses the oversubscription
         overhead (most tasks run inline on the coordinator), and with
         enough cores it adds one more worker to the batch. It may pick
         up another coordinator's tasks — that only speeds them up. *)
      let rec drain () =
        match pool.p_queue with
        | task :: rest ->
            pool.p_queue <- rest;
            Atomic.decr pool.p_queued;
            Mutex.unlock pool.p_lock;
            task ();
            Mutex.lock pool.p_lock;
            drain ()
        | [] ->
            if Atomic.get remaining > 0 then begin
              Mutex.unlock pool.p_lock;
              ignore (spin_until (fun () -> Atomic.get remaining = 0));
              Mutex.lock pool.p_lock;
              if Atomic.get remaining > 0 then Condition.wait pool.p_done pool.p_lock;
              drain ()
            end
      in
      drain ();
      Mutex.unlock pool.p_lock

(* --- corpus state -------------------------------------------------------- *)

type doc_slot = {
  ordinal : int;
  slot_lock : Mutex.t;
      (* owns the executor: materialization and every query on it run
         under this lock, so lazy artifacts are forced by exactly one
         domain at a time *)
  mutable exec : Executor.t option;
}

type shard_state = {
  shard_index : int;
  shard_stats : Statistics.t; (* from the catalog's per-shard summary; pruning input *)
  slots : doc_slot array;
  load_lock : Mutex.t;
  mutable images : string array option; (* raw store images, freed once all docs built *)
  mutable built : int;
}

type t = {
  catalog : Catalog.t;
  planner : Executor.t;
  domains : int;
  pool : pool option;
  shard_states : shard_state array;
  m_dispatched : M.counter;
  m_pruned : M.counter;
  m_materialized : M.counter;
  m_shard_ms : M.histogram;
  m_shard_rows : M.histogram;
}

let open_catalog ?(domains = 1) catalog =
  let domains = max 1 domains in
  (* Cap the busy domains at the hardware: extra ones on a CPU-bound
     batch only add context-switch thrash, and OCaml's minor collection
     stops every domain, so one descheduled domain stalls them all. The
     coordinator drains the queue too and counts as one of the
     [workers]: the pool spawns [workers - 1] domains, and [workers = 1]
     (or a 1-core box) runs inline with no pool. The requested degree is
     still what [domains t] reports. *)
  let workers = min domains (Domain.recommended_domain_count ()) in
  let shard_states =
    Array.mapi
      (fun i (s : Catalog.shard) ->
        let base = Catalog.doc_base catalog i in
        {
          shard_index = i;
          shard_stats = Statistics.of_summary s.Catalog.summary;
          slots =
            Array.init (Array.length s.Catalog.doc_names) (fun d ->
                { ordinal = base + d; slot_lock = Mutex.create (); exec = None });
          load_lock = Mutex.create ();
          images = None;
          built = 0;
        })
      catalog.Catalog.shards
  in
  {
    catalog;
    planner =
      Executor.create_planner
        ~stats_version:catalog.Catalog.merged_stats_version
        (Statistics.of_summary catalog.Catalog.merged);
    domains;
    pool = (if workers > 1 then Some (make_pool (workers - 1)) else None);
    shard_states;
    m_dispatched = M.counter M.default "corpus.shards_dispatched";
    m_pruned = M.counter M.default "corpus.shards_pruned";
    m_materialized = M.counter M.default "corpus.docs_materialized";
    m_shard_ms = M.histogram M.default "corpus.shard_ms";
    m_shard_rows = M.histogram M.default "corpus.shard_rows";
  }

let catalog t = t.catalog
let planner t = t.planner
let domains t = t.domains
let doc_count t = Catalog.doc_count t.catalog
let shard_count t = Array.length t.shard_states
let close t = Option.iter stop_pool t.pool

(* [Mutex.protect]: an unreadable container must not leave the lock held
   for the next query. *)
let shard_images t ss =
  Mutex.protect ss.load_lock (fun () ->
      match ss.images with
      | Some imgs -> imgs
      | None ->
          let imgs = Catalog.read_shard_images t.catalog ss.shard_index in
          ss.images <- Some imgs;
          imgs)

exception Shard_error of string

(* Build a document executor from its packed image through the same open
   path as a single store. Called with the slot lock held. Materialization
   happens inside a query, so an unreadable container or a corrupt image
   surfaces as [Shard_error], not as a failure of the query itself. *)
let slot_executor t ss slot doc_in_shard =
  match slot.exec with
  | Some exec -> exec
  | None ->
      let path =
        Printf.sprintf "%s[%d]" (Catalog.shard_file t.catalog ss.shard_index) doc_in_shard
      in
      let exec =
        try Executor.of_packed ~path (shard_images t ss).(doc_in_shard)
        with Failure m | Sys_error m -> raise (Shard_error m)
      in
      slot.exec <- Some exec;
      M.incr t.m_materialized;
      Mutex.lock ss.load_lock;
      ss.built <- ss.built + 1;
      if ss.built = Array.length ss.slots then ss.images <- None;
      Mutex.unlock ss.load_lock;
      exec

(* Allocates nothing of its own: a reply resolves every corpus row
   through [document]. *)
let with_doc_executor t ~ordinal f =
  if ordinal < 0 || ordinal >= doc_count t then invalid_arg "Scatter_gather.with_doc_executor";
  let shard = ref 0 in
  while
    !shard + 1 < Array.length t.shard_states && Catalog.doc_base t.catalog (!shard + 1) <= ordinal
  do
    incr shard
  done;
  let ss = t.shard_states.(!shard) in
  let doc_in_shard = ordinal - Catalog.doc_base t.catalog ss.shard_index in
  let slot = ss.slots.(doc_in_shard) in
  Mutex.lock slot.slot_lock;
  match f (slot_executor t ss slot doc_in_shard) with
  | v ->
    Mutex.unlock slot.slot_lock;
    v
  | exception e ->
    Mutex.unlock slot.slot_lock;
    raise e

let document t ~ordinal = with_doc_executor t ~ordinal Executor.doc

(* --- execution ----------------------------------------------------------- *)

type shard_report = {
  shard : int;
  pruned : bool;
  docs : int;
  rows : int;
  ms : float;
}

type run_result = {
  nodes : Doc.node list; (* ordinal-tagged, global document order *)
  ops : Profile.row list;
  reports : shard_report list;
}

(* Corpus profile rows: one row per operator path, actual rows and time
   summed across documents, q-error recomputed against the plan's
   corpus-wide estimate. Every document runs the same plan, so row lists
   line up one for one; [] is "nothing ran yet". *)
let sum_rows a b =
  let add f x y = match (x, y) with Some x, Some y -> Some (f x y) | _ -> None in
  if a = [] then b
  else if b = [] then a
  else
    List.map2
      (fun (x : Profile.row) (y : Profile.row) ->
        let actual_rows = add ( + ) x.Profile.actual_rows y.Profile.actual_rows in
        {
          x with
          Profile.actual_rows;
          time_ms = add ( +. ) x.Profile.time_ms y.Profile.time_ms;
          q_error =
            Option.bind x.Profile.q_error (fun _ ->
                Option.map (Xqp_obs.Op_row.q_error x.Profile.est_rows) actual_rows);
        })
      a b

let run t ?deadline ?limit ?trace physical =
  let logical = Pp.to_logical physical in
  let n = Array.length t.shard_states in
  (* Per-shard emptiness proof off the catalog summaries: a pruned shard is
     never dispatched — its documents are never even opened. *)
  let pruned =
    Array.map (fun ss -> Cost_model.plan_certainly_empty ss.shard_stats logical) t.shard_states
  in
  (* A traced request profiles every document: each document task
     records its operator spans in a tracer of its own, sized to the
     plan, so workers never touch the request tracer. *)
  let profiled = match trace with Some tr -> Tr.enabled tr | None -> false in
  (* One task per document of an unpruned shard, so a batch spreads
     evenly over the workers even when shards hold different numbers of
     documents (a shard task per worker would leave one idle while
     another materializes its shard's documents one after another). *)
  let per_doc init =
    Array.map (fun ss -> Array.make (Array.length ss.slots) init) t.shard_states
  in
  let doc_nodes = per_doc (0, []) in
  let doc_ops = per_doc [] in
  let doc_ms = per_doc 0.0 in
  let errors = per_doc None in
  let task ss doc_in_shard () =
    let i = ss.shard_index in
    let t0 = Unix.gettimeofday () in
    let slot = ss.slots.(doc_in_shard) in
    (try
       Mutex.lock slot.slot_lock;
       Fun.protect
         ~finally:(fun () -> Mutex.unlock slot.slot_lock)
         (fun () ->
           let exec = slot_executor t ss slot doc_in_shard in
           let context = [ Ops.document_context ] in
           let nodes =
             if not profiled then Executor.run_physical exec ?deadline ?limit physical ~context
             else begin
               let tr = Tr.create ~capacity:(List.length (Profile.rows_of_physical physical)) () in
               Tr.set_enabled tr true;
               let nodes = Executor.run_physical exec ?deadline ?limit ~trace:tr physical ~context in
               doc_ops.(i).(doc_in_shard) <- Profile.rows_of_spans physical (Tr.events tr);
               nodes
             end
           in
           doc_nodes.(i).(doc_in_shard) <- (slot.ordinal, nodes))
     with e -> errors.(i).(doc_in_shard) <- Some e);
    doc_ms.(i).(doc_in_shard) <- (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let dispatched =
    List.filter (fun ss -> not pruned.(ss.shard_index)) (Array.to_list t.shard_states)
  in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun ss -> List.init (Array.length ss.slots) (fun d -> task ss d))
         dispatched)
  in
  M.add t.m_dispatched (List.length dispatched);
  M.add t.m_pruned (n - List.length dispatched);
  run_batch t.pool tasks;
  Array.iter (Array.iter (function Some e -> raise e | None -> ())) errors;
  let shard_nodes = doc_nodes in
  let shard_ms = Array.map (Array.fold_left ( +. ) 0.0) doc_ms in
  let shard_ops = Array.map (Array.fold_left sum_rows []) doc_ops in
  let reports = ref [] in
  let nodes = ref [] in
  for i = n - 1 downto 0 do
    let rows =
      Array.fold_left (fun acc (_, ns) -> acc + List.length ns) 0 shard_nodes.(i)
    in
    if not pruned.(i) then begin
      M.observe t.m_shard_ms shard_ms.(i);
      M.observe t.m_shard_rows (float_of_int rows)
    end;
    reports :=
      {
        shard = i;
        pruned = pruned.(i);
        docs = Array.length t.shard_states.(i).slots;
        rows;
        ms = shard_ms.(i);
      }
      :: !reports;
    (* slots are in ordinal order; walk docs backwards while prepending *)
    for d = Array.length shard_nodes.(i) - 1 downto 0 do
      let ordinal, ns = shard_nodes.(i).(d) in
      nodes := encode_onto ~ordinal !nodes ns
    done
  done;
  (* Shard-tagged spans land in the request trace from the coordinating
     domain after the join — tracers are request-scoped and single-domain,
     so workers never touch them; the measured wall time rides in attrs. *)
  (match trace with
  | Some tr when Tr.enabled tr ->
      List.iter
        (fun r ->
          Tr.with_span tr "shard"
            ~attrs:
              [
                ("shard", Tr.Int r.shard);
                ("pruned", Tr.Bool r.pruned);
                ("docs", Tr.Int r.docs);
                ("rows", Tr.Int r.rows);
                ("ms", Tr.Float r.ms);
              ]
            (fun _ -> ()))
        !reports
  | _ -> ());
  let nodes = match limit with None -> !nodes | Some l -> List.filteri (fun i _ -> i < l) !nodes in
  { nodes; ops = Array.fold_left sum_rows [] shard_ops; reports = !reports }
