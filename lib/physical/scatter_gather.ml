(* Scatter-gather execution: one plan compiled once fans out across a
   corpus's documents on a persistent pool of worker domains, and the
   per-document results merge back in global document order. A single
   document is a corpus of one, already materialized, with no pool. See
   the .mli and DESIGN.md §14 for the ownership model. *)

module Doc = Xqp_xml.Document
module Catalog = Xqp_storage.Catalog
module Ops = Xqp_algebra.Operators
module Pp = Physical_plan
module M = Xqp_obs.Metrics
module Tr = Xqp_obs.Trace

(* --- global-ordinal row ids ---------------------------------------------- *)

(* A row id carries its document's global ordinal in bits 40 and up,
   offset so that ordinal 0 is plain: the ids of a document, and of a
   catalog's first document, are its pre-order ids. A document's node
   (-1 within the document) is [(ordinal lsl 40) - 1]: distinct per
   ordinal, and just before that document's nodes. Within-document ids
   stay below 2^40 - 1 by a huge margin and ordinals fit the remaining
   22 bits of a 63-bit int, so ids increase strictly across
   (ordinal, node) and a merged corpus stream is still sorted and
   duplicate-free. *)
let ordinal_shift = 40
let node_mask = (1 lsl ordinal_shift) - 1
let encode ~ordinal node = (ordinal lsl ordinal_shift) + node
let ordinal_of id = (id + 1) asr ordinal_shift
let node_of id = ((id + 1) land node_mask) - 1

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

type shard = {
  first : int; (* global ordinal of the shard's first document *)
  docs : int;
  certainly_empty : Xqp_algebra.Logical_plan.t -> bool; (* off the shard's own summary *)
}

(* Executors are safe to share (every artifact is a [Once] cell), so a
   document's executor is itself a [Once] cell: its lock is held only
   while the document materializes, and a built one is read with one
   atomic load — no lock and no allocation per query or per reply row. *)
type t = {
  planner : Executor.t;
  pool : pool option;
  shards : shard array;
  execs : Executor.t Once.t array; (* by global ordinal *)
}

let m_dispatched = M.counter M.default "corpus.shards_dispatched"
let m_pruned = M.counter M.default "corpus.shards_pruned"
let m_materialized = M.counter M.default "corpus.docs_materialized"
let m_shard_ms = M.histogram M.default "corpus.shard_ms"
let m_shard_rows = M.histogram M.default "corpus.shard_rows"

exception Shard_error of string

(* A shard container's images, read on its first materialization and
   dropped once every document in it is built. [Mutex.protect]: an
   unreadable container must not leave the lock held. *)
type images = {
  lock : Mutex.t;
  read : unit -> string array;
  mutable loaded : string array option;
  mutable pending : int; (* documents not built yet *)
}

let image imgs d =
  Mutex.protect imgs.lock (fun () ->
      match imgs.loaded with
      | Some loaded -> loaded.(d)
      | None ->
          let loaded = imgs.read () in
          imgs.loaded <- Some loaded;
          loaded.(d))

let built imgs =
  Mutex.protect imgs.lock (fun () ->
      imgs.pending <- imgs.pending - 1;
      if imgs.pending = 0 then imgs.loaded <- None)

(* A document's executor, built from its packed image through the same
   open path as a single store. Materialization happens inside a query,
   so an unreadable container or a corrupt image surfaces as
   [Shard_error], not as a failure of the query itself. *)
let materialize ~path imgs d () =
  let exec =
    try Executor.of_packed ~path (image imgs d)
    with Failure m | Sys_error m -> raise (Shard_error m)
  in
  built imgs;
  M.incr m_materialized;
  exec

let open_catalog ?(domains = 1) catalog =
  (* Cap the busy domains at the hardware: extra ones on a CPU-bound
     batch only add context-switch thrash, and OCaml's minor collection
     stops every domain, so one descheduled domain stalls them all. The
     coordinator drains the queue too and counts as one of the
     [workers]: the pool spawns [workers - 1] domains, and [workers = 1]
     (or a 1-core box) runs inline with no pool. *)
  let workers = min (max 1 domains) (Domain.recommended_domain_count ()) in
  let execs_of i (s : Catalog.shard) =
    let docs = Array.length s.Catalog.doc_names in
    let imgs =
      {
        lock = Mutex.create ();
        read = (fun () -> Catalog.read_shard_images catalog i);
        loaded = None;
        pending = docs;
      }
    in
    let file = Catalog.shard_file catalog i in
    Array.init docs (fun d -> Once.make (materialize ~path:(Printf.sprintf "%s[%d]" file d) imgs d))
  in
  {
    planner =
      Executor.create_planner
        ~stats_version:catalog.Catalog.merged_stats_version
        (Statistics.of_summary catalog.Catalog.merged);
    pool = (if workers > 1 then Some (make_pool (workers - 1)) else None);
    shards =
      Array.mapi
        (fun i (s : Catalog.shard) ->
          let stats = Statistics.of_summary s.Catalog.summary in
          {
            first = Catalog.doc_base catalog i;
            docs = Array.length s.Catalog.doc_names;
            certainly_empty = Cost_model.plan_certainly_empty stats;
          })
        catalog.Catalog.shards;
    execs = Array.concat (Array.to_list (Array.mapi execs_of catalog.Catalog.shards));
  }

let of_executor exec =
  {
    planner = exec;
    pool = None;
    shards =
      [|
        {
          first = 0;
          docs = 1;
          certainly_empty = (fun _ -> false) (* a lone shard is never tested *);
        };
      |];
    execs = [| Once.of_value exec |];
  }

let planner t = t.planner
let doc_count t = Array.length t.execs
let close t = Option.iter stop_pool t.pool

let with_doc_executor t ~ordinal f =
  if ordinal < 0 || ordinal >= doc_count t then invalid_arg "Scatter_gather.with_doc_executor";
  f (Once.force t.execs.(ordinal))

(* Takes no lock once the document is built and allocates nothing: a
   reply resolves every row through here. *)
let document t ~ordinal = Executor.doc (Once.force t.execs.(ordinal))

(* --- execution ----------------------------------------------------------- *)

type shard_report = {
  shard : int;
  pruned : bool;
  docs : int;
  rows : int;
  ms : float;
}

type run_result = {
  nodes : Doc.node list; (* global row ids, global document order *)
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
  let n = Array.length t.shards in
  (* A shard whose own summary proves the plan empty is never dispatched:
     its documents are never even opened. A plan the planner proved empty
     prunes every shard, and a lone shard's summary is the one the plan
     was compiled against, so there is nothing to test. *)
  let pruned =
    match physical.Pp.op with
    | Pp.Empty _ -> Array.make n true
    | _ when n = 1 -> [| false |]
    | _ ->
        let logical = Pp.to_logical physical in
        Array.map (fun s -> s.certainly_empty logical) t.shards
  in
  (* A traced request profiles every document: each document task
     records its operator spans in a tracer of its own, sized to the
     plan (one span per plan node: at most [2 size + 1], since [size]
     does not count the root and context leaves), so workers never touch
     the request tracer. *)
  let capacity =
    match trace with Some tr when Tr.enabled tr -> (2 * Pp.size physical) + 1 | _ -> 0
  in
  let docs = doc_count t in
  let doc_nodes = Array.make docs [] in
  let doc_ops = Array.make docs [] in
  let tracers = Array.make docs None in
  let starts = Array.make docs 0.0 in
  let stops = Array.make docs 0.0 in
  let errors = Array.make docs None in
  let task ordinal () =
    starts.(ordinal) <- Unix.gettimeofday ();
    (try
       let exec = Once.force t.execs.(ordinal) in
       let context = [ Ops.document_context ] in
       doc_nodes.(ordinal) <-
         (if capacity = 0 then Executor.run_physical exec ?deadline ?limit physical ~context
          else begin
            let tr = Tr.create ~capacity () in
            Tr.set_enabled tr true;
            let nodes = Executor.run_physical exec ?deadline ?limit ~trace:tr physical ~context in
            doc_ops.(ordinal) <- Profile.rows_of_spans physical (Tr.events tr);
            tracers.(ordinal) <- Some tr;
            nodes
          end)
     with e -> errors.(ordinal) <- Some e);
    stops.(ordinal) <- Unix.gettimeofday ()
  in
  (* One task per document of an unpruned shard, so a batch spreads
     evenly over the workers even when shards hold different numbers of
     documents. *)
  let tasks = ref [] and dispatched = ref 0 in
  for i = n - 1 downto 0 do
    if not pruned.(i) then begin
      incr dispatched;
      let s = t.shards.(i) in
      for ordinal = s.first + s.docs - 1 downto s.first do
        tasks := task ordinal :: !tasks
      done
    end
  done;
  M.add m_dispatched !dispatched;
  M.add m_pruned (n - !dispatched);
  run_batch t.pool (Array.of_list !tasks);
  Array.iter (function Some e -> raise e | None -> ()) errors;
  (* Each shard's span lands in the request trace from the coordinating
     domain after the join, over its documents' tasks, with their
     operator spans grafted beneath it: tracers are request-scoped and
     single-domain, so workers never touch the request tracer. *)
  let joined = Unix.gettimeofday () in
  let report i =
    let s = t.shards.(i) in
    let rows = ref 0 and ms = ref 0.0 and sources = ref [] in
    let start = ref joined and stop = ref (if pruned.(i) then joined else 0.0) in
    if not pruned.(i) then begin
      for ordinal = s.first + s.docs - 1 downto s.first do
        rows := !rows + List.length doc_nodes.(ordinal);
        ms := !ms +. ((stops.(ordinal) -. starts.(ordinal)) *. 1000.0);
        start := Float.min !start starts.(ordinal);
        stop := Float.max !stop stops.(ordinal);
        Option.iter (fun tr -> sources := tr :: !sources) tracers.(ordinal)
      done;
      M.observe m_shard_ms !ms;
      M.observe m_shard_rows (float_of_int !rows)
    end;
    if capacity > 0 then
      Option.iter
        (fun tr ->
          Tr.graft tr "shard" ~start:!start ~stop:!stop
            ~attrs:
              [
                ("shard", Tr.Int i);
                ("pruned", Tr.Bool pruned.(i));
                ("docs", Tr.Int s.docs);
                ("rows", Tr.Int !rows);
                ("ms", Tr.Float !ms);
              ]
            !sources)
        trace;
    { shard = i; pruned = pruned.(i); docs = s.docs; rows = !rows; ms = !ms }
  in
  let reports = Array.to_list (Array.init n report) in
  (* Walk the documents backwards while prepending. A lone list from the
     first document is the result as it is: its ids are already global. *)
  let nodes = ref [] in
  for ordinal = docs - 1 downto 0 do
    match doc_nodes.(ordinal) with
    | [] -> ()
    | ns when ordinal = 0 && !nodes = [] -> nodes := ns
    | ns -> nodes := encode_onto ~ordinal !nodes ns
  done;
  let nodes = match limit with None -> !nodes | Some l -> List.filteri (fun i _ -> i < l) !nodes in
  { nodes; ops = Array.fold_left sum_rows [] doc_ops; reports }
