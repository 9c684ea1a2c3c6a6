module Doc = Xqp_xml.Document
module Store = Xqp_storage.Succinct_store
module Lp = Xqp_algebra.Logical_plan
module Pg = Xqp_algebra.Pattern_graph
module Ops = Xqp_algebra.Operators
module Pp = Physical_plan
module Ps = Xqp_storage.Path_summary

type t = {
  id : int;
  document : Doc.t;
  store_lazy : Store.t Lazy.t;
  stats_lazy : Statistics.t Lazy.t;
  stats_version : int;
  engine_cache : (Pg.t, Cost_model.engine) Plan_cache.Lru.t;
  content_index_lazy : Content_index.t Lazy.t;
  hints_lazy : Navigation.hints Lazy.t;
}

type strategy = Pp.strategy =
  | Reference
  | Navigation
  | Nok
  | Pathstack
  | Twigstack
  | Binary_default
  | Binary_best
  | Auto

let strategy_name = Pp.strategy_name
let all_strategies = Pp.all_strategies
let strategy_of_string = Pp.strategy_of_string

let next_id = Atomic.make 0

(* Capacity of the shared plan cache and of each executor's engine-choice
   memo: a client can grow neither past it. *)
let plan_cache_capacity = 256

let make ?(stats_version = 0) document ~store_lazy ~stats_lazy =
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    document;
    store_lazy;
    stats_lazy;
    stats_version;
    engine_cache =
      Plan_cache.Lru.create ~name:"Executor.engine_cache" ~capacity:plan_cache_capacity ();
    content_index_lazy = lazy (Content_index.build document);
    hints_lazy =
      lazy (Navigation.make_hints document (Statistics.summary (Lazy.force stats_lazy)));
  }

let create ?pager document =
  make document
    ~store_lazy:(lazy (Store.of_document ?pager document))
    ~stats_lazy:(lazy (Statistics.build document))

(* The open path for packed images, single stores and corpus shards
   alike: the DOM comes straight from the loaded store's pre-order scan,
   and statistics derive from the packed path summary — checked against
   the DOM by the pass that assigns per-node path ids, so a summary that
   lies fails the open instead of steering a plan. Queries run on the
   DOM, so the loaded store is dropped once it is built and [store]
   rebuilds it, byte for byte, only if asked for. *)
let of_packed ~path image =
  let corrupt what = failwith (Printf.sprintf "%s: corrupt store file (%s)" path what) in
  let store = Xqp_storage.Store_io.load_bytes ~path image in
  let document =
    try Store.to_document store with Invalid_argument m -> corrupt m
  in
  let stats =
    let summary = Xqp_storage.Store_io.packed_summary ~path image in
    try Statistics.of_summary ~doc:document summary
    with Failure m -> corrupt ("path summary: " ^ m)
  in
  make document
    ~store_lazy:(lazy (Store.of_document document))
    ~stats_lazy:(Lazy.from_val stats)

(* A planning-only executor whose statistics are injected rather than
   derived from a document — the corpus path plans against the catalog's
   merged summary this way. The placeholder document exists only so the
   record is total; running a plan on this executor would answer over the
   empty placeholder, so corpus callers execute on per-document executors
   instead. [stats_version] (the catalog's merged stats version) keys the
   shared plan cache alongside the fresh executor id. *)
let create_planner ?stats_version stats =
  let document = Doc.of_tree (Xqp_xml.Tree.elt "xqp:corpus" []) in
  make ?stats_version document
    ~store_lazy:(lazy (Store.of_document document))
    ~stats_lazy:(Lazy.from_val stats)

let id t = t.id
let doc t = t.document
let store t = Lazy.force t.store_lazy
let statistics t = Lazy.force t.stats_lazy
let content_index t = Lazy.force t.content_index_lazy

let hints t = Lazy.force t.hints_lazy

(* Path-partition pruning for NoK and PathStack: a vertex's candidate
   stream keeps only nodes whose summary path id lies in the vertex's
   matched summary-node set. Only sound when matching starts at the
   document root — the summary projects paths from there. The filter is
   built per call: one pass down the pattern over the summary and a mark
   byte per summary node and vertex, a small part of the cheapest query.
   A per-pattern cache would hold a filter for every pattern a document
   has answered, and a corpus session keeps one per document. *)
let summary_prune t pattern ~context =
  if context <> [ Ops.document_context ] then None
  else begin
    let stats = statistics t in
    let summary = Statistics.summary stats in
    let per_vertex =
      Array.map
        (function
          | None -> None
          | Some ids ->
            let marks = Bytes.make (Ps.length summary) '\000' in
            List.iter (fun i -> if i >= 0 then Bytes.set marks i '\001') ids;
            Some (marks, List.mem Ps.super_root ids))
        (Statistics.vertex_summary_sets stats pattern)
    in
    Some
      (fun v ->
        match per_vertex.(v) with
        | None -> None
        | Some (marks, has_super) ->
          Some
            (fun rank ->
              (* the virtual document node has no path id; it matches a
                 vertex exactly when the projection kept the super-root *)
              if rank = Ops.document_context then has_super
              else
                let pid = Statistics.path_id stats rank in
                pid >= 0 && Bytes.get marks pid = '\001'))
  end

(* The executor's memoized cost-model chooser: [Auto] resolution per
   distinct pattern is paid once per executor while the pattern stays
   among the [plan_cache_capacity] most recently planned ones. The LRU's
   shard guards keep the memo coherent across domains; a racing
   duplicate costing is benign. *)
let cached_choose t pattern =
  match Plan_cache.Lru.find t.engine_cache pattern with
  | Some engine -> engine
  | None ->
    let engine = Cost_model.choose (statistics t) pattern in
    ignore (Plan_cache.Lru.add t.engine_cache pattern engine);
    engine

let engine_cache_length t = Plan_cache.Lru.length t.engine_cache
let engine_cache_capacity t = Plan_cache.Lru.capacity t.engine_cache

(* --- debug plan verification ------------------------------------------- *)

let verify_plans =
  Atomic.make
    (match Sys.getenv_opt "XQP_VERIFY_PLANS" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false)

exception Ill_sorted of string

(* --- deadlines ----------------------------------------------------------- *)

exception Deadline_exceeded = Deadline.Exceeded

let check_deadline = Deadline.check

(* The sort checker wants the kinds of the context nodes, which we know
   exactly here: the virtual document node plus the kinds of every real
   context node. *)
let context_kinds doc context =
  let module Pc = Xqp_analysis.Plan_check in
  Pc.kinds
    (List.sort_uniq compare
       (List.map
          (fun id ->
            if id = Ops.document_context then Pc.Doc_node
            else
              match Doc.kind doc id with
              | Doc.Element -> Pc.Element
              | Doc.Attribute -> Pc.Attribute
              | Doc.Text | Doc.Comment | Doc.Pi -> Pc.Text)
          context))

let verify_physical t physical ~context =
  (* Estimates live on the operator, the binding on the tau; collect both
     in execution order. *)
  let rec tau_summaries p acc =
    match p.Pp.op with
    | Pp.Root | Pp.Context | Pp.Empty _ -> acc
    | Pp.Step (base, _) -> tau_summaries base acc
    | Pp.Tau (base, tau) ->
      tau_summaries base acc
      @ [
          {
            Xqp_analysis.Lint.tau_pattern = tau.Pp.pattern;
            tau_engine = Pp.engine_label tau.Pp.engine;
            tau_supported = Planner.supports (Pp.engine_strategy tau.Pp.engine) tau.Pp.pattern;
            tau_estimate = p.Pp.est_rows;
          };
        ]
    | Pp.Union (a, b) -> tau_summaries b (tau_summaries a acc)
  in
  let diags =
    Xqp_analysis.Lint.check_physical
      ~context:(context_kinds t.document context)
      ~logical:(Pp.to_logical physical) (tau_summaries physical [])
  in
  if Xqp_analysis.Diagnostic.has_errors diags then
    raise
      (Ill_sorted
         (Format.asprintf "plan rejected by the physical checker:@.%a"
            Xqp_analysis.Diagnostic.pp_report diags))

(* --- compilation -------------------------------------------------------- *)

let compile t ?(strategy = Auto) ?(context_card = 1.0) plan =
  Planner.compile ~strategy ~context_card ~choose:(cached_choose t) (statistics t) plan

(* One process-wide cache: plans are small and keys carry the executor's
   identity, so sharing beats per-executor bookkeeping. Entries carry the
   logical fingerprint alongside the compiled plan — the flight recorder
   keys its per-query aggregates by fingerprint on every admitted
   request, and computing it at compile time makes it free on the cache
   hits that dominate a warm server. *)
let shared_plan_cache : (Pp.t * string) Plan_cache.t =
  Plan_cache.create ~capacity:plan_cache_capacity ()

type cache_status = Cache_hit | Cache_miss | Cache_bypassed

let cache_status_label = function
  | Cache_hit -> "hit"
  | Cache_miss -> "miss"
  | Cache_bypassed -> "bypassed"

type source = Query of string | Plan of Lp.t

type compiled = { physical : Pp.t; fingerprint : string; cache : cache_status }

(* Text is parsed and rewritten (R0+R1/R2 under [optimize], R0 alone
   otherwise) and keyed by itself. A plan handed over as a value is
   compiled {e as given} unless [optimize] is set — [execute] must run
   exactly the plan it received — and keyed by its fingerprint, so a hit
   also skips the rewriting. The status is observed on this call's own
   lookup, not inferred from the global hit counters, so concurrent
   compilations on other domains can never mis-attribute a hit. *)
let prepare t ?(strategy = Auto) ?optimize ?(use_cache = true) source =
  let optimize =
    Option.value optimize ~default:(match source with Query _ -> true | Plan _ -> false)
  in
  let build () =
    let plan =
      match source with
      | Query text ->
        let plan = Xqp_xpath.Parser.parse text in
        if optimize then Xqp_algebra.Rewrite.optimize plan else Xqp_algebra.Rewrite.simplify plan
      | Plan plan -> if optimize then Xqp_algebra.Rewrite.optimize plan else plan
    in
    (compile t ~strategy plan, Lp.fingerprint plan)
  in
  let (physical, fingerprint), cache =
    if not use_cache then (build (), Cache_bypassed)
    else begin
      let key =
        {
          Plan_cache.query =
            (match source with Query text -> text | Plan plan -> "plan:" ^ Lp.fingerprint plan);
          optimize;
          strategy = strategy_name strategy;
          doc_id = t.id;
          stats_version = t.stats_version;
        }
      in
      match Plan_cache.find shared_plan_cache key with
      | Some entry -> (entry, Cache_hit)
      | None ->
        let entry = build () in
        Plan_cache.add shared_plan_cache key entry;
        (entry, Cache_miss)
    end
  in
  { physical; fingerprint; cache }

let compile_query_info t ?strategy ?optimize ?use_cache text =
  let c = prepare t ?strategy ?optimize ?use_cache (Query text) in
  (c.physical, c.cache)

(* --- execution ---------------------------------------------------------- *)

(* τ dispatch is a direct jump to the bound engine: every decision —
   engine, join order, index use, step expansion — was fixed by the
   planner, so nothing here consults the cost model or resolves [Auto]. *)
let run_tau ?deadline ?limit t (tau : Pp.tau) ~context =
  match tau.Pp.engine with
  | Pp.Reference_match -> Ops.pattern_match t.document tau.Pp.pattern ~context
  | Pp.Nok_kernel ->
    List.map
      (fun (v, nodes) -> (v, Xqp_xml.Node_set.to_list nodes))
      (Nok.match_pattern
         ?prune:(summary_prune t tau.Pp.pattern ~context)
         ?deadline ?limit t.document tau.Pp.pattern ~context)
  | Pp.Path_stack_join ->
    Path_stack.match_pattern
      ?prune:(summary_prune t tau.Pp.pattern ~context)
      t.document tau.Pp.pattern ~context
  | Pp.Twig_stack_join -> Twig_stack.match_pattern t.document tau.Pp.pattern ~context
  | Pp.Binary_semijoin { use_index } ->
    let index = if use_index then Some (content_index t) else None in
    Binary_join.match_pattern ?content_index:index t.document tau.Pp.pattern ~context
  | Pp.Binary_ordered order ->
    (* semijoin reduction is order-insensitive; the "best order" strategy
       matters for the tuple-materializing mode *)
    fst (Binary_join.evaluate_with_order t.document tau.Pp.pattern ~context ~order)
  | Pp.Navigation_steps plan ->
    let nodes = Navigation.eval_plan ~hints:(hints t) ?deadline t.document plan ~context in
    let output = match Pg.outputs tau.Pp.pattern with v :: _ -> v | [] -> 0 in
    [ (output, nodes) ]

(* Runs the engine as [Auto] binds it ([Planner.compile_tau]) through
   its [*_with_stats] entry, from the document root. *)
let count_units t engine pattern =
  if not (Cost_model.supports pattern engine) then
    invalid_arg "Executor.count_units: the engine does not support the pattern";
  let context = [ Ops.document_context ] in
  let f = float_of_int in
  match (engine : Cost_model.engine) with
  | Cost_model.Naive_nav ->
    let plan = Lp.of_steps ~base:Lp.Context (Navigation.steps_of_pattern pattern) in
    let _, s = Navigation.eval_plan_with_stats ~hints:(hints t) t.document plan ~context in
    [| f s.Navigation.nodes_visited |]
  | Cost_model.Nok_navigation ->
    let _, s =
      Nok.match_pattern_with_stats ?prune:(summary_prune t pattern ~context) t.document pattern
        ~context
    in
    [| f s.Nok.nodes_visited; f s.Nok.join_pairs |]
  | Cost_model.Twig_join ->
    let _, s = Twig_stack.match_pattern_with_stats t.document pattern ~context in
    [| f s.Twig_stack.streamed; f s.Twig_stack.pushes; f s.Twig_stack.path_solutions |]
  | Cost_model.Binary_joins ->
    let index = if Binary_join.index_answerable pattern then Some (content_index t) else None in
    let _, s = Binary_join.match_pattern_with_stats ?content_index:index t.document pattern ~context in
    [| f s.Binary_join.streamed; f s.Binary_join.scanned |]

let counted_costs t pattern =
  List.filter_map
    (fun e ->
      if Cost_model.supports pattern e then
        Some (e, Cost_model.cost_of_units e (count_units t e pattern))
      else None)
    Cost_model.all_engines

let run_pattern t strategy pattern ~context =
  run_tau t (Planner.compile_tau ~choose:(cached_choose t) (statistics t) strategy pattern)
    ~context

(* --- instrumented physical-plan interpretation -------------------------- *)

module Tr = Xqp_obs.Trace

let run_physical t ?deadline ?limit ?(trace = Tr.default) physical ~context =
  check_deadline deadline;
  if Atomic.get verify_plans then verify_physical t physical ~context;
  let tr = trace in
  (* One span per plan operator — the only per-operator record
     (DESIGN.md §7). [path] names the operator's position in the plan
     tree ("0" = the whole plan, children at "<path>.<i>") with the same
     scheme as [Profile.rows_of_physical], which joins the spans back onto
     the plan by it. When the tracer is off, this is a bool check and a
     direct call. *)
  let instr path (p : Pp.t) f =
    if not (Tr.enabled tr) then f Tr.null_span
    else
      Tr.with_span tr
        ~attrs:[ ("path", Tr.Str path); ("est", Tr.Float p.Pp.est_rows) ]
        (Pp.op_label p)
        (fun span ->
          let out = f span in
          Tr.add_attrs span [ ("out", Tr.Int (List.length out)) ];
          out)
  in
  let rec go path (p : Pp.t) ctx =
    check_deadline deadline;
    instr path p (fun span ->
        match p.Pp.op with
        | Pp.Root -> [ Ops.document_context ]
        | Pp.Empty _ -> []
        | Pp.Union (a, b) ->
          List.sort_uniq compare (go (path ^ ".0") a ctx @ go (path ^ ".1") b ctx)
        | Pp.Context -> List.sort_uniq compare ctx
        | Pp.Step (base, s) ->
          let base_nodes = go (path ^ ".0") base ctx in
          if Tr.enabled tr then Tr.add_attrs span [ ("in", Tr.Int (List.length base_nodes)) ];
          (* a lone step from the document root stops at the limit *)
          let limit = match base.Pp.op with Pp.Root when p == physical -> limit | _ -> None in
          Navigation.eval_plan ~hints:(hints t) ?limit ?deadline t.document
            (Lp.Step (Lp.Context, s)) ~context:base_nodes
        | Pp.Tau (base, tau) -> (
          let base_nodes = go (path ^ ".0") base ctx in
          if Tr.enabled tr then
            Tr.add_attrs span
              [
                ("in", Tr.Int (List.length base_nodes));
                ("engine", Tr.Str (Pp.engine_label tau.Pp.engine));
              ];
          (* the limit reaches the engine only for the plan's own τ from
             the document root, whose rows are the plan's rows *)
          let limit = match base.Pp.op with Pp.Root when p == physical -> limit | _ -> None in
          match run_tau ?deadline ?limit t tau ~context:base_nodes with
          | [ (_, nodes) ] -> nodes
          | several -> List.sort_uniq compare (List.concat_map snd several)))
  in
  let nodes = go "0" physical context in
  match limit with None -> nodes | Some l -> List.filteri (fun i _ -> i < l) nodes

let execute t ?strategy ?optimize ?use_cache ?deadline ?(context = [ Ops.document_context ])
    source =
  run_physical t ?deadline (prepare t ?strategy ?optimize ?use_cache source).physical ~context
