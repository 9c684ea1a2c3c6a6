(* Every experiment in EXPERIMENTS.md, run through Harness: `--only=E1,E4`
   restricts the run, `--full` uses the full-size documents (default sizes
   keep a laptop run to a few minutes). *)

open Xqp_xml
open Xqp_algebra
open Xqp_physical
module Workload = Xqp_workload
module J = Xqp_obs.Json

let measure f = (Harness.sample f).Harness.median
let ms t = t *. 1000.0
let jint i = J.Num (float_of_int i)

(* ------------------------------------------------------------------ *)
(* Shared setup                                                        *)
(* ------------------------------------------------------------------ *)

(* The engines the bench reports on, named through
   [Executor.strategy_name] so labels can never drift from the CLI. *)
let strategies =
  List.map
    (fun s -> (Executor.strategy_name s, s))
    [ Executor.Nok; Executor.Twigstack; Executor.Binary_default; Executor.Navigation ]

let run_query exec strategy q = Executor.execute exec ~strategy (Executor.Query q)

let check_agreement exec q =
  let reference = run_query exec Executor.Reference q in
  List.iter
    (fun (name, strategy) ->
      let result = run_query exec strategy q in
      if result <> reference then
        failwith
          (Printf.sprintf "engine %s disagrees on %s (%d vs %d results)" name q
             (List.length result) (List.length reference)))
    strategies;
  List.length reference

(* ------------------------------------------------------------------ *)
(* F1: Fig. 1 — bib FLWOR through the algebra                          *)
(* ------------------------------------------------------------------ *)

let f1_run ~scale =
  let books = match scale with `Small -> 200 | `Full -> 2000 in
  let exec = Executor.create (Document.of_tree (Workload.Gen_bib.document ~books ())) in
  let ast = Xqp_xquery.Xq_parser.parse (List.assoc "F1-fig1" Workload.Queries.bib_flwor) in
  let translation =
    match Xqp_xquery.Translate.translate ast with
    | Some t -> t
    | None -> failwith "Fig. 1 query must be translatable"
  in
  let direct () = Xqp_xquery.Eval.eval exec ast in
  let algebraic () = Xqp_xquery.Translate.execute exec translation in
  (* functional check: the γ∘Env pipeline equals direct interpretation *)
  let direct_str =
    String.concat ""
      (List.map Serializer.to_string (Xqp_xquery.Eval.result_trees exec (direct ())))
  in
  let algebraic_str = String.concat "" (List.map Serializer.to_string (algebraic ())) in
  if not (String.equal direct_str algebraic_str) then failwith "F1: algebraic path diverges";
  let t_direct = measure direct in
  let t_algebraic = measure algebraic in
  Printf.printf "  %-28s %10s %14s %14s\n" "query" "books" "direct(ms)" "algebra(ms)";
  Printf.printf "  %-28s %10d %14.3f %14.3f\n" "Fig1 bib FLWOR"
    (List.length (Document.children (Executor.doc exec) 0))
    (ms t_direct) (ms t_algebraic);
  Printf.printf "  schema tree: %s\n"
    (Format.asprintf "%a" Schema_tree.pp translation.Xqp_xquery.Translate.schema)

(* ------------------------------------------------------------------ *)
(* F2: Fig. 2 — Env construction                                       *)
(* ------------------------------------------------------------------ *)

let fig2_env ~books =
  let doc = Document.of_tree (Workload.Gen_bib.document ~books ()) in
  let exec = Executor.create doc in
  let books_nodes = Executor.execute exec ~strategy:Executor.Nok (Executor.Query "/bib/book") in
  fun () ->
    let env = Env.empty in
    let env = Env.extend_for env "b" (fun _ -> List.map (fun n -> Value.Node n) books_nodes) in
    let env =
      Env.extend_let env "t" (fun bindings ->
          match List.assoc "b" bindings with
          | [ Value.Node b ] ->
            List.map
              (fun n -> Value.Node n)
              (Operators.select_tag doc "title" (Operators.axis_nodes doc Axis.Child b))
          | _ -> [])
    in
    let env =
      Env.extend_for env "a" (fun bindings ->
          match List.assoc "b" bindings with
          | [ Value.Node b ] ->
            List.map
              (fun n -> Value.Node n)
              (Operators.select_tag doc "author" (Operators.axis_nodes doc Axis.Child b))
          | _ -> [])
    in
    let env = Env.filter_where env (fun _ -> true) in
    Env.path_count env

let f2_run ~scale =
  let books = match scale with `Small -> 500 | `Full -> 5000 in
  let build = fig2_env ~books in
  let count = build () in
  let t = measure build in
  Printf.printf "  %-28s %10s %14s %10s\n" "env" "books" "build(ms)" "paths";
  Printf.printf "  %-28s %10d %14.3f %10d\n" "($b,$t,($a)) + where" books (ms t) count

(* ------------------------------------------------------------------ *)
(* E1: query time vs document size                                     *)
(* ------------------------------------------------------------------ *)

let e1_scales = function
  | `Small -> [ 10_000; 100_000 ]
  | `Full -> [ 1_000; 10_000; 50_000; 100_000 ]

(* Work units approximate page I/O: nodes/stream entries an engine touches
   (the paper's experiments measure disk-resident evaluation, where these
   dominate; see EXPERIMENTS.md). *)
let work_units exec q =
  let doc = Executor.doc exec in
  let context = [ Operators.document_context ] in
  let pattern = Xqp_xpath.Parser.parse_pattern q in
  let _, nok_stats = Nok.match_pattern_with_stats doc pattern ~context in
  let _, bin_stats = Binary_join.match_pattern_with_stats doc pattern ~context in
  let _, twig_stats = Twig_stack.match_pattern_with_stats doc pattern ~context in
  let twig_streams =
    List.fold_left
      (fun acc v -> acc + Array.length (Binary_join.candidates doc pattern ~context v))
      0
      (List.init (Pattern_graph.vertex_count pattern) (fun i -> i))
  in
  let nav_plan = Rewrite.simplify (Xqp_xpath.Parser.parse q) in
  let _, nav_stats = Navigation.eval_plan_with_stats doc nav_plan ~context in
  ( nok_stats.Nok.nodes_visited + nok_stats.Nok.join_pairs,
    twig_streams + twig_stats.Twig_stack.pushes + twig_stats.Twig_stack.path_solutions,
    bin_stats.Binary_join.scanned,
    nav_stats.Navigation.nodes_visited )

let e1_run ~scale =
  Printf.printf "  %-6s %-9s %8s | %10s %10s %10s %10s | %-10s | %8s %8s %8s %8s\n" "query"
    "nodes" "results" "nok(ms)" "twig(ms)" "binary(ms)" "nav(ms)" "winner" "nok-w" "twig-w"
    "bin-w" "nav-w";
  List.iter
    (fun nodes ->
      let doc = Workload.Gen_auction.packed ~scale:nodes () in
      let exec = Executor.create doc in
      (* build the store outside the timed region *)
      ignore (Executor.store exec);
      List.iter
        (fun q ->
          let results = check_agreement exec q.Workload.Queries.xpath in
          let times =
            List.map
              (fun (name, strategy) ->
                (name, measure (fun () -> run_query exec strategy q.Workload.Queries.xpath)))
              strategies
          in
          let winner =
            fst
              (List.fold_left
                 (fun (bn, bt) (n, t) -> if t < bt then (n, t) else (bn, bt))
                 ("", infinity) times)
          in
          let w_nok, w_twig, w_bin, w_nav = work_units exec q.Workload.Queries.xpath in
          match List.map snd times with
          | [ t_nok; t_twig; t_bin; t_nav ] ->
            Printf.printf
              "  %-6s %-9d %8d | %10.3f %10.3f %10.3f %10.3f | %-10s | %8d %8d %8d %8d\n"
              q.Workload.Queries.id (Document.node_count doc) results (ms t_nok) (ms t_twig)
              (ms t_bin) (ms t_nav) winner w_nok w_twig w_bin w_nav
          | _ -> assert false)
        Workload.Queries.auction_paths)
    (e1_scales scale)

(* ------------------------------------------------------------------ *)
(* E2: query time vs query complexity                                  *)
(* ------------------------------------------------------------------ *)

let e2_run ~scale =
  let nodes = match scale with `Small -> 10_000 | `Full -> 50_000 in
  let doc = Workload.Gen_auction.packed ~scale:nodes () in
  let exec = Executor.create doc in
  ignore (Executor.store exec);
  Printf.printf "  document: %d nodes\n" (Document.node_count doc);
  Printf.printf "  %-6s %-44s %8s | %10s %10s %10s %10s\n" "query" "(description)" "results"
    "nok(ms)" "twig(ms)" "binary(ms)" "nav(ms)";
  List.iter
    (fun q ->
      let results = check_agreement exec q.Workload.Queries.xpath in
      let t name =
        measure (fun () -> run_query exec (List.assoc name strategies) q.Workload.Queries.xpath)
      in
      Printf.printf "  %-6s %-44s %8d | %10.3f %10.3f %10.3f %10.3f\n" q.Workload.Queries.id
        q.Workload.Queries.description results (ms (t "nok")) (ms (t "twigstack"))
        (ms (t "binary-default"))
        (ms (t "navigation")))
    Workload.Queries.auction_complexity_sweep

(* ------------------------------------------------------------------ *)
(* E3: selectivity sweep                                               *)
(* ------------------------------------------------------------------ *)

let e3_frequencies = [ 0.001; 0.01; 0.05; 0.2; 0.5 ]

let e3_run ~scale =
  let nodes = match scale with `Small -> 10_000 | `Full -> 40_000 in
  Printf.printf "  %-10s %8s %8s | %10s %10s %10s %10s\n" "freq" "nodes" "results" "nok(ms)"
    "twig(ms)" "binary(ms)" "nav(ms)";
  List.iter
    (fun freq ->
      let tree = Workload.Gen_synthetic.skewed ~nodes ~target:"t" ~target_frequency:freq () in
      let doc = Document.of_tree tree in
      let exec = Executor.create doc in
      ignore (Executor.store exec);
      let q = "//f1//t" in
      let results = check_agreement exec q in
      let t name = measure (fun () -> run_query exec (List.assoc name strategies) q) in
      Printf.printf "  %-10.3f %8d %8d | %10.3f %10.3f %10.3f %10.3f\n" freq
        (Document.node_count doc) results (ms (t "nok")) (ms (t "twigstack"))
        (ms (t "binary-default"))
        (ms (t "navigation")))
    e3_frequencies

(* ------------------------------------------------------------------ *)
(* E4: storage footprint                                               *)
(* ------------------------------------------------------------------ *)

(* Pointer-DOM estimate: the packed Document's arrays (7 word-sized fields
   per node + kind byte) plus text bytes. A pointer-per-field heap DOM
   would be larger still, so this is the conservative comparison. *)
let dom_bytes doc =
  let n = Document.node_count doc in
  let strings = ref 0 in
  for id = 0 to n - 1 do
    strings := !strings + String.length (Document.content doc id)
  done;
  (n * 8 * 7) + n + !strings

(* Interval-encoding relation: one row (start, end, level, tag) per
   element/attribute plus text values, as an extended-relational system
   stores it [1]. *)
let interval_bytes doc =
  let n = Document.node_count doc in
  let rows = ref 0 in
  let strings = ref 0 in
  for id = 0 to n - 1 do
    (match Document.kind doc id with
    | Document.Element | Document.Attribute -> incr rows
    | Document.Text | Document.Comment | Document.Pi -> ());
    strings := !strings + String.length (Document.content doc id)
  done;
  (!rows * 32) + !strings

let e4_shapes ~scale =
  let base = match scale with `Small -> 10_000 | `Full -> 50_000 in
  [
    ("bib", Workload.Gen_bib.document ~books:(base / 16) ());
    ("auction", Workload.Gen_auction.document ~scale:base ());
    ("dblp", Workload.Gen_dblp.document ~publications:(base / 11) ());
    ("deep-chain", Workload.Gen_synthetic.deep_chain ~depth:(base / 10) "d");
    ("wide", Workload.Gen_synthetic.wide ~fanout:(base / 2) "w");
  ]

let e4_run ~scale =
  Printf.printf "  %-12s %9s | %9s %9s %9s %9s | %13s %13s\n" "shape" "nodes" "succinct" "dom"
    "interval" "xml" "succinct B/nd" "dom B/nd";
  List.iter
    (fun (name, tree) ->
      let doc = Document.of_tree tree in
      let store = Xqp_storage.Succinct_store.of_tree tree in
      let f = Xqp_storage.Succinct_store.footprint store in
      let succinct = Xqp_storage.Succinct_store.total_bytes f in
      let dom = dom_bytes doc in
      let interval = interval_bytes doc in
      let xml = String.length (Serializer.to_string tree) in
      let n = Document.node_count doc in
      Printf.printf "  %-12s %9d | %9d %9d %9d %9d | %13.1f %13.1f\n" name n succinct dom
        interval xml
        (float_of_int succinct /. float_of_int n)
        (float_of_int dom /. float_of_int n))
    (e4_shapes ~scale)

(* ------------------------------------------------------------------ *)
(* E5: structural join order selection                                 *)
(* ------------------------------------------------------------------ *)

let e5_queries = [ "Q3"; "Q4"; "C5"; "C6" ]

let e5_run ~scale =
  let nodes = match scale with `Small -> 8_000 | `Full -> 30_000 in
  let doc = Workload.Gen_auction.packed ~scale:nodes () in
  let exec = Executor.create doc in
  let stats = Executor.statistics exec in
  Printf.printf "  document: %d nodes\n" (Document.node_count doc);
  Printf.printf "  %-6s %7s | %12s %12s %12s %12s | %12s\n" "query" "orders" "best-tuples"
    "worst-tuples" "default" "model-chosen" "worst/best";
  List.iter
    (fun id ->
      let q = Workload.Queries.by_id id in
      let pattern = Xqp_xpath.Parser.parse_pattern q.Workload.Queries.xpath in
      let context = [ Operators.document_context ] in
      let orders = Binary_join.all_orders pattern in
      let tuples order =
        let _, s = Binary_join.evaluate_with_order doc pattern ~context ~order in
        s.Binary_join.intermediate_tuples
      in
      let measured = List.map (fun o -> (o, tuples o)) orders in
      let best = List.fold_left (fun acc (_, t) -> min acc t) max_int measured in
      let worst = List.fold_left (fun acc (_, t) -> max acc t) 0 measured in
      let default_tuples = tuples (Binary_join.default_order pattern) in
      let chosen_tuples = tuples (Cost_model.best_join_order stats pattern) in
      Printf.printf "  %-6s %7d | %12d %12d %12d %12d | %12.2f\n" id (List.length orders) best
        worst default_tuples chosen_tuples
        (float_of_int worst /. float_of_int (max 1 best)))
    e5_queries

(* ------------------------------------------------------------------ *)
(* E6: update cost — splice vs rebuild                                 *)
(* ------------------------------------------------------------------ *)

let e6_scales = function `Small -> [ 5_000; 20_000 ] | `Full -> [ 5_000; 20_000; 80_000 ]

let e6_run ~scale =
  Printf.printf "  %-9s | %12s %12s %10s | %14s %14s\n" "nodes" "splice(ms)" "rebuild(ms)"
    "speedup" "splice-pw" "rebuild-pw";
  List.iter
    (fun nodes ->
      let tree = Workload.Gen_auction.document ~scale:nodes () in
      let pager = Xqp_storage.Pager.create () in
      let store = Xqp_storage.Succinct_store.of_tree ~pager tree in
      (* replace a mid-document subtree (the first person) with a fragment *)
      let doc = Document.of_tree tree in
      let victim_rank =
        match
          Xqp_xml.Symtab.find_opt (Document.symtab doc) "person"
          |> Option.map (Document.nodes_by_name doc)
        with
        | Some (p :: _) -> p
        | _ -> failwith "no person to update"
      in
      let victim_id = Document.attribute_value doc victim_rank "id" in
      let fragment = Tree.elt "person" [ Tree.leaf "name" "updated" ] in
      let victim_pos = Xqp_storage.Succinct_store.node_of_rank store victim_rank in
      let splice () = Xqp_storage.Succinct_store.replace_subtree store victim_pos fragment in
      let rebuild () =
        (* extended-relational style: re-linearize the edited document *)
        let rec edit t =
          match (t : Tree.t) with
          | Tree.Element e
            when String.equal e.Tree.name "person" && Tree.attr t "id" = victim_id ->
            fragment
          | Tree.Element e -> Tree.Element { e with children = List.map edit e.Tree.children }
          | other -> other
        in
        Xqp_storage.Succinct_store.of_tree (edit tree)
      in
      Xqp_storage.Pager.reset pager;
      ignore (splice ());
      let splice_writes = (Xqp_storage.Pager.stats pager).Xqp_storage.Pager.logical_writes in
      let t_splice = measure splice in
      let t_rebuild = measure rebuild in
      let rebuild_writes =
        (* a rebuild rewrites every page of every sequence *)
        let f = Xqp_storage.Succinct_store.footprint store in
        (Xqp_storage.Succinct_store.total_bytes f + 4095) / 4096
      in
      Printf.printf "  %-9d | %12.3f %12.3f %10.1f | %14d %14d\n" (Document.node_count doc)
        (ms t_splice) (ms t_rebuild)
        (t_rebuild /. Float.max 1e-9 t_splice)
        splice_writes rebuild_writes)
    (e6_scales scale)

(* ------------------------------------------------------------------ *)
(* E7: streaming NoK                                                   *)
(* ------------------------------------------------------------------ *)

let e7_queries = [ "//item/name"; "//person//city"; "/site/people/person/name" ]

let e7_run ~scale =
  let nodes = match scale with `Small -> 10_000 | `Full -> 60_000 in
  let tree = Workload.Gen_auction.document ~scale:nodes () in
  let source = Serializer.to_string tree in
  let doc = Document.of_string source in
  let exec = Executor.create doc in
  ignore (Executor.store exec);
  Printf.printf "  stream: %d bytes, %d nodes\n" (String.length source) (Document.node_count doc);
  Printf.printf "  %-28s %8s | %12s %14s %14s\n" "query" "results" "stream(ms)" "Kevents/s"
    "in-mem NoK(ms)";
  List.iter
    (fun q ->
      let pattern = Xqp_xpath.Parser.parse_pattern q in
      let streamed = Xqp_physical.Streaming.run_string pattern source in
      let in_memory () = run_query exec Executor.Nok q in
      if List.length streamed <> List.length (in_memory ()) then
        failwith ("E7: streaming disagrees on " ^ q);
      let t_stream = measure (fun () -> Xqp_physical.Streaming.run_string pattern source) in
      let events =
        let m = Xqp_physical.Streaming.create pattern in
        Sax.parse_string source (Xqp_physical.Streaming.feed m);
        Xqp_physical.Streaming.events_processed m
      in
      let t_mem = measure in_memory in
      Printf.printf "  %-28s %8d | %12.3f %14.1f %14.3f\n" q (List.length streamed)
        (ms t_stream)
        (float_of_int events /. t_stream /. 1000.0)
        (ms t_mem))
    e7_queries

(* ------------------------------------------------------------------ *)
(* E8: effect of logical rewriting (R1/R2 fusion)                      *)
(* ------------------------------------------------------------------ *)

let e8_run ~scale =
  let nodes = match scale with `Small -> 10_000 | `Full -> 40_000 in
  let auction = Executor.create (Workload.Gen_auction.packed ~scale:nodes ()) in
  let skewed =
    Executor.create
      (Document.of_tree
         (Workload.Gen_synthetic.skewed ~nodes ~target:"t" ~target_frequency:0.005 ()))
  in
  ignore (Executor.store auction);
  ignore (Executor.store skewed);
  let cases =
    [
      (auction, "//description//listitem//text");
      (auction, "//open_auction[bidder/increase > 20]/current");
      (auction, "/site/people/person[address/city][profile]/name");
      (skewed, "//f1//t");
      (skewed, "//f2//f1//t");
    ]
  in
  Printf.printf "  %-52s | %12s %12s %9s | %s\n" "query" "naive(ms)" "fused(ms)" "speedup"
    "chosen engine";
  List.iter
    (fun (exec, q) ->
      let doc = Executor.doc exec in
      let plan = Xqp_xpath.Parser.parse q in
      let naive_plan = Rewrite.simplify plan in
      let fused_plan = Rewrite.optimize plan in
      let context = [ Operators.document_context ] in
      let naive () = Navigation.eval_plan doc naive_plan ~context in
      let fused () =
        Executor.execute exec ~strategy:Executor.Auto ~context (Executor.Plan fused_plan)
      in
      if naive () <> fused () then failwith ("E8: rewriting changed results for " ^ q);
      let t_naive = measure naive in
      let t_fused = measure fused in
      let engine =
        match fused_plan with
        | Logical_plan.Tpm (_, pattern) ->
          Cost_model.engine_name (Cost_model.choose (Executor.statistics exec) pattern)
        | _ -> "(not fused)"
      in
      Printf.printf "  %-52s | %12.3f %12.3f %9.2f | %s\n" q (ms t_naive) (ms t_fused)
        (t_naive /. Float.max 1e-9 t_fused)
        engine)
    cases

(* ------------------------------------------------------------------ *)
(* E9: cost model / cardinality estimation accuracy                    *)
(* ------------------------------------------------------------------ *)

let e9_patterns =
  [
    "//item";
    "//item/name";
    "/site/people/person";
    "//person/address/city";
    "//open_auction/bidder";
    "//bidder/increase";
    "//description//listitem";
    "/site/categories/category/name";
    "//person[address]/name";
    "//item[location]/quantity";
    "//person/@id";
    "//interest";
  ]

let e9_run ~scale =
  let nodes = match scale with `Small -> 10_000 | `Full -> 40_000 in
  let doc = Workload.Gen_auction.packed ~scale:nodes () in
  let exec = Executor.create doc in
  let stats = Executor.statistics exec in
  Printf.printf "  %-36s %10s %12s %8s\n" "pattern" "actual" "estimated" "q-error";
  let qerrors =
    List.map
      (fun q ->
        let pattern = Xqp_xpath.Parser.parse_pattern q in
        let actual =
          match Operators.pattern_match doc pattern ~context:[ Operators.document_context ] with
          | [ (_, nodes) ] -> List.length nodes
          | several -> List.length (List.concat_map snd several)
        in
        let estimate = Statistics.estimate_result stats pattern in
        let qerr =
          if actual = 0 then if estimate < 1.0 then 1.0 else estimate
          else
            Float.max
              (estimate /. float_of_int actual)
              (float_of_int actual /. Float.max 1e-9 estimate)
        in
        Printf.printf "  %-36s %10d %12.1f %8.2f\n" q actual estimate qerr;
        qerr)
      e9_patterns
  in
  let geo_mean =
    exp
      (List.fold_left (fun acc q -> acc +. log q) 0.0 qerrors
      /. float_of_int (List.length qerrors))
  in
  Printf.printf "  geometric mean q-error: %.2f\n" geo_mean

(* ------------------------------------------------------------------ *)
(* E10: content index ablation                                         *)
(* ------------------------------------------------------------------ *)

let e10_queries =
  [
    "//item[location = \"Japan\"]/name";
    "//interest[@category = \"coins\"]";
    "//person[emailaddress = \"mailto:p10@example.com\"]/name";
  ]

let e10_run ~scale =
  let nodes = match scale with `Small -> 10_000 | `Full -> 40_000 in
  let doc = Workload.Gen_auction.packed ~scale:nodes () in
  let exec = Executor.create doc in
  let idx = Executor.content_index exec in
  Printf.printf "  document: %d nodes; index: %d entries, %d distinct values\n"
    (Document.node_count doc)
    (Content_index.indexed_count idx)
    (Content_index.distinct_values idx);
  Printf.printf "  %-48s %8s | %12s %12s %8s | %10s %10s\n" "query" "results" "no-index(ms)"
    "indexed(ms)" "speedup" "cand-plain" "cand-idx";
  List.iter
    (fun q ->
      let pattern = Xqp_xpath.Parser.parse_pattern q in
      let context = [ Operators.document_context ] in
      let plain () = Binary_join.match_pattern doc pattern ~context in
      let indexed () = Binary_join.match_pattern ~content_index:idx doc pattern ~context in
      if plain () <> indexed () then failwith ("E10: index changed results for " ^ q);
      let results = match plain () with (_, ns) :: _ -> List.length ns | [] -> 0 in
      let t_plain = measure plain in
      let t_indexed = measure indexed in
      (* nodes fed into the predicate vertex's candidate filter: the whole
         tag stream without the index vs the lookup result with it *)
      let pred_vertex =
        List.find
          (fun v -> (Pattern_graph.vertex pattern v).Pattern_graph.predicates <> [])
          (List.init (Pattern_graph.vertex_count pattern) (fun i -> i))
      in
      let stream_size =
        match (Pattern_graph.vertex pattern pred_vertex).Pattern_graph.label with
        | Pattern_graph.Tag name -> (
          match Symtab.find_opt (Document.symtab doc) name with
          | Some sym -> List.length (Document.nodes_by_name doc sym)
          | None -> 0)
        | Pattern_graph.Wildcard -> Document.element_count doc
      in
      let index_hits =
        Array.length (Binary_join.candidates ~content_index:idx doc pattern ~context pred_vertex)
      in
      Printf.printf "  %-48s %8d | %12.3f %12.3f %8.2f | %10d %10d\n" q results (ms t_plain)
        (ms t_indexed)
        (t_plain /. Float.max 1e-9 t_indexed)
        stream_size index_hits)
    e10_queries

(* ------------------------------------------------------------------ *)
(* E11: disk-resident NoK via the buffer pool                          *)
(* ------------------------------------------------------------------ *)

let e11_queries =
  [ "/site/regions/africa/item/name"; "/site/people/person[address/city][profile]/name";
    "//open_auctions/open_auction/current" ]

let e11_run ~scale =
  let nodes = match scale with `Small -> 20_000 | `Full -> 80_000 in
  let doc = Workload.Gen_auction.packed ~scale:nodes () in
  let path = Filename.temp_file "xqp_bench" ".xqdb" in
  Xqp_storage.Store_io.save (Xqp_storage.Succinct_store.of_document doc) path;
  let page_size = 4096 in
  let paged = Xqp_storage.Paged_store.open_store ~page_size ~pool_pages:64 path in
  let pool = Xqp_storage.Paged_store.pool paged in
  let total_pages =
    (Xqp_storage.Buffer_pool.file_size pool + page_size - 1) / page_size
  in
  Printf.printf "  store file: %d bytes (%d pages of %d B); directories in RAM: %d B\n"
    (Xqp_storage.Buffer_pool.file_size pool) total_pages page_size
    (Xqp_storage.Paged_store.directory_bytes paged);
  Printf.printf "  %-48s %8s | %11s %11s %11s | %10s\n" "query" "results" "cold-faults"
    "warm-faults" "file-pages" "cold(ms)";
  List.iter
    (fun q ->
      let pattern = Xqp_xpath.Parser.parse_pattern q in
      let context = [ Operators.document_context ] in
      let run () = Nok_paged.match_pattern doc paged pattern ~context in
      (* correctness check against the reference *)
      let expected = Operators.pattern_match doc pattern ~context in
      if run () <> expected then failwith ("E11: paged NoK disagrees on " ^ q);
      Xqp_storage.Buffer_pool.drop_cache pool;
      Xqp_storage.Buffer_pool.reset_stats pool;
      let t0 = Unix.gettimeofday () in
      let result = run () in
      let cold_time = Unix.gettimeofday () -. t0 in
      let cold = (Xqp_storage.Buffer_pool.stats pool).Xqp_storage.Buffer_pool.page_faults in
      Xqp_storage.Buffer_pool.reset_stats pool;
      ignore (run ());
      let warm = (Xqp_storage.Buffer_pool.stats pool).Xqp_storage.Buffer_pool.page_faults in
      let results = match result with (_, ns) :: _ -> List.length ns | [] -> 0 in
      Printf.printf "  %-48s %8d | %11d %11d %11d | %10.3f\n" q results cold warm total_pages
        (ms cold_time))
    e11_queries;
  Xqp_storage.Paged_store.close paged;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* E12: output-oriented evaluation, §6: a row limit in the NoK kernel   *)
(* ------------------------------------------------------------------ *)

let e12_cases =
  (* (label, query, rows the consumer needs, gated): a gated row must
     visit at most a tenth of the full run's nodes *)
  [
    ("exists, early hit", "//item[quantity > 1]", 1, true);
    ("exists, absolute path", "/site/people/person", 1, true);
    ("exists, late in document", "//category/name", 1, false);
    ("first 3 results", "//person/address/city", 3, false);
  ]

(* Each query compiles once (Auto, the plan Session.first/exists run) and
   runs with the limit and in full; nodes_visited is the kernel's
   [engine.nok.nodes_visited] over one run. The checks are counts, so
   they hold on any host. *)
let e12_run ~scale =
  let nodes = match scale with `Small -> 20_000 | `Full -> 80_000 in
  let doc = Workload.Gen_auction.packed ~scale:nodes () in
  let exec = Executor.create doc in
  let m_visited = Xqp_obs.Metrics.(counter default "engine.nok.nodes_visited") in
  Printf.printf "  document: %d nodes\n" (Document.node_count doc);
  Printf.printf "  %-24s %-22s %6s | %9s %9s | %11s %11s\n" "consumer" "query" "engine"
    "limit(ms)" "full(ms)" "limit-visit" "full-visit";
  let context = [ Operators.document_context ] in
  List.iter
    (fun (label, q, limit, gated) ->
      let physical = (Executor.prepare exec (Executor.Query q)).Executor.physical in
      let run ?limit () = Executor.run_physical exec ?limit physical ~context in
      let visits ?limit () =
        let before = Xqp_obs.Metrics.value m_visited in
        let result = run ?limit () in
        (result, Xqp_obs.Metrics.value m_visited - before)
      in
      let limited, limited_visits = visits ~limit () in
      let full, full_visits = visits () in
      if limited <> List.filteri (fun i _ -> i < limit) full then
        failwith ("E12: the limited run is not a prefix of the full run on " ^ q);
      if gated && (full_visits = 0 || 10 * limited_visits > full_visits) then
        failwith
          (Printf.sprintf "E12: %s visits %d nodes with limit %d against %d in full" q
             limited_visits limit full_visits);
      let t_limited = measure (fun () -> run ~limit ()) in
      let t_full = measure (fun () -> run ()) in
      let engine =
        match Physical_plan.taus physical with
        | tau :: _ -> Physical_plan.engine_label tau.Physical_plan.engine
        | [] -> "navigation"
      in
      Printf.printf "  %-24s %-22s %6s | %9.4f %9.4f | %11d %11d\n" label q engine (ms t_limited)
        (ms t_full) limited_visits full_visits)
    e12_cases

(* ------------------------------------------------------------------ *)
(* E13: FLWOR as one generalized tree pattern (§5 / [9])               *)
(* ------------------------------------------------------------------ *)

let e13_run ~scale =
  let books = match scale with `Small -> 2_000 | `Full -> 10_000 in
  let doc = Document.of_tree (Workload.Gen_bib.document ~books ()) in
  let exec = Executor.create doc in
  let query = List.assoc "F1-fig1" Workload.Queries.bib_flwor in
  let ast = Xqp_xquery.Xq_parser.parse query in
  let env_translation = Option.get (Xqp_xquery.Translate.translate ast) in
  let gtp_translation = Option.get (Xqp_xquery.Translate.translate_gtp ast) in
  let direct () = Xqp_xquery.Eval.eval exec ast in
  let via_env () = Xqp_xquery.Translate.execute exec env_translation in
  let via_gtp () = Xqp_xquery.Translate.execute_gtp exec gtp_translation in
  let to_str trees = String.concat "" (List.map Serializer.to_string trees) in
  let reference = to_str (Xqp_xquery.Eval.result_trees exec (direct ())) in
  if not (String.equal reference (to_str (via_env ()))) then failwith "E13: env path diverges";
  if not (String.equal reference (to_str (via_gtp ()))) then failwith "E13: gtp path diverges";
  let t_direct = measure direct in
  let t_env = measure via_env in
  let t_gtp = measure via_gtp in
  Printf.printf "  Fig. 1 over %d books — three evaluation strategies for one FLWOR:\n" books;
  Printf.printf "  %-44s %12s\n" "strategy" "time(ms)";
  Printf.printf "  %-44s %12.3f\n" "direct interpretation (per-binding paths)" (ms t_direct);
  Printf.printf "  %-44s %12.3f\n" "Env + gamma (per-binding paths)" (ms t_env);
  Printf.printf "  %-44s %12.3f\n" "one generalized tree pattern + gamma" (ms t_gtp);
  Printf.printf "  gtp: %s\n"
    (Format.asprintf "%a" Xqp_algebra.Gtp.pp gtp_translation.Xqp_xquery.Translate.gtp)

(* ------------------------------------------------------------------ *)
(* PRIM: prim_nav — navigation-primitive microbenchmarks               *)
(* ------------------------------------------------------------------ *)

module Sbv = Xqp_storage.Bitvector
module Sbp = Xqp_storage.Balanced_parens

(* Faithful reimplementation of the seed (pre-broadword) primitives, kept
   here as the comparison baseline: bit-by-bit block scans for find_close,
   a linear backward scan for enclose, byte-scan rank within 512-bit
   superblocks, and byte-then-bit select. *)
module Seed_prim = struct
  let block_bits = 256

  let byte_pop =
    Array.init 256 (fun b ->
        let rec count b acc = if b = 0 then acc else count (b lsr 1) (acc + (b land 1)) in
        count b 0)

  type t = { bv : Sbv.t; delta : int array; min_prefix : int array; super : int array }

  let of_bitvector bv =
    let len = Sbv.length bv in
    let nblocks = max 1 ((len + block_bits - 1) / block_bits) in
    let delta = Array.make nblocks 0 in
    let min_prefix = Array.make nblocks 0 in
    for b = 0 to ((len + block_bits - 1) / block_bits) - 1 do
      let start = b * block_bits in
      let stop = min len (start + block_bits) in
      let excess = ref 0 in
      let minimum = ref max_int in
      for i = start to stop - 1 do
        excess := !excess + (if Sbv.get bv i then 1 else -1);
        if !excess < !minimum then minimum := !excess
      done;
      delta.(b) <- !excess;
      min_prefix.(b) <- (if !minimum = max_int then 0 else !minimum)
    done;
    let nbytes = (len + 7) / 8 in
    let nsuper = ((nbytes + 63) / 64) + 1 in
    let super = Array.make nsuper 0 in
    let running = ref 0 in
    for byte = 0 to nbytes - 1 do
      if byte mod 64 = 0 then super.(byte / 64) <- !running;
      running := !running + byte_pop.(Sbv.byte bv byte)
    done;
    super.(nsuper - 1) <- !running;
    { bv; delta; min_prefix; super }

  let rank1 t i =
    if i = 0 then 0
    else begin
      let byte = i lsr 3 in
      let sb = byte / 64 in
      let acc = ref t.super.(sb) in
      for b = sb * 64 to byte - 1 do
        acc := !acc + byte_pop.(Sbv.byte t.bv b)
      done;
      let rem = i land 7 in
      if rem > 0 && byte < (Sbv.length t.bv + 7) / 8 then
        acc := !acc + byte_pop.(Sbv.byte t.bv byte land ((1 lsl rem) - 1));
      !acc
    end

  let select1 t k =
    let target = k + 1 in
    let lo = ref 0 and hi = ref (Array.length t.super - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.super.(mid) < target then lo := mid else hi := mid
    done;
    let nbytes = (Sbv.length t.bv + 7) / 8 in
    let acc = ref t.super.(!lo) in
    let byte = ref (!lo * 64) in
    while !byte < nbytes && !acc + byte_pop.(Sbv.byte t.bv !byte) < target do
      acc := !acc + byte_pop.(Sbv.byte t.bv !byte);
      incr byte
    done;
    let i = ref (!byte * 8) in
    let result = ref (-1) in
    while !result < 0 do
      if Sbv.get t.bv !i then begin
        incr acc;
        if !acc = target then result := !i
      end;
      incr i
    done;
    !result

  let find_close t pos =
    let len = Sbv.length t.bv in
    let target_block = ref ((pos / block_bits) + 1) in
    let depth = ref 1 in
    let result = ref (-1) in
    let i = ref (pos + 1) in
    let block_end = min len (!target_block * block_bits) in
    while !result < 0 && !i < block_end do
      depth := !depth + (if Sbv.get t.bv !i then 1 else -1);
      if !depth = 0 then result := !i else incr i
    done;
    if !result >= 0 then !result
    else begin
      let nblocks = Array.length t.delta in
      let b = ref !target_block in
      while !result < 0 && !b < nblocks do
        if !depth + t.min_prefix.(!b) <= 0 then begin
          let start = !b * block_bits in
          let stop = min len (start + block_bits) in
          let j = ref start in
          while !result < 0 && !j < stop do
            depth := !depth + (if Sbv.get t.bv !j then 1 else -1);
            if !depth = 0 then result := !j else incr j
          done
        end
        else begin
          depth := !depth + t.delta.(!b);
          incr b
        end
      done;
      if !result < 0 then invalid_arg "Seed_prim.find_close: unbalanced";
      !result
    end

  let enclose t pos =
    if pos = 0 then None
    else begin
      let rec scan i depth =
        if i < 0 then None
        else if Sbv.get t.bv i then
          if depth = 0 then Some i else scan (i - 1) (depth - 1)
        else scan (i - 1) (depth + 1)
      in
      scan (pos - 1) 0
    end

  let next_sibling t pos =
    let after = find_close t pos + 1 in
    if after < Sbv.length t.bv && Sbv.get t.bv after then Some after else None
end

(* Seed vs new ns per call over a fixed sample set, interleaved, with an
   accumulator so the calls are not dead code: (seed ns, new ns, median
   per-round speed-up). *)
let ns_per_op samples seed_f new_f =
  let ops = Array.length samples in
  let loop f () =
    let sink = ref 0 in
    for i = 0 to ops - 1 do
      sink := !sink + f (Array.unsafe_get samples i)
    done;
    !sink
  in
  let p = Harness.pair ~rounds:3 (loop seed_f) (loop new_f) in
  let ns (s : Harness.stat) = s.Harness.median *. 1e9 /. float_of_int ops in
  (ns p.Harness.a, ns p.Harness.b, p.Harness.speedup.Harness.median)

let prim_doc_scales scale =
  match scale with `Small -> [ 10_000; 100_000 ] | `Full -> [ 10_000; 100_000; 500_000 ]

let prim_run ~scale =
  let documents =
    List.map
      (fun nodes ->
        let tree = Workload.Gen_auction.document ~scale:nodes () in
        let bp = Sbp.of_tree tree in
        let bits = Sbp.bits bp in
        let seed = Seed_prim.of_bitvector bits in
        let n = Sbp.node_count bp in
        let len = Sbp.length bp in
        (* sample sets: pre-order-even node positions / bit positions / ranks *)
        let sample_opens count =
          let count = min count n in
          Array.init count (fun i -> Sbp.node_of_rank bp (i * n / count))
        in
        let opens_nav = sample_opens 500 in
        let opens_parent = sample_opens 200 in
        let rank_positions = Array.init 1000 (fun i -> i * len / 1000) in
        let select_ranks = Array.init 1000 (fun i -> i * n / 1000) in
        let opt_pos = function Some p -> p | None -> 0 in
        let seed_enclose p = opt_pos (Seed_prim.enclose seed p) in
        let new_enclose p = opt_pos (Sbp.enclose bp p) in
        let rows =
          [
            ("find_close", ns_per_op opens_nav (Seed_prim.find_close seed) (Sbp.find_close bp));
            ("parent", ns_per_op opens_parent seed_enclose new_enclose);
            ( "next_sibling",
              ns_per_op opens_nav
                (fun p -> opt_pos (Seed_prim.next_sibling seed p))
                (fun p -> opt_pos (Sbp.next_sibling bp p)) );
            ("rank", ns_per_op rank_positions (Seed_prim.rank1 seed) (Sbv.rank1 bits));
            ("select", ns_per_op select_ranks (Seed_prim.select1 seed) (Sbv.select1 bits));
          ]
        in
        (* position sweep: enclose near the start vs near the end of the
           document — the seed baseline degrades linearly, the RMM
           directory must not *)
        let early = sample_opens 1000 in
        let early = Array.sub early 1 (min 100 (Array.length early - 1)) in
        let late =
          Array.init 100 (fun i -> Sbp.node_of_rank bp (n - 1 - (i * min 1000 (n / 2) / 100)))
        in
        let seed_early, new_early, _ = ns_per_op early seed_enclose new_enclose in
        let seed_late, new_late, _ = ns_per_op late seed_enclose new_enclose in
        Printf.printf "  document: %d nodes (%d parens)\n" n len;
        Printf.printf "  %-14s %14s %14s %10s\n" "primitive" "seed(ns/op)" "new(ns/op)" "speedup";
        List.iter
          (fun (name, (s, w, x)) -> Printf.printf "  %-14s %14.1f %14.1f %9.1fx\n" name s w x)
          rows;
        Printf.printf "  %-14s %14.1f %14.1f   (seed: early vs late nodes)\n" "enclose-sweep"
          seed_early seed_late;
        Printf.printf "  %-14s %14.1f %14.1f   (new: early vs late nodes)\n" "" new_early new_late;
        J.Obj
          [
            ("nodes", jint n);
            ("parens_bits", jint len);
            ( "primitives",
              J.Arr
                (List.map
                   (fun (name, (s, w, x)) ->
                     J.Obj
                       [
                         ("name", J.Str name);
                         ("seed_ns", J.Num s);
                         ("new_ns", J.Num w);
                         ("speedup", J.Num x);
                       ])
                   rows) );
            ( "enclose_position_sweep",
              J.Obj
                [
                  ("seed_early_ns", J.Num seed_early);
                  ("seed_late_ns", J.Num seed_late);
                  ("new_early_ns", J.Num new_early);
                  ("new_late_ns", J.Num new_late);
                ] );
          ])
      (prim_doc_scales scale)
  in
  { Harness.gates = []; fields = [ ("unit", J.Str "ns/op"); ("documents", J.Arr documents) ] }

(* ------------------------------------------------------------------ *)
(* QMET: per-query metrics — time and operator spans                   *)
(* ------------------------------------------------------------------ *)

(* One run of every workload XPath query with tracing on: per-operator
   rows from the profiler, into BENCH_query_metrics.json. *)
let qmet_run ~scale =
  let doc_scale = match scale with `Small -> 100_000 | `Full -> 300_000 in
  let doc = Workload.Gen_auction.packed ~scale:doc_scale () in
  let exec = Executor.create doc in
  let context = [ Operators.document_context ] in
  let queries = Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep in
  Printf.printf "  %-4s %-10s %8s %10s\n" "id" "engine" "results" "time(ms)";
  let query_objs =
    List.map
      (fun (q : Workload.Queries.query) ->
        let optimized = Rewrite.optimize (Xqp_xpath.Parser.parse q.Workload.Queries.xpath) in
        (* timing without tracing *)
        let time_ms =
          ms (measure (fun () -> Executor.execute exec ~context (Executor.Plan optimized)))
        in
        (* one traced run for the per-operator rows *)
        let result, rows = Profile.analyze exec optimized ~context in
        let engine =
          match List.find_map (fun (r : Profile.row) -> r.Profile.engine) rows with
          | Some e -> e
          | None -> "navigation"
        in
        Printf.printf "  %-4s %-10s %8d %10.3f\n" q.Workload.Queries.id engine
          (List.length result) time_ms;
        J.Obj
          [
            ("id", J.Str q.Workload.Queries.id);
            ("xpath", J.Str q.Workload.Queries.xpath);
            ("engine", J.Str engine);
            ("results", J.Num (float_of_int (List.length result)));
            ("time_ms", J.Num time_ms);
            ("operators", J.Arr (List.map Xqp_obs.Op_row.to_json rows));
          ])
      queries
  in
  {
    Harness.gates = [];
    fields =
      [
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale)); ("queries", J.Arr query_objs);
      ];
  }

(* ------------------------------------------------------------------ *)
(* PCACHE: plan-cache amortization                                     *)
(* ------------------------------------------------------------------ *)

(* Run every workload query once cold (a fresh executor means fresh
   cache keys, so each compiles and misses), then several warm rounds
   that should all hit, and compare per-query latency against
   [~use_cache:false] — the full parse → rewrite → cost → compile
   pipeline on every call. Results go to BENCH_plan_cache.json. *)
(* 10 warm rounds put the one unavoidable cold miss per query well past
   the 0.9 hit-rate bar: 10/(10+1) ≈ 0.909, and any stray re-compile
   during the warm phase drags the rate below it. *)
let pcache_warm_rounds = 10

let pcache_run ~scale =
  let module M = Xqp_obs.Metrics in
  let doc_scale = match scale with `Small -> 100_000 | `Full -> 300_000 in
  let doc = Workload.Gen_auction.packed ~scale:doc_scale () in
  let exec = Executor.create doc in
  ignore (Executor.store exec);
  let queries = Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep in
  let xpaths = List.map (fun (q : Workload.Queries.query) -> q.Workload.Queries.xpath) queries in
  let hits = M.counter M.default "plan_cache.hits" in
  let misses = M.counter M.default "plan_cache.misses" in
  let h0 = M.value hits and m0 = M.value misses in
  (* cold round: one compile-and-miss per query *)
  List.iter (fun q -> ignore (Executor.execute exec (Executor.Query q))) xpaths;
  let cold_misses = M.value misses - m0 in
  (* warm rounds: repeated workload execution should only hit *)
  for _ = 1 to pcache_warm_rounds do
    List.iter (fun q -> ignore (Executor.execute exec (Executor.Query q))) xpaths
  done;
  let total_hits = M.value hits - h0 in
  let total_misses = M.value misses - m0 in
  let hit_rate = float_of_int total_hits /. float_of_int (total_hits + total_misses) in
  Printf.printf "  %-6s %-40s %12s %14s %8s\n" "id" "xpath" "cached(ms)" "no-cache(ms)" "speedup";
  let query_objs =
    List.map
      (fun (q : Workload.Queries.query) ->
        let xpath = q.Workload.Queries.xpath in
        (* both sides run the identical query; ~use_cache:false bypasses
           the cache entirely (no lookup, no metrics) *)
        let cached = Executor.execute exec (Executor.Query xpath) in
        let uncached = Executor.execute exec ~use_cache:false (Executor.Query xpath) in
        if cached <> uncached then
          failwith (Printf.sprintf "PCACHE: cached plan disagrees on %s" xpath);
        let t_cached = ms (measure (fun () -> Executor.execute exec (Executor.Query xpath))) in
        let t_uncached =
          ms (measure (fun () -> Executor.execute exec ~use_cache:false (Executor.Query xpath)))
        in
        Printf.printf "  %-6s %-40s %12.3f %14.3f %7.2fx\n" q.Workload.Queries.id xpath t_cached
          t_uncached
          (t_uncached /. t_cached);
        J.Obj
          [
            ("id", J.Str q.Workload.Queries.id);
            ("xpath", J.Str xpath);
            ("results", J.Num (float_of_int (List.length cached)));
            ("cached_ms", J.Num t_cached);
            ("no_cache_ms", J.Num t_uncached);
          ])
      queries
  in
  let mean sel =
    List.fold_left (fun acc o -> acc +. sel o) 0.0 query_objs
    /. float_of_int (List.length query_objs)
  in
  let num field o =
    match o with
    | J.Obj fields -> ( match List.assoc field fields with J.Num n -> n | _ -> 0.0)
    | _ -> 0.0
  in
  let mean_cached = mean (num "cached_ms") and mean_uncached = mean (num "no_cache_ms") in
  Printf.printf "  hit rate: %d/%d = %.3f  (cold misses: %d, warm rounds: %d)\n" total_hits
    (total_hits + total_misses) hit_rate cold_misses pcache_warm_rounds;
  Printf.printf "  mean latency: cached %.3f ms, no-cache %.3f ms\n" mean_cached mean_uncached;
  {
    Harness.gates = [ Harness.at_least "warm_hit_rate" ~bound:0.9 hit_rate ];
    fields =
      [
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("warm_rounds", jint pcache_warm_rounds);
        ("hits", jint total_hits);
        ("misses", jint total_misses);
        ("hit_rate", J.Num hit_rate);
        ("mean_cached_ms", J.Num mean_cached);
        ("mean_no_cache_ms", J.Num mean_uncached);
        ("queries", J.Arr query_objs);
      ];
  }

(* ------------------------------------------------------------------ *)
(* PSUM: path-summary synopsis                                         *)
(* ------------------------------------------------------------------ *)

(* Three claims, one experiment: (a) summary-sourced estimates beat the
   legacy tag-pair statistics on q-error across the workload; (b) a query
   whose pattern has an empty path set compiles to [Empty] and is
   answered without any pager I/O; (c) descendant navigation with
   summary skip-ahead visits far fewer nodes for the same answer.
   Results go to BENCH_path_summary.json. *)

(* items never occur under people: provably empty from the summary *)
let psum_empty_query = "/site/people/item"

(* deep // chain whose tags live under few subtrees: skip-heavy *)
let psum_skip_query = "//description//listitem//text"

let psum_run ~scale =
  let module M = Xqp_obs.Metrics in
  let doc_scale = match scale with `Small -> 600 | `Full -> 3000 in
  let doc = Workload.Gen_auction.packed ~scale:doc_scale () in
  let exec = Executor.create doc in
  let stats = Executor.statistics exec in
  let ctx = [ Operators.document_context ] in
  (* --- (a) q-error, legacy statistics vs path summary --------------- *)
  let queries = Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep in
  Printf.printf "  %-6s %10s %10s %8s %10s %10s\n" "id" "est-old" "est-new" "actual" "q-old"
    "q-new";
  let qrows =
    List.map
      (fun (q : Workload.Queries.query) ->
        let xpath = q.Workload.Queries.xpath in
        let optimized = Rewrite.optimize (Xqp_xpath.Parser.parse xpath) in
        let est_old = Cost_model.estimate_plan stats ~use_summary:false optimized in
        let est_new, src = Cost_model.estimate_plan_detail stats optimized in
        let actual = List.length (Executor.execute exec ~context:ctx (Executor.Plan optimized)) in
        let q_of est =
          let e = Float.max 1.0 est and a = Float.max 1.0 (float_of_int actual) in
          Float.max (e /. a) (a /. e)
        in
        let q_old = q_of est_old and q_new = q_of est_new in
        Printf.printf "  %-6s %10.1f %10.1f %8d %10.2f %10.2f\n" q.Workload.Queries.id est_old
          est_new actual q_old q_new;
        J.Obj
          [
            ("id", J.Str q.Workload.Queries.id);
            ("xpath", J.Str xpath);
            ("actual", J.Num (float_of_int actual));
            ("est_legacy", J.Num est_old);
            ("est_summary", J.Num est_new);
            ("q_error_legacy", J.Num q_old);
            ("q_error_summary", J.Num q_new);
            ("source", J.Str (Statistics.source_label src));
          ])
      queries
  in
  let fold sel init f =
    List.fold_left
      (fun acc o ->
        match o with
        | J.Obj fields -> (
          match List.assoc sel fields with J.Num n -> f acc n | _ -> acc)
        | _ -> acc)
      init qrows
  in
  let worst_old = fold "q_error_legacy" 1.0 Float.max in
  let worst_new = fold "q_error_summary" 1.0 Float.max in
  Printf.printf "  worst q-error: legacy %.2f -> summary %.2f\n" worst_old worst_new;
  (* --- (b) plan-time pruning: no pager I/O for an empty path set ---- *)
  let pager = Xqp_storage.Pager.create () in
  let pexec = Executor.create ~pager doc in
  ignore (Executor.store pexec);
  let physical = (Executor.prepare pexec (Executor.Query psum_empty_query)).Executor.physical in
  let compiled_empty =
    match physical.Physical_plan.op with Physical_plan.Empty _ -> true | _ -> false
  in
  let m_reads = M.counter M.default "pager.logical_reads" in
  let r0 = M.value m_reads in
  let res = Executor.run_physical pexec physical ~context:ctx in
  let pruned_reads = M.value m_reads - r0 in
  if res <> [] then failwith "PSUM: pruned query returned nodes";
  let t_pruned =
    ms (measure (fun () -> Executor.execute pexec (Executor.Query psum_empty_query)))
  in
  Printf.printf "  pruned %-28s %.4f ms, pager reads: %d (plan: Empty)\n" psum_empty_query
    t_pruned pruned_reads;
  (* --- (c) skip-ahead navigation ------------------------------------ *)
  let hints = Navigation.make_hints doc (Statistics.summary stats) in
  let plan = Rewrite.simplify (Xqp_xpath.Parser.parse psum_skip_query) in
  let without () = Navigation.eval_plan_with_stats doc plan ~context:ctx in
  let with_h () = Navigation.eval_plan_with_stats ~hints doc plan ~context:ctx in
  let m_skip = M.counter M.default "engine.navigation.skipped_subtrees" in
  let s0 = M.value m_skip in
  let r_with, st_with = with_h () in
  let skipped = M.value m_skip - s0 in
  let r_without, st_without = without () in
  if r_with <> r_without then failwith "PSUM: hinted navigation diverges";
  let t_without = ms (measure (fun () -> fst (without ()))) in
  let t_with = ms (measure (fun () -> fst (with_h ()))) in
  Printf.printf
    "  skip   %-28s %.3f ms -> %.3f ms (%.2fx), visited %d -> %d, %d subtrees skipped\n"
    psum_skip_query t_without t_with
    (t_without /. Float.max 1e-9 t_with)
    st_without.Navigation.nodes_visited st_with.Navigation.nodes_visited skipped;
  {
    Harness.gates =
      [
        Harness.at_most "worst_q_error_summary" ~bound:worst_old worst_new;
        Harness.holds "empty_path_compiles_to_empty" compiled_empty;
        Harness.at_most "pruned_pager_reads" ~bound:0.0 (float_of_int pruned_reads);
        Harness.at_least "skipped_subtrees" ~bound:1.0 (float_of_int skipped);
      ];
    fields =
      [
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("worst_q_error_legacy", J.Num worst_old);
        ("worst_q_error_summary", J.Num worst_new);
        ("queries", J.Arr qrows);
        ( "pruned",
          J.Obj
            [
              ("query", J.Str psum_empty_query);
              ("pager_logical_reads", J.Num (float_of_int pruned_reads));
              ("latency_ms", J.Num t_pruned);
            ] );
        ( "skip_ahead",
          J.Obj
            [
              ("query", J.Str psum_skip_query);
              ("no_hints_ms", J.Num t_without);
              ("hints_ms", J.Num t_with);
              ("speedup", J.Num (t_without /. Float.max 1e-9 t_with));
              ("nodes_visited_no_hints", J.Num (float_of_int st_without.Navigation.nodes_visited));
              ("nodes_visited_hints", J.Num (float_of_int st_with.Navigation.nodes_visited));
              ("skipped_subtrees", J.Num (float_of_int skipped));
            ] );
      ];
  }

(* ------------------------------------------------------------------ *)
(* DSAFE: domain-safety machinery overhead and shard contention        *)
(* ------------------------------------------------------------------ *)

(* The domain-safe structures (atomic metric counters, mutex-sharded
   plan cache, Dsan guards) must be near-free on the single-domain path.
   Three measurements, written to BENCH_domain_safety.json:
   (a) the primitive price: plain mutable-int increment vs
       Atomic.fetch_and_add;
   (b) single-domain overhead: that price times the counter increments a
       warm workload round actually performs, as a fraction of the
       round's wall time — gated at ≤ 2% — plus the warm round timed
       with the sanitizer off vs on;
   (c) the contention curve: 4 domains hammering the shared cache at 1,
       2, 4 and 8 shards. *)

type plain_counter = { mutable pc : int }

let dsafe_plain_incr_ns () =
  let p = { pc = 0 } in
  let n = 5_000_000 in
  let t =
    measure (fun () ->
        for _ = 1 to n do
          p.pc <- p.pc + 1
        done;
        Sys.opaque_identity p.pc)
  in
  t /. float_of_int n *. 1e9

let dsafe_atomic_incr_ns () =
  let a = Atomic.make 0 in
  let n = 5_000_000 in
  let t =
    measure (fun () ->
        for _ = 1 to n do
          ignore (Atomic.fetch_and_add a 1)
        done;
        Sys.opaque_identity (Atomic.get a))
  in
  t /. float_of_int n *. 1e9

let dsafe_contention ~shards ~domains ~ops =
  let cache : int Plan_cache.t = Plan_cache.create ~capacity:256 ~shards () in
  let key i =
    {
      Plan_cache.query = Printf.sprintf "//q[%d]" i;
      optimize = false;
      strategy = "auto";
      doc_id = 1;
      stats_version = 0;
    }
  in
  let universe = 512 in
  let ds =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for round = 1 to ops do
              let i = (round * (d + 13)) mod universe in
              match Plan_cache.find cache (key i) with
              | Some _ -> ()
              | None -> Plan_cache.add cache (key i) i
            done))
  in
  Array.iter Domain.join ds

let dsafe_run ~scale =
  let module M = Xqp_obs.Metrics in
  let doc_scale = match scale with `Small -> 600 | `Full -> 3000 in
  let doc = Workload.Gen_auction.packed ~scale:doc_scale () in
  let exec = Executor.create doc in
  ignore (Executor.store exec);
  let xpaths =
    List.map
      (fun (q : Workload.Queries.query) -> q.Workload.Queries.xpath)
      (Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep)
  in
  let round () = List.iter (fun q -> ignore (Executor.execute exec (Executor.Query q))) xpaths in
  round ();
  (* warm the plan cache *)
  (* (a) primitive price of the atomic counters *)
  let plain_ns = dsafe_plain_incr_ns () in
  let atomic_ns = dsafe_atomic_incr_ns () in
  Printf.printf "  counter increment: plain %.2f ns, atomic %.2f ns\n" plain_ns atomic_ns;
  (* (b) how many counter increments one warm round performs *)
  let count_events () =
    List.fold_left
      (fun acc (_, r) -> match r with M.Counter_v v -> acc + v | _ -> acc)
      0 (M.snapshot M.default)
  in
  let e0 = count_events () in
  round ();
  let increments = count_events () - e0 in
  let warm_s = measure round in
  let machinery_s = float_of_int increments *. Float.max 0.0 (atomic_ns -. plain_ns) *. 1e-9 in
  let overhead_pct = 100.0 *. machinery_s /. warm_s in
  Printf.printf
    "  warm workload round: %.3f ms, %d counter increments -> atomic machinery %.4f ms \
     (%.3f%% of round)\n"
    (ms warm_s) increments (ms machinery_s) overhead_pct;
  let saved = Xqp_obs.Dsan.enabled () in
  Xqp_obs.Dsan.set_enabled false;
  let t_off = measure round in
  Xqp_obs.Dsan.set_enabled true;
  let t_on = measure round in
  Xqp_obs.Dsan.set_enabled saved;
  let dsan_pct = 100.0 *. (t_on -. t_off) /. t_off in
  Printf.printf "  sanitizer: off %.3f ms, on %.3f ms (%+.2f%%)\n" (ms t_off) (ms t_on) dsan_pct;
  (* (c) shard contention: fixed op count per domain, varying shards *)
  let domains = 4 in
  let ops = match scale with `Small -> 30_000 | `Full -> 120_000 in
  Printf.printf "  contention (%d domains x %d cache ops):\n" domains ops;
  let curve =
    List.map
      (fun shards ->
        let elapsed = measure (fun () -> dsafe_contention ~shards ~domains ~ops) in
        let mops = float_of_int (domains * ops) /. elapsed /. 1e6 in
        Printf.printf "    %d shard%s %10.3f ms  %8.2f Mops/s\n" shards
          (if shards = 1 then ": " else "s:")
          (ms elapsed) mops;
        J.Obj
          [
            ("shards", J.Num (float_of_int shards));
            ("elapsed_ms", J.Num (ms elapsed));
            ("mops_per_s", J.Num mops);
          ])
      [ 1; 2; 4; 8 ]
  in
  {
    Harness.gates = [ Harness.at_most "single_domain_overhead_pct" ~bound:2.0 overhead_pct ];
    fields =
      [
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("plain_incr_ns", J.Num plain_ns);
        ("atomic_incr_ns", J.Num atomic_ns);
        ("counter_increments_per_round", J.Num (float_of_int increments));
        ("warm_round_ms", J.Num (ms warm_s));
        ("single_domain_overhead_pct", J.Num overhead_pct);
        ("dsan_off_ms", J.Num (ms t_off));
        ("dsan_on_ms", J.Num (ms t_on));
        ("dsan_overhead_pct", J.Num dsan_pct);
        ("contention_domains", J.Num (float_of_int domains));
        ("contention", J.Arr curve);
      ];
  }

(* ------------------------------------------------------------------ *)
(* SERVE: multicore query server throughput and latency                *)
(* ------------------------------------------------------------------ *)

(* End-to-end over loopback HTTP: in-process servers on 1/2/4 worker
   domains, swept over client counts; each client domain replays the
   workload queries back to back. Reports QPS and p50/p99 latency per
   configuration, written to BENCH_serve.json. The scaling gate pairs
   the 1- and 4-domain servers at 8 clients. *)

let serve_http_get ~port ~path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let request =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n" path
      in
      let bytes = Bytes.of_string request in
      let rec send off =
        if off < Bytes.length bytes then
          send (off + Unix.write fd bytes off (Bytes.length bytes - off))
      in
      send 0;
      let chunk = Bytes.create 8192 in
      let buf = Buffer.create 1024 in
      let rec recv () =
        let n = try Unix.read fd chunk 0 8192 with Unix.Unix_error _ -> 0 in
        if n > 0 then (
          Buffer.add_subbytes buf chunk 0 n;
          recv ())
      in
      recv ();
      Buffer.contents buf)

let serve_url_encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

(* One batch: [clients] client domains replay the paths back to back,
   [requests_per_client] requests each. Latencies (ms) go to [latencies],
   non-200 replies to [errors]. *)
let serve_batch ~port ~paths ~clients ~requests_per_client ~latencies ~errors () =
  let n_paths = Array.length paths in
  let client_domains =
    Array.init clients (fun c ->
        Domain.spawn (fun () ->
            let lat = Array.make requests_per_client 0.0 in
            let failed = ref 0 in
            for i = 0 to requests_per_client - 1 do
              let path = paths.((c + (i * clients)) mod n_paths) in
              let s0 = Unix.gettimeofday () in
              let raw = serve_http_get ~port ~path in
              lat.(i) <- (Unix.gettimeofday () -. s0) *. 1000.0;
              if not (String.length raw > 12 && String.sub raw 9 3 = "200") then incr failed
            done;
            (lat, !failed)))
  in
  Array.iter
    (fun d ->
      let lat, failed = Domain.join d in
      latencies := lat :: !latencies;
      errors := !errors + failed)
    client_domains

(* SERVE's and CORPUS's scaling gate: 4 domains must reach 0.75 x min(4,
   cores) x one domain's throughput — near-linear where the host has the
   cores (3x on a 4-core box), no regression where it has 2. One core
   cannot show scaling, so the gate needs 2. *)
let scaling_gate speedup =
  let cores = Domain.recommended_domain_count () in
  Harness.at_least ~cores:2 "speedup_4_domains" ~bound:(0.75 *. float_of_int (min 4 cores)) speedup

let serve_run ~scale =
  let doc_scale = match scale with `Small -> 300 | `Full -> 600 in
  let requests_per_client = match scale with `Small -> 25 | `Full -> 60 in
  let doc = Workload.Gen_auction.packed ~scale:doc_scale () in
  let session = Xqp.Session.of_document doc in
  let paths =
    Array.of_list
      (List.map
         (fun (q : Workload.Queries.query) ->
           Printf.sprintf "/query?q=%s" (serve_url_encode q.Workload.Queries.xpath))
         Workload.Queries.auction_paths)
  in
  Printf.printf "  document auction:%d, %d queries, %d requests/client\n" doc_scale
    (Array.length paths) requests_per_client;
  Printf.printf "  %-8s %8s %10s %9s %9s\n" "domains" "clients" "qps" "p50 ms" "p99 ms";
  (* only the servers a measurement uses are up while it runs *)
  let with_server domains f =
    let config = { Xqp.Server.default_config with Xqp.Server.domains; queue_depth = 4096 } in
    let server = Xqp.Server.start ~config session in
    Fun.protect ~finally:(fun () -> Xqp.Server.stop server) (fun () -> f (Xqp.Server.port server))
  in
  let errors = ref 0 in
  let batch ~port ~clients latencies =
    serve_batch ~port ~paths ~clients ~requests_per_client ~latencies ~errors
  in
  let cells =
    List.concat_map
      (fun domains ->
        with_server domains @@ fun port ->
        List.map
          (fun clients ->
            let latencies = ref [] in
            let t = measure (batch ~port ~clients latencies) in
            let qps = float_of_int (clients * requests_per_client) /. t in
            let all = Array.concat !latencies in
            let p50 = Harness.quantile all 0.50 and p99 = Harness.quantile all 0.99 in
            Printf.printf "  %-8d %8d %10.0f %9.3f %9.3f\n%!" domains clients qps p50 p99;
            (domains, clients, qps, p50, p99))
          [ 1; 2; 4; 8 ])
      [ 1; 2; 4 ]
  in
  let best_qps ~domains =
    List.fold_left
      (fun acc (d, _, qps, _, _) -> if d = domains then Float.max acc qps else acc)
      0.0 cells
  in
  (* the gate: the busiest client count at 1 vs 4 domains, interleaved *)
  let scaling =
    with_server 1 @@ fun port1 ->
    with_server 4 @@ fun port4 ->
    Harness.pair ~rounds:5
      (batch ~port:port1 ~clients:8 (ref []))
      (batch ~port:port4 ~clients:8 (ref []))
  in
  let speedup = scaling.Harness.speedup in
  Printf.printf "  scaling at 8 clients, 4 vs 1 domain: %.2fx (quartiles %.2f-%.2f, %d pairs)\n"
    speedup.Harness.median speedup.Harness.q1 speedup.Harness.q3 speedup.Harness.runs;
  {
    Harness.gates =
      [
        Harness.at_most "non_200_responses" ~bound:0.0 (float_of_int !errors);
        scaling_gate speedup.Harness.median;
      ];
    fields =
      [
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("requests_per_client", jint requests_per_client);
        ( "cells",
          J.Arr
            (List.map
               (fun (domains, clients, qps, p50, p99) ->
                 J.Obj
                   [
                     ("domains", jint domains);
                     ("clients", jint clients);
                     ("qps", J.Num qps);
                     ("p50_ms", J.Num p50);
                     ("p99_ms", J.Num p99);
                   ])
               cells) );
        ("best_qps_1_domain", J.Num (best_qps ~domains:1));
        ("best_qps_4_domains", J.Num (best_qps ~domains:4));
        ("speedup_4_domains", Harness.stat_json speedup);
      ];
  }

(* ------------------------------------------------------------------ *)
(* ENCODE: XPath replies written straight from the document            *)
(* ------------------------------------------------------------------ *)

(* The served mix of perfbench's serve_warm (auction:300000, the 13
   queries of auction_paths and auction_complexity_sweep; about 3.3 MB
   of replies per pass), encoded two ways. The reference is the encoder
   the reply path used to have: a Tree.t per result node
   (Document.to_tree), rendered to a string (Serializer.to_string), the
   strings wrapped in a Json.t object and printed. The current encoder
   is Response.write into a server worker's kept reply sink
   (Server.new_reply, Server.clear_reply after each reply). Both must
   produce the same bytes; the gate asks the current encoder for a 3x
   speed-up over the mix. Minor and major-heap words per pass are
   recorded for both. Writes BENCH_encode.json. *)

let encode_scale = 300_000
let encode_gate = 3.0

let encode_reference session ~query (r : Xqp.Session.query_result) =
  let doc = Xqp.Session.document session in
  let item id =
    match Document.kind doc id with
    | Document.Attribute ->
      Printf.sprintf "@%s=\"%s\"" (Document.name doc id) (Document.content doc id)
    | Document.Text -> Document.content doc id
    | _ -> Serializer.to_string (Document.to_tree doc id)
  in
  let round3 ms = Float.round (ms *. 1000.0) /. 1000.0 in
  J.to_string
    (J.Obj
       [
         ("query", J.Str query);
         ("mode", J.Str "xpath");
         ("status", J.Str "ok");
         ("results", J.Arr (List.map (fun id -> J.Str (item id)) r.Xqp.Session.nodes));
         ("count", J.Num (float_of_int (List.length r.Xqp.Session.nodes)));
         ("engine", J.Str r.Xqp.Session.engine);
         ("cache", J.Str (Executor.cache_status_label r.Xqp.Session.cache));
         ("time_ms", J.Num (round3 r.Xqp.Session.time_ms));
       ])

(* Encode as a worker does, into its kept sink. *)
let encode_current sink session ~query r =
  Xqp.Server.clear_reply sink;
  Xqp.Response.write sink (Xqp.Response.of_query_result session ~query r)

(* Words one call of [f] allocates: in the minor heap, and straight in
   the major heap (large blocks; promotions are not counted twice). *)
let alloc_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  (Float.round (minor1 -. minor0), Float.round (major1 -. major0 -. (promoted1 -. promoted0)))

let encode_run ~scale:_ =
  let session = Xqp.Session.of_document (Workload.Gen_auction.packed ~scale:encode_scale ()) in
  let mix =
    List.map
      (fun (q : Workload.Queries.query) ->
        let xpath = q.Workload.Queries.xpath in
        (q.Workload.Queries.id, xpath, Result.get_ok (Xqp.Session.run session xpath)))
      (Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep)
  in
  let sink = Xqp.Server.new_reply () in
  let bytes =
    List.map
      (fun (id, query, r) ->
        let reference = encode_reference session ~query r in
        encode_current sink session ~query r;
        if Sink.contents sink <> reference then
          failwith (Printf.sprintf "ENCODE: %s: reply differs from the reference encoder" id);
        String.length reference)
      mix
  in
  (* whole-mix passes, reference and current interleaved *)
  let pass encode () = List.iter (fun (_, query, r) -> encode ~query r) mix in
  let reference_pass =
    pass (fun ~query r -> ignore (Sys.opaque_identity (encode_reference session ~query r)))
  in
  let current_pass = pass (encode_current sink session) in
  let p = Harness.pair ~rounds:7 reference_pass current_pass in
  (* after the timed passes, so the sink is as warm as a worker's *)
  let ref_minor, ref_major = alloc_words reference_pass in
  let cur_minor, cur_major = alloc_words current_pass in
  let per_query w = w /. float_of_int (List.length mix) in
  let reference_ms = ms p.Harness.a.Harness.median in
  let current_ms = ms p.Harness.b.Harness.median in
  let speedup = p.Harness.speedup in
  let total_bytes = List.fold_left ( + ) 0 bytes in
  Printf.printf "  auction:%d, %d queries, %d reply bytes per pass (identical both ways)\n"
    encode_scale (List.length mix) total_bytes;
  Printf.printf "  reference (to_tree + to_string + Json.t): %8.2f ms/pass\n" reference_ms;
  Printf.printf "  current (Response.write, a worker's sink): %8.2f ms/pass\n" current_ms;
  Printf.printf "  words per pass, minor/major: reference %.0f/%.0f, current %.0f/%.0f (%.0f per query)\n"
    ref_minor ref_major cur_minor cur_major (per_query (cur_minor +. cur_major));
  Printf.printf "  speed-up %.2fx (quartiles %.2f-%.2f over %d interleaved pairs)\n"
    speedup.Harness.median speedup.Harness.q1 speedup.Harness.q3 speedup.Harness.runs;
  {
    Harness.gates = [ Harness.at_least "speedup" ~bound:encode_gate speedup.Harness.median ];
    fields =
      [
        ("document", J.Str (Printf.sprintf "auction:%d" encode_scale));
        ("queries", jint (List.length mix));
        ("bytes_per_pass", jint total_bytes);
        ("reference_ms", J.Num reference_ms);
        ("current_ms", J.Num current_ms);
        ("speedup", Harness.stat_json speedup);
        ( "words_per_pass",
          J.Obj
            [
              ("reference", J.Obj [ ("minor", J.Num ref_minor); ("major", J.Num ref_major) ]);
              ("current", J.Obj [ ("minor", J.Num cur_minor); ("major", J.Num cur_major) ]);
            ] );
        ("current_words_per_query", J.Num (per_query (cur_minor +. cur_major)));
        ( "replies",
          J.Arr
            (List.map2
               (fun (id, _, (r : Xqp.Session.query_result)) b ->
                 J.Obj
                   [
                     ("id", J.Str id);
                     ("rows", J.Num (float_of_int (List.length r.Xqp.Session.nodes)));
                     ("bytes", J.Num (float_of_int b));
                   ])
               mix bytes) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* ENGINE: Auto's binding against every engine at 324k nodes            *)
(* ------------------------------------------------------------------ *)

(* The served document of perfbench's serve_warm (auction:300000, seed
   1: 323,942 nodes) and its 13 queries, each run warm through
   Session.run on Auto and on every engine Auto can bind, the median of
   the harness's rounds. The
   gate: Auto's total is at most 1.15x the total of the fastest engine
   per query. Auto's bindings before this run are read from the
   BENCH_engine.json being replaced (the committed baseline), so the file
   records the choice before and after a change to the cost model.
   Writes BENCH_engine.json. *)

let engine_scale = 300_000
let engine_seed = 1
let engine_gate = 1.15

let engine_strategies =
  Executor.[ Navigation; Nok; Twigstack; Binary_default ]

let engine_ms session ~engine xpath =
  let run () =
    match Xqp.Session.run ~engine session xpath with
    | Ok r -> r
    | Error e -> failwith ("ENGINE: " ^ xpath ^ ": " ^ Xqp.Error.message e)
  in
  let first = run () in
  (first, ms (measure run))

(* Auto's binding per query id in the file this run replaces. *)
let engine_baseline () =
  match In_channel.with_open_bin "BENCH_engine.json" In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
    match J.member "queries" (J.parse text) with
    | Some (J.Arr rows) ->
      List.filter_map
        (fun row ->
          match (J.member "id" row, J.member "auto" row) with
          | Some (J.Str id), Some (J.Str engine) -> Some (id, engine)
          | _ -> None)
        rows
    | _ -> [])

let engine_run ~scale:_ =
  let before = engine_baseline () in
  let doc = Workload.Gen_auction.packed ~seed:engine_seed ~scale:engine_scale () in
  let session = Xqp.Session.of_document doc in
  let rows =
    List.map
      (fun (q : Workload.Queries.query) ->
        let xpath = q.Workload.Queries.xpath in
        let auto, auto_ms = engine_ms session ~engine:Executor.Auto xpath in
        let per_engine =
          List.map
            (fun engine ->
              let r, t = engine_ms session ~engine xpath in
              if r.Xqp.Session.nodes <> auto.Xqp.Session.nodes then
                failwith
                  (Printf.sprintf "ENGINE: %s: %s disagrees with auto" q.Workload.Queries.id
                     (Executor.strategy_name engine));
              (Executor.strategy_name engine, t))
            engine_strategies
        in
        let best_engine, best_ms =
          List.fold_left
            (fun (be, bt) (e, t) -> if t < bt then (e, t) else (be, bt))
            (List.hd per_engine) (List.tl per_engine)
        in
        (q, auto.Xqp.Session.engine, auto_ms, per_engine, best_engine, best_ms))
      (Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep)
  in
  let auto_total = List.fold_left (fun acc (_, _, t, _, _, _) -> acc +. t) 0.0 rows in
  let best_total = List.fold_left (fun acc (_, _, _, _, _, t) -> acc +. t) 0.0 rows in
  let ratio = auto_total /. best_total in
  Printf.printf "  auction:%d seed %d (%d nodes), median warm Session.run per cell, ms\n"
    engine_scale engine_seed (Document.node_count doc);
  Printf.printf "  %-4s %-15s %-15s %8s" "id" "auto before" "auto" "auto ms";
  List.iter (fun e -> Printf.printf " %10s" (Executor.strategy_name e)) engine_strategies;
  print_newline ();
  List.iter
    (fun ((q : Workload.Queries.query), engine, auto_ms, per_engine, _, _) ->
      let id = q.Workload.Queries.id in
      Printf.printf "  %-4s %-15s %-15s %8.2f" id
        (Option.value ~default:"-" (List.assoc_opt id before))
        engine auto_ms;
      List.iter (fun (_, t) -> Printf.printf " %10.2f" t) per_engine;
      print_newline ())
    rows;
  Printf.printf "  auto total %.1f ms, best engine per query %.1f ms: %.2fx (gate %.2fx)\n"
    auto_total best_total ratio engine_gate;
  {
    Harness.gates = [ Harness.at_most "auto_over_best_ratio" ~bound:engine_gate ratio ];
    fields =
      [
        ("document", J.Str (Printf.sprintf "auction:%d:%d" engine_scale engine_seed));
        ("nodes", jint (Document.node_count doc));
        ("auto_total_ms", J.Num auto_total);
        ("best_total_ms", J.Num best_total);
        ("ratio", J.Num ratio);
        ( "queries",
          J.Arr
            (List.map
               (fun ((q : Workload.Queries.query), engine, auto_ms, per_engine, best_engine, best_ms)
                  ->
                 let id = q.Workload.Queries.id in
                 J.Obj
                   [
                     ("id", J.Str id);
                     ("xpath", J.Str q.Workload.Queries.xpath);
                     ( "auto_before",
                       match List.assoc_opt id before with Some e -> J.Str e | None -> J.Null );
                     ("auto", J.Str engine);
                     ("auto_ms", J.Num auto_ms);
                     ("best_engine", J.Str best_engine);
                     ("best_ms", J.Num best_ms);
                     ("ms", J.Obj (List.map (fun (e, t) -> (e, J.Num t)) per_engine));
                   ])
               rows) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* OBSREC: flight-recorder overhead, slow-capture cost, contention     *)
(* ------------------------------------------------------------------ *)

(* Three measurements, written to BENCH_obs_recorder.json:
   (a) recorder overhead: a warm Session.run_profiled workload round with
       the default recorder disabled (the unobserved executor fast path)
       vs enabled — gated at ≤ 2%;
   (b) slow-ring capture cost: ns per Flight_recorder.capture of a
       realistic capture value (plan text + operator profile);
   (c) the contention curve: 4 domains folding samples into one recorder
       at 1, 2, 4 and 8 shards. *)

let obsrec_sample i =
  {
    Xqp_obs.Flight_recorder.fingerprint = Printf.sprintf "T(R;v(q%d))" (i mod 64);
    query = Printf.sprintf "//q%d" (i mod 64);
    mode = "xpath";
    latency_ms = 0.25 +. (0.01 *. float_of_int (i mod 7));
    rows = i mod 40;
    pages_read = i mod 5;
    cache_hit = i mod 3 <> 0;
    deadline_missed = false;
    failed = false;
    worst_q_error = 1.0 +. (0.1 *. float_of_int (i mod 9));
  }

let obsrec_contention ~shards ~domains ~ops =
  let module Fr = Xqp_obs.Flight_recorder in
  let recorder = Fr.create ~shards () in
  let ds =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for round = 1 to ops do
              Fr.record recorder (obsrec_sample ((round * (d + 13)) mod 512))
            done))
  in
  Array.iter Domain.join ds

let obsrec_run ~scale =
  let module Fr = Xqp_obs.Flight_recorder in
  (* The overhead gate runs on the full-size document at both scales:
     the recorder's cost is a constant ~0.2-0.3 µs per query (one
     guarded store fold + one plan-level q-error point), so the gate is
     only meaningful against queries of representative size. On the
     600-node smoke document the workload averages ~8 µs/query and 2%
     is 160 ns — below the floor of any mutex-guarded shared store —
     while the same constant on the standard auction:3000 workload is
     comfortably inside the budget. Smoke vs full only sizes the
     contention sweep. *)
  let doc_scale = 3000 in
  let doc = Workload.Gen_auction.packed ~scale:doc_scale () in
  let session = Xqp.Session.of_document doc in
  let xpaths =
    List.map
      (fun (q : Workload.Queries.query) -> q.Workload.Queries.xpath)
      (Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep)
  in
  (* amplify the round (x10) so fixed per-measurement noise amortizes;
     the queries are tens of microseconds each *)
  let round () =
    for _ = 1 to 10 do
      List.iter
        (fun q -> ignore (Sys.opaque_identity (Xqp.Session.run_profiled session q)))
        xpaths
    done
  in
  round ();
  (* warm the plan cache and lazy artifacts *)
  (* (a) the same warm round, recorder off (unobserved fast path) vs on,
     in 9 interleaved pairs, and two estimates of the same constant: the
     ratio of the lower quartiles (noise only ever adds time, so the low
     samples converge on the true uncontended cost) and the median of
     per-pair ratios (pairing cancels slow drift). On a shared box either
     one alone still swings a few percent between runs — more than the
     effect being gated — but load drift rarely inflates both the same
     way, while a real regression shifts every `on` sample and therefore
     both statistics. The gate takes the smaller of the two; both are
     reported. *)
  let saved = Fr.enabled Fr.default in
  let p =
    Harness.pair ~rounds:9
      (fun () ->
        Fr.set_enabled Fr.default false;
        round ())
      (fun () ->
        Fr.set_enabled Fr.default true;
        round ())
  in
  Fr.set_enabled Fr.default saved;
  let t_off = p.Harness.a.Harness.q1 and t_on = p.Harness.b.Harness.q1 in
  let overhead_q1_pct = (100.0 *. (t_on /. t_off)) -. 100.0 in
  let overhead_median_pct = (100.0 /. p.Harness.speedup.Harness.median) -. 100.0 in
  let overhead_pct = Float.min overhead_q1_pct overhead_median_pct in
  Printf.printf
    "  warm round (%d queries x10): recorder off %.3f ms, on %.3f ms (lower quartiles %+.2f%%, \
     median pair %+.2f%%)\n"
    (List.length xpaths) (ms t_off) (ms t_on) overhead_q1_pct overhead_median_pct;
  (* (b) slow-ring capture cost on a realistic capture value *)
  let capture_ns =
    let recorder = Fr.create () in
    let cap =
      {
        Fr.cap_request_id = "r-bench";
        cap_sample = obsrec_sample 1;
        cap_plan = "tau //site//item[/name{out}]  engine=twigstack  est=120.0  cost=9000\n  root";
        cap_ops =
          List.init 4 (fun i ->
              {
                Xqp_obs.Op_row.path = Printf.sprintf "0.%d" i;
                depth = 1;
                op = "tau(3v)";
                engine = Some "twigstack";
                est_rows = 120.0;
                actual_rows = Some 118;
                time_ms = Some 0.4;
                q_error = Some (Xqp_obs.Op_row.q_error 120.0 118);
              });
        cap_events = [];
        cap_wall = Unix.gettimeofday ();
      }
    in
    let n = 200_000 in
    let t =
      measure (fun () ->
          for _ = 1 to n do
            Fr.capture recorder cap
          done)
    in
    t /. float_of_int n *. 1e9
  in
  Printf.printf "  slow-ring capture: %.1f ns per capture\n" capture_ns;
  (* (c) shard contention: fixed sample count per domain, varying shards *)
  let domains = 4 in
  let ops = match scale with `Small -> 50_000 | `Full -> 200_000 in
  Printf.printf "  contention (%d domains x %d record ops):\n" domains ops;
  let curve =
    List.map
      (fun shards ->
        let elapsed = measure (fun () -> obsrec_contention ~shards ~domains ~ops) in
        let mops = float_of_int (domains * ops) /. elapsed /. 1e6 in
        Printf.printf "    %d shard%s %10.3f ms  %8.2f Mops/s\n" shards
          (if shards = 1 then ": " else "s:")
          (ms elapsed) mops;
        J.Obj
          [
            ("shards", J.Num (float_of_int shards));
            ("elapsed_ms", J.Num (ms elapsed));
            ("mops_per_s", J.Num mops);
          ])
      [ 1; 2; 4; 8 ]
  in
  {
    Harness.gates = [ Harness.at_most "overhead_pct" ~bound:2.0 overhead_pct ];
    fields =
      [
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("queries_per_round", J.Num (float_of_int (List.length xpaths)));
        ("recorder_off_ms", J.Num (ms t_off));
        ("recorder_on_ms", J.Num (ms t_on));
        ("overhead_pct", J.Num overhead_pct);
        ("overhead_q1_pct", J.Num overhead_q1_pct);
        ("overhead_median_pct", J.Num overhead_median_pct);
        ("capture_ns", J.Num capture_ns);
        ("contention_domains", J.Num (float_of_int domains));
        ("contention", J.Arr curve);
      ];
  }

(* ------------------------------------------------------------------ *)
(* CORPUS: sharded catalogs, scatter-gather scaling, shard pruning     *)
(* ------------------------------------------------------------------ *)

(* A packed corpus (auction docs plus a bib tail) queried through
   Session.open_db at 1/2/4 scatter-gather domains. Reports corpus QPS
   per domain count, written to BENCH_corpus.json, then checks the
   catalog-level pruning fast path: a query no shard can answer must
   dispatch nothing, materialize no document and read no pages; a query
   only the bib shard can answer must dispatch exactly that shard. The
   scaling gate (as SERVE's) pairs the 1- and 4-domain sessions. *)

let corpus_tmp_dir () =
  let dir = Filename.temp_file "xqp_bench_corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let corpus_cleanup dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* The value-predicate row: the shape of perfbench's corpus_adhoc catalog
   (8 x auction:40000 + 2 x bib:3000 in 4 shards), where each query does
   real work. Per query group and domain count: ms per query through
   Session.query (plans cached: the row times scatter-gather and the
   engines, not the compile) and the value predicates the NoK kernel
   evaluated per query. *)
let corpus_scan_row dir =
  let module M = Xqp_obs.Metrics in
  let docs =
    List.init 8 (fun i ->
        ( Printf.sprintf "auction%d" i,
          fun () -> Workload.Gen_auction.packed ~seed:(16 + i) ~scale:40_000 () ))
    @ List.init 2 (fun i ->
          ( Printf.sprintf "bib%d" i,
            fun () -> Workload.Gen_bib.packed ~seed:(24 + i) ~books:3_000 () ))
  in
  let output = Filename.concat dir "scan.xqdbc" in
  ignore (Xqp_storage.Catalog.pack ~shards:4 ~output docs);
  let mix = Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep in
  let numeric =
    List.filter
      (fun (q : Workload.Queries.query) -> String.contains q.Workload.Queries.xpath '>')
      mix
  in
  let groups = [ ("numeric", numeric); ("mix", mix) ] in
  let tests = M.counter M.default "engine.nok.predicate_tests" in
  Printf.printf "  scan row: 8 x auction:40000 + 2 x bib:3000, 4 shards\n";
  Printf.printf "  %-8s %-8s %8s %12s %16s\n" "group" "domains" "queries" "ms/query"
    "predicates/query";
  let cells =
    List.concat_map
      (fun domains ->
        let session = Result.get_ok (Xqp.Session.open_db ~domains output) in
        Fun.protect ~finally:(fun () -> Xqp.Session.close session) @@ fun () ->
        List.map
          (fun (group, queries) ->
            let xpaths = List.map (fun (q : Workload.Queries.query) -> q.Workload.Queries.xpath) queries in
            let n = List.length xpaths in
            let round () =
              List.iter
                (fun q ->
                  match Xqp.Session.query session q with
                  | Ok _ -> ()
                  | Error e ->
                    failwith (Printf.sprintf "CORPUS: %s failed: %s" q (Xqp.Error.message e)))
                xpaths
            in
            round ();
            let t0 = M.value tests in
            round ();
            let per_query = float_of_int (M.value tests - t0) /. float_of_int n in
            let ms_per_query = ms (measure round) /. float_of_int n in
            Printf.printf "  %-8s %-8d %8d %12.3f %16.0f\n%!" group domains n ms_per_query per_query;
            J.Obj
              [
                ("group", J.Str group);
                ("domains", jint domains);
                ("queries", jint n);
                ("ms_per_query", J.Num ms_per_query);
                ("predicates_per_query", J.Num per_query);
              ])
          groups)
      [ 1; 2 ]
  in
  J.Obj
    [
      ("corpus", J.Str "auction:40000 x8 + bib:3000 x2, 4 shards");
      ("numeric_queries", J.Arr (List.map (fun (q : Workload.Queries.query) -> J.Str q.Workload.Queries.id) numeric));
      ("cells", J.Arr cells);
    ]

let corpus_run ~scale =
  let module Catalog = Xqp_storage.Catalog in
  let module M = Xqp_obs.Metrics in
  let auction_docs, doc_scale = match scale with `Small -> (6, 1200) | `Full -> (12, 2500) in
  let dir = corpus_tmp_dir () in
  Fun.protect ~finally:(fun () -> corpus_cleanup dir) @@ fun () ->
  let docs =
    List.init auction_docs (fun i ->
        ( Printf.sprintf "auction%02d" i,
          fun () -> Document.of_tree (Workload.Gen_auction.document ~seed:i ~scale:doc_scale ())
        ))
    @ List.init 2 (fun i ->
          ( Printf.sprintf "bib%d" i,
            fun () -> Document.of_tree (Workload.Gen_bib.document ~seed:i ~books:12 ()) ))
  in
  let output = Filename.concat dir "corpus.xqdbc" in
  let cat = Catalog.pack ~shards:4 ~output docs in
  let xpaths =
    List.map
      (fun (q : Workload.Queries.query) -> q.Workload.Queries.xpath)
      Workload.Queries.auction_paths
  in
  Printf.printf "  corpus: %d documents (auction:%d x%d + bib x2) in %d shards, %d queries\n"
    (Catalog.doc_count cat) doc_scale auction_docs (Catalog.shard_count cat) (List.length xpaths);
  let round session () =
    List.iter
      (fun q ->
        match Xqp.Session.query session q with
        | Ok _ -> ()
        | Error e -> failwith (Printf.sprintf "CORPUS: %s failed: %s" q (Xqp.Error.message e)))
      xpaths
  in
  (* only the sessions a measurement uses are open while it runs; each is
     warmed first (lazy per-document executors, the plan cache) *)
  let with_session domains f =
    let session = Result.get_ok (Xqp.Session.open_db ~domains output) in
    Fun.protect ~finally:(fun () -> Xqp.Session.close session) @@ fun () ->
    round session ();
    f session
  in
  Printf.printf "  %-8s %12s\n" "domains" "corpus qps";
  let cells =
    List.map
      (fun domains ->
        with_session domains @@ fun session ->
        let qps = float_of_int (List.length xpaths) /. measure (round session) in
        Printf.printf "  %-8d %12.1f\n%!" domains qps;
        (domains, qps))
      [ 1; 2; 4 ]
  in
  let scaling =
    with_session 1 @@ fun s1 ->
    with_session 4 @@ fun s4 -> Harness.pair ~rounds:7 (round s1) (round s4)
  in
  let speedup = scaling.Harness.speedup in
  Printf.printf "  scaling, 4 vs 1 domain: %.2fx (quartiles %.2f-%.2f, %d pairs)\n"
    speedup.Harness.median speedup.Harness.q1 speedup.Harness.q3 speedup.Harness.runs;
  (* pruning fast path on a fresh session *)
  let m_dispatched = M.counter M.default "corpus.shards_dispatched" in
  let m_pruned = M.counter M.default "corpus.shards_pruned" in
  let m_materialized = M.counter M.default "corpus.docs_materialized" in
  let pager_reads () =
    M.value (M.counter M.default "pager.logical_reads")
    + M.value (M.counter M.default "pager.physical_reads")
  in
  let session = Result.get_ok (Xqp.Session.open_db output) in
  let pruned_all, dispatched_none, touched_none, book_dispatched =
    Fun.protect ~finally:(fun () -> Xqp.Session.close session) @@ fun () ->
    let d0 = M.value m_dispatched and p0 = M.value m_pruned in
    let mat0 = M.value m_materialized and r0 = pager_reads () in
    (match Xqp.Session.query session "//nosuchtag" with
    | Ok [] -> ()
    | Ok _ -> failwith "CORPUS: //nosuchtag returned nodes"
    | Error e -> failwith (Xqp.Error.message e));
    let pruned_all = M.value m_pruned - p0 in
    let dispatched_none = M.value m_dispatched - d0 in
    let touched_none = M.value m_materialized - mat0 + (pager_reads () - r0) in
    let d1 = M.value m_dispatched in
    (match Xqp.Session.query session "//book/title" with
    | Ok (_ :: _) -> ()
    | Ok [] -> failwith "CORPUS: //book/title found nothing"
    | Error e -> failwith (Xqp.Error.message e));
    (pruned_all, dispatched_none, touched_none, M.value m_dispatched - d1)
  in
  let scan_row = corpus_scan_row dir in
  Printf.printf
    "  pruning: //nosuchtag pruned %d/4 shards (dispatched %d, docs opened + pages read %d); \
     //book/title dispatched %d shard\n"
    pruned_all dispatched_none touched_none book_dispatched;
  {
    Harness.gates =
      [
        scaling_gate speedup.Harness.median;
        Harness.at_least "pruned_shards" ~bound:4.0 (float_of_int pruned_all);
        Harness.at_most "pruned_dispatched" ~bound:0.0 (float_of_int dispatched_none);
        Harness.at_most "pruned_reads" ~bound:0.0 (float_of_int touched_none);
        Harness.holds "book_title_dispatches_one_shard" (book_dispatched = 1);
      ];
    fields =
      [
        ( "corpus",
          J.Str (Printf.sprintf "auction:%d x%d + bib:12 x2, 4 shards" doc_scale auction_docs) );
        ("queries", jint (List.length xpaths));
        ( "cells",
          J.Arr
            (List.map
               (fun (domains, qps) -> J.Obj [ ("domains", jint domains); ("qps", J.Num qps) ])
               cells) );
        ("speedup_4_domains", Harness.stat_json speedup);
        ("pruned_shards", jint pruned_all);
        ("pruned_dispatched", jint dispatched_none);
        ("pruned_reads", jint touched_none);
        ("book_dispatched", jint book_dispatched);
        ("scan_row", scan_row);
      ];
  }

(* ------------------------------------------------------------------ *)
(* The experiment list                                                 *)
(* ------------------------------------------------------------------ *)

(* An experiment that prints its table and writes no BENCH file. *)
let report id title run =
  {
    Harness.id;
    title;
    bench = None;
    run =
      (fun ~scale ->
        run ~scale;
        Harness.nothing);
  }

let gated id title bench run = { Harness.id; title; bench = Some bench; run }

let experiments =
  [
    report "F1" "Fig. 1: FLWOR -> SchemaTree extraction + gamma construction" f1_run;
    report "F2" "Fig. 2: layered Env construction (Definition 3)" f2_run;
    report "E1" "E1: query time vs document size (NoK / TwigStack / binary joins / navigation)"
      e1_run;
    report "E2" "E2: query time vs query complexity (steps and twig branching)" e2_run;
    report "E3" "E3: selectivity sweep on //f1//t (target tag frequency varied)" e3_run;
    report "E4" "E4: storage size — succinct store vs DOM arrays vs interval relation" e4_run;
    report "E5" "E5: structural join order selection (intermediate tuple counts)" e5_run;
    report "E6" "E6: update cost — local splice vs full rebuild" e6_run;
    report "E7" "E7: streaming NoK over the pre-order event stream" e7_run;
    report "E8" "E8: logical rewriting — step pipeline vs fused tau operator" e8_run;
    report "E9" "E9: cardinality estimation accuracy (paper's planned cost model)" e9_run;
    report "E10" "E10: content index ablation (B+-tree over the separated content, §4.2)"
      e10_run;
    report "E11" "E11: NoK over the disk-resident store (measured page faults)" e11_run;
    report "E12" "E12: output-oriented evaluation (§6): first/exists through the kernel's row limit"
      e12_run;
    report "E13" "E13: FLWOR evaluated as one generalized tree pattern ([9], discussed in §5)"
      e13_run;
    gated "PRIM" "PRIM: prim_nav — broadword navigation primitives vs seed kernels (ns/op)"
      "prim_nav" prim_run;
    gated "QMET" "QMET: per-query time and operator spans" "query_metrics" qmet_run;
    gated "PCACHE" "PCACHE: plan-cache amortization over the workload queries" "plan_cache"
      pcache_run;
    gated "PSUM" "PSUM: path-summary estimates, plan-time pruning, skip-ahead navigation"
      "path_summary" psum_run;
    gated "DSAFE" "DSAFE: domain-safety machinery overhead and plan-cache shard contention"
      "domain_safety" dsafe_run;
    gated "SERVE" "SERVE: multicore query server throughput, latency and domain scaling" "serve"
      serve_run;
    gated "ENCODE" "ENCODE: XPath replies written from the document vs the Tree.t reference encoder"
      "encode" encode_run;
    gated "ENGINE" "ENGINE: Auto's binding vs every engine at 324k nodes" "engine" engine_run;
    gated "OBSREC" "OBSREC: flight-recorder overhead, slow-capture cost and shard contention"
      "obs_recorder" obsrec_run;
    gated "CORPUS" "CORPUS: sharded catalogs, scatter-gather scaling and shard pruning" "corpus"
      corpus_run;
  ]

let () = exit (Harness.main experiments (List.tl (Array.to_list Sys.argv)))
