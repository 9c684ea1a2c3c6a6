(* Benchmark harness: regenerates every experiment in EXPERIMENTS.md.

   Default mode prints the per-experiment tables/series (the reproduction
   report). `--bechamel` additionally runs one Bechamel micro-benchmark per
   experiment. `--only=E1,E4` restricts the report, `--full` uses the
   full-size documents (default sizes keep a laptop run under a minute). *)

open Xqp_xml
open Xqp_algebra
open Xqp_physical
module Workload = Xqp_workload

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Adaptive wall-clock measurement: one warm-up call; if a single call is
   long, use it, otherwise loop for ~50ms; median of 3 rounds. *)
let measure ?(rounds = 3) f =
  let round () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let once = Unix.gettimeofday () -. t0 in
    if once > 0.25 then once
    else begin
      let iters = max 3 (min 200 (int_of_float (0.05 /. Float.max 1e-6 once))) in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (f ()))
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int iters
    end
  in
  let samples = List.init rounds (fun _ -> round ()) in
  List.nth (List.sort compare samples) (rounds / 2)

let ms t = t *. 1000.0
let header title = Printf.printf "\n== %s ==\n%!" title

(* ------------------------------------------------------------------ *)
(* Experiment registry                                                 *)
(* ------------------------------------------------------------------ *)

type experiment = {
  id : string;
  title : string;
  run : scale:[ `Small | `Full ] -> unit;
  bechamel : unit -> Bechamel.Test.t;
}

let experiments : experiment list ref = ref []
let register e = experiments := !experiments @ [ e ]

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

let fig1_setup ~scale =
  let books = match scale with `Small -> 200 | `Full -> 2000 in
  let doc = Document.of_tree (Workload.Gen_bib.document ~books ()) in
  let exec = Executor.create doc in
  let query = List.assoc "F1-fig1" Workload.Queries.bib_flwor in
  let ast = Xqp_xquery.Xq_parser.parse query in
  (exec, ast)

let f1_run ~scale =
  let exec, ast = fig1_setup ~scale in
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

let () =
  register
    {
      id = "F1";
      title = "Fig. 1: FLWOR -> SchemaTree extraction + gamma construction";
      run = f1_run;
      bechamel =
        (fun () ->
          let exec, ast = fig1_setup ~scale:`Small in
          Bechamel.Test.make ~name:"F1-fig1-eval"
            (Bechamel.Staged.stage (fun () -> ignore (Xqp_xquery.Eval.eval exec ast))));
    }

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

let () =
  register
    {
      id = "F2";
      title = "Fig. 2: layered Env construction (Definition 3)";
      run = f2_run;
      bechamel =
        (fun () ->
          let build = fig2_env ~books:200 in
          Bechamel.Test.make ~name:"F2-env"
            (Bechamel.Staged.stage (fun () -> ignore (build ()))));
    }

(* ------------------------------------------------------------------ *)
(* E1: query time vs document size                                     *)
(* ------------------------------------------------------------------ *)

let e1_scales = function
  | `Small -> [ 1_000; 10_000 ]
  | `Full -> [ 1_000; 10_000; 50_000; 100_000 ]

(* Work units approximate page I/O: nodes/stream entries an engine touches
   (the paper's experiments measure disk-resident evaluation, where these
   dominate; see EXPERIMENTS.md). *)
let work_units exec q =
  let doc = Executor.doc exec in
  let context = [ Operators.document_context ] in
  let pattern = Xqp_xpath.Parser.parse_pattern q in
  let _, nok_stats = Nok.match_pattern_with_stats doc (Executor.store exec) pattern ~context in
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

let () =
  register
    {
      id = "E1";
      title = "E1: query time vs document size (NoK / TwigStack / binary joins / navigation)";
      run = e1_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:10_000 () in
          let exec = Executor.create doc in
          ignore (Executor.store exec);
          Bechamel.Test.make ~name:"E1-Q3-nok"
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (run_query exec Executor.Nok
                      "/site/people/person[address/city][profile]/name"))));
    }

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

let () =
  register
    {
      id = "E2";
      title = "E2: query time vs query complexity (steps and twig branching)";
      run = e2_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:10_000 () in
          let exec = Executor.create doc in
          Bechamel.Test.make ~name:"E2-C7-twigstack"
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (run_query exec Executor.Twigstack
                      "//regions//item[location][quantity]/description//text"))));
    }

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

let () =
  register
    {
      id = "E3";
      title = "E3: selectivity sweep on //f1//t (target tag frequency varied)";
      run = e3_run;
      bechamel =
        (fun () ->
          let doc =
            Document.of_tree
              (Workload.Gen_synthetic.skewed ~nodes:10_000 ~target:"t" ~target_frequency:0.05 ())
          in
          let exec = Executor.create doc in
          Bechamel.Test.make ~name:"E3-binary"
            (Bechamel.Staged.stage (fun () ->
                 ignore (run_query exec Executor.Binary_default "//f1//t"))));
    }

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

let () =
  register
    {
      id = "E4";
      title = "E4: storage size — succinct store vs DOM arrays vs interval relation";
      run = e4_run;
      bechamel =
        (fun () ->
          let tree = Workload.Gen_auction.document ~scale:10_000 () in
          Bechamel.Test.make ~name:"E4-build-store"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Xqp_storage.Succinct_store.of_tree tree))));
    }

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

let () =
  register
    {
      id = "E5";
      title = "E5: structural join order selection (intermediate tuple counts)";
      run = e5_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:8_000 () in
          let pattern =
            Xqp_xpath.Parser.parse_pattern "//open_auction[bidder/increase > 20]/current"
          in
          Bechamel.Test.make ~name:"E5-default-order"
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (Binary_join.evaluate_with_order doc pattern
                      ~context:[ Operators.document_context ]
                      ~order:(Binary_join.default_order pattern)))));
    }

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

let () =
  register
    {
      id = "E6";
      title = "E6: update cost — local splice vs full rebuild";
      run = e6_run;
      bechamel =
        (fun () ->
          let tree = Workload.Gen_auction.document ~scale:5_000 () in
          let store = Xqp_storage.Succinct_store.of_tree tree in
          let pos = Xqp_storage.Succinct_store.node_of_rank store 10 in
          let fragment = Tree.leaf "x" "y" in
          Bechamel.Test.make ~name:"E6-splice"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Xqp_storage.Succinct_store.replace_subtree store pos fragment))));
    }

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

let () =
  register
    {
      id = "E7";
      title = "E7: streaming NoK over the pre-order event stream";
      run = e7_run;
      bechamel =
        (fun () ->
          let source = Serializer.to_string (Workload.Gen_auction.document ~scale:5_000 ()) in
          let pattern = Xqp_xpath.Parser.parse_pattern "//item/name" in
          Bechamel.Test.make ~name:"E7-stream"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Xqp_physical.Streaming.run_string pattern source))));
    }

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

let () =
  register
    {
      id = "E8";
      title = "E8: logical rewriting — step pipeline vs fused tau operator";
      run = e8_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:10_000 () in
          let exec = Executor.create doc in
          let plan =
            Rewrite.optimize
              (Xqp_xpath.Parser.parse "/site/people/person[address/city][profile]/name")
          in
          Bechamel.Test.make ~name:"E8-fused"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Executor.execute exec (Executor.Plan plan)))));
    }

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

let () =
  register
    {
      id = "E9";
      title = "E9: cardinality estimation accuracy (paper's planned cost model)";
      run = e9_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:10_000 () in
          Bechamel.Test.make ~name:"E9-build-stats"
            (Bechamel.Staged.stage (fun () -> ignore (Statistics.build doc))));
    }

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

let () =
  register
    {
      id = "E10";
      title = "E10: content index ablation (B+-tree over the separated content, \xc2\xa74.2)";
      run = e10_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:10_000 () in
          Bechamel.Test.make ~name:"E10-build-index"
            (Bechamel.Staged.stage (fun () -> ignore (Content_index.build doc))));
    }

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

let () =
  register
    {
      id = "E11";
      title = "E11: NoK over the disk-resident store (measured page faults)";
      run = e11_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:10_000 () in
          let path = Filename.temp_file "xqp_bench" ".xqdb" in
          Xqp_storage.Store_io.save (Xqp_storage.Succinct_store.of_document doc) path;
          let paged = Xqp_storage.Paged_store.open_store path in
          let pattern = Xqp_xpath.Parser.parse_pattern "/site/regions/africa/item/name" in
          Bechamel.Test.make ~name:"E11-paged-nok"
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (Nok_paged.match_pattern doc paged pattern
                      ~context:[ Operators.document_context ]))));
    }

(* ------------------------------------------------------------------ *)
(* E12: lazy (output-oriented) evaluation, §6                          *)
(* ------------------------------------------------------------------ *)

let e12_cases =
  (* (label, query, consumer) — consumer says how much of the output the
     caller actually needs *)
  [
    ("exists, early hit", "//item[quantity > 1]", `Exists);
    ("exists, late hit", "//category/name", `Exists);
    ("first 3 results", "//person/address/city", `Take 3);
    ("full result", "//person/address/city", `All);
  ]

let e12_run ~scale =
  let nodes = match scale with `Small -> 20_000 | `Full -> 80_000 in
  let doc = Workload.Gen_auction.packed ~scale:nodes () in
  Printf.printf "  document: %d nodes\n" (Document.node_count doc);
  Printf.printf "  %-20s %-28s | %10s %10s | %10s %10s\n" "consumer" "query" "lazy(ms)"
    "eager(ms)" "lazy-pull" "eager-pull";
  let context = [ Operators.document_context ] in
  List.iter
    (fun (label, q, consumer) ->
      let plan = Rewrite.simplify (Xqp_xpath.Parser.parse q) in
      let lazy_run () =
        let seq, stats = Pipelined.eval_seq_with_stats doc plan ~context in
        let value =
          match consumer with
          | `Exists -> if Seq.is_empty seq then 0 else 1
          | `Take k -> List.length (List.of_seq (Seq.take k seq))
          | `All -> List.length (List.of_seq seq)
        in
        (value, (stats ()).Pipelined.nodes_pulled)
      in
      let eager_run () =
        let result, stats = Navigation.eval_plan_with_stats doc plan ~context in
        let value =
          match consumer with
          | `Exists -> if result = [] then 0 else 1
          | `Take k -> min k (List.length result)
          | `All -> List.length result
        in
        (value, stats.Navigation.nodes_visited)
      in
      let lazy_value, lazy_pull = lazy_run () in
      let eager_value, eager_pull = eager_run () in
      if lazy_value <> eager_value then failwith ("E12: lazy consumer diverges on " ^ q);
      let t_lazy = measure (fun () -> fst (lazy_run ())) in
      let t_eager = measure (fun () -> fst (eager_run ())) in
      Printf.printf "  %-20s %-28s | %10.3f %10.3f | %10d %10d\n" label q (ms t_lazy)
        (ms t_eager) lazy_pull eager_pull)
    e12_cases

let () =
  register
    {
      id = "E12";
      title = "E12: lazy (output-oriented) evaluation — the strategy planned in §6";
      run = e12_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:10_000 () in
          let plan = Rewrite.simplify (Xqp_xpath.Parser.parse "//item[quantity > 1]") in
          Bechamel.Test.make ~name:"E12-lazy-exists"
            (Bechamel.Staged.stage (fun () ->
                 ignore
                   (Pipelined.exists doc plan ~context:[ Operators.document_context ]))));
    }

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

let () =
  register
    {
      id = "E13";
      title = "E13: FLWOR evaluated as one generalized tree pattern ([9], discussed in §5)";
      run = e13_run;
      bechamel =
        (fun () ->
          let doc = Document.of_tree (Workload.Gen_bib.document ~books:500 ()) in
          let exec = Executor.create doc in
          let ast =
            Xqp_xquery.Xq_parser.parse (List.assoc "F1-fig1" Workload.Queries.bib_flwor)
          in
          let t = Option.get (Xqp_xquery.Translate.translate_gtp ast) in
          Bechamel.Test.make ~name:"E13-gtp"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Xqp_xquery.Translate.execute_gtp exec t))));
    }

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

let prim_json_path () =
  Array.fold_left
    (fun acc a ->
      if String.length a > 7 && String.equal (String.sub a 0 7) "--json=" then
        String.sub a 7 (String.length a - 7)
      else acc)
    "BENCH_prim_nav.json" Sys.argv

(* ns per call over a fixed sample set, with an accumulator so the calls
   are not dead code. *)
let ns_per_op samples f =
  let ops = Array.length samples in
  let sink = ref 0 in
  let run () =
    for i = 0 to ops - 1 do
      sink := !sink + f (Array.unsafe_get samples i)
    done;
    !sink
  in
  measure run *. 1e9 /. float_of_int ops

let prim_doc_scales scale =
  match scale with `Small -> [ 10_000; 100_000 ] | `Full -> [ 10_000; 100_000; 500_000 ]

let prim_run ~scale =
  let json = Buffer.create 1024 in
  Buffer.add_string json "{\n  \"bench\": \"prim_nav\",\n  \"unit\": \"ns/op\",\n  \"documents\": [";
  let first_doc = ref true in
  List.iter
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
      let rows =
        [
          ( "find_close",
            ns_per_op opens_nav (Seed_prim.find_close seed),
            ns_per_op opens_nav (Sbp.find_close bp) );
          ( "parent",
            ns_per_op opens_parent (fun p -> opt_pos (Seed_prim.enclose seed p)),
            ns_per_op opens_parent (fun p -> opt_pos (Sbp.enclose bp p)) );
          ( "next_sibling",
            ns_per_op opens_nav (fun p -> opt_pos (Seed_prim.next_sibling seed p)),
            ns_per_op opens_nav (fun p -> opt_pos (Sbp.next_sibling bp p)) );
          ( "rank", ns_per_op rank_positions (Seed_prim.rank1 seed),
            ns_per_op rank_positions (Sbv.rank1 bits) );
          ( "select", ns_per_op select_ranks (Seed_prim.select1 seed),
            ns_per_op select_ranks (Sbv.select1 bits) );
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
      let seed_early = ns_per_op early (fun p -> opt_pos (Seed_prim.enclose seed p)) in
      let seed_late = ns_per_op late (fun p -> opt_pos (Seed_prim.enclose seed p)) in
      let new_early = ns_per_op early (fun p -> opt_pos (Sbp.enclose bp p)) in
      let new_late = ns_per_op late (fun p -> opt_pos (Sbp.enclose bp p)) in
      Printf.printf "  document: %d nodes (%d parens)\n" n len;
      Printf.printf "  %-14s %14s %14s %10s\n" "primitive" "seed(ns/op)" "new(ns/op)" "speedup";
      List.iter
        (fun (name, s, w) -> Printf.printf "  %-14s %14.1f %14.1f %9.1fx\n" name s w (s /. w))
        rows;
      Printf.printf "  %-14s %14.1f %14.1f   (seed: early vs late nodes)\n" "enclose-sweep"
        seed_early seed_late;
      Printf.printf "  %-14s %14.1f %14.1f   (new: early vs late nodes)\n" "" new_early
        new_late;
      if not !first_doc then Buffer.add_string json ",";
      first_doc := false;
      Buffer.add_string json
        (Printf.sprintf "\n    {\n      \"nodes\": %d,\n      \"parens_bits\": %d,\n      \"primitives\": [" n len);
      List.iteri
        (fun i (name, s, w) ->
          Buffer.add_string json
            (Printf.sprintf
               "%s\n        {\"name\": %S, \"seed_ns\": %.1f, \"new_ns\": %.1f, \"speedup\": %.2f}"
               (if i = 0 then "" else ",")
               name s w (s /. w)))
        rows;
      Buffer.add_string json
        (Printf.sprintf
           "\n      ],\n      \"enclose_position_sweep\": {\"seed_early_ns\": %.1f, \"seed_late_ns\": %.1f, \"new_early_ns\": %.1f, \"new_late_ns\": %.1f}\n    }"
           seed_early seed_late new_early new_late))
    (prim_doc_scales scale);
  Buffer.add_string json "\n  ]\n}\n";
  let path = prim_json_path () in
  let oc = open_out path in
  Buffer.output_buffer oc json;
  close_out oc;
  Printf.printf "  wrote %s\n" path

let () =
  register
    {
      id = "PRIM";
      title = "PRIM: prim_nav — broadword navigation primitives vs seed kernels (ns/op)";
      run = prim_run;
      bechamel =
        (fun () ->
          let bp = Sbp.of_tree (Workload.Gen_auction.document ~scale:10_000 ()) in
          let mid = Sbp.node_of_rank bp (Sbp.node_count bp / 2) in
          Bechamel.Test.make ~name:"PRIM-enclose"
            (Bechamel.Staged.stage (fun () -> ignore (Sbp.enclose bp mid))));
    }

(* ------------------------------------------------------------------ *)
(* QMET: per-query metrics — spans, pager I/O, pool hit rate           *)
(* ------------------------------------------------------------------ *)

(* One run of every workload XPath query with tracing on: per-operator
   rows from the profiler, plus the pager counter deltas for the whole
   query, into BENCH_query_metrics.json. *)
let qmet_run ~scale =
  let module J = Xqp_obs.Json in
  let doc_scale = match scale with `Small -> 600 | `Full -> 3000 in
  let doc = Workload.Gen_auction.packed ~scale:doc_scale () in
  let pager = Xqp_storage.Pager.create () in
  let exec = Executor.create ~pager doc in
  let context = [ Operators.document_context ] in
  let queries = Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep in
  Printf.printf "  %-4s %-10s %8s %10s %10s %8s %8s\n" "id" "engine" "results" "time(ms)"
    "pages(lr)" "faults" "hit%";
  let query_objs =
    List.map
      (fun (q : Workload.Queries.query) ->
        let optimized = Rewrite.optimize (Xqp_xpath.Parser.parse q.Workload.Queries.xpath) in
        (* timing without tracing, on a warm pool *)
        let time_ms =
          ms (measure (fun () -> Executor.execute exec ~context (Executor.Plan optimized)))
        in
        (* one traced run for the per-operator rows and I/O counters *)
        Xqp_storage.Pager.reset_stats pager;
        let result, rows = Profile.analyze exec optimized ~context in
        let ps = Xqp_storage.Pager.stats pager in
        let touches =
          ps.Xqp_storage.Pager.logical_reads + ps.Xqp_storage.Pager.logical_writes
        in
        let hit_rate =
          if touches = 0 then 1.0
          else float_of_int ps.Xqp_storage.Pager.hits /. float_of_int touches
        in
        let engine =
          match List.find_map (fun (r : Profile.row) -> r.Profile.engine) rows with
          | Some e -> e
          | None -> "navigation"
        in
        Printf.printf "  %-4s %-10s %8d %10.3f %10d %8d %7.1f%%\n" q.Workload.Queries.id engine
          (List.length result) time_ms ps.Xqp_storage.Pager.logical_reads
          ps.Xqp_storage.Pager.physical_reads (100.0 *. hit_rate);
        J.Obj
          [
            ("id", J.Str q.Workload.Queries.id);
            ("xpath", J.Str q.Workload.Queries.xpath);
            ("engine", J.Str engine);
            ("results", J.Num (float_of_int (List.length result)));
            ("time_ms", J.Num time_ms);
            ( "pager",
              J.Obj
                [
                  ("logical_reads", J.Num (float_of_int ps.Xqp_storage.Pager.logical_reads));
                  ("physical_reads", J.Num (float_of_int ps.Xqp_storage.Pager.physical_reads));
                  ("hits", J.Num (float_of_int ps.Xqp_storage.Pager.hits));
                  ("hit_rate", J.Num hit_rate);
                ] );
            ("operators", J.Arr (List.map Xqp_obs.Op_row.to_json rows));
          ])
      queries
  in
  let out =
    J.Obj
      [
        ("bench", J.Str "query_metrics");
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("queries", J.Arr query_objs);
      ]
  in
  let path = "BENCH_query_metrics.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path

let () =
  register
    {
      id = "QMET";
      title = "QMET: per-query operator spans, pager I/O and pool hit rate";
      run = qmet_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:600 () in
          let exec = Executor.create doc in
          let plan = Rewrite.optimize (Xqp_xpath.Parser.parse "//person[profile/@income > 60000]/name") in
          Bechamel.Test.make ~name:"QMET-analyze"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Profile.analyze exec plan ~context:[ Operators.document_context ]))));
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
  let module J = Xqp_obs.Json in
  let module M = Xqp_obs.Metrics in
  let doc_scale = match scale with `Small -> 600 | `Full -> 3000 in
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
  if hit_rate < 0.9 then
    failwith (Printf.sprintf "PCACHE: warm hit rate %.3f below 0.9" hit_rate);
  let out =
    J.Obj
      [
        ("bench", J.Str "plan_cache");
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("warm_rounds", J.Num (float_of_int pcache_warm_rounds));
        ("hits", J.Num (float_of_int total_hits));
        ("misses", J.Num (float_of_int total_misses));
        ("hit_rate", J.Num hit_rate);
        ("mean_cached_ms", J.Num mean_cached);
        ("mean_no_cache_ms", J.Num mean_uncached);
        ("queries", J.Arr query_objs);
      ]
  in
  let path = "BENCH_plan_cache.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path

let () =
  register
    {
      id = "PCACHE";
      title = "PCACHE: plan-cache amortization over the workload queries";
      run = pcache_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:600 () in
          let exec = Executor.create doc in
          let q = "//person[profile/@income > 60000]/name" in
          ignore (Executor.execute exec (Executor.Query q));
          Bechamel.Test.make ~name:"PCACHE-warm-query"
            (Bechamel.Staged.stage (fun () -> ignore (Executor.execute exec (Executor.Query q)))));
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
  let module J = Xqp_obs.Json in
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
  if worst_new > worst_old then failwith "PSUM: summary estimates worse than legacy";
  (* --- (b) plan-time pruning: no pager I/O for an empty path set ---- *)
  let pager = Xqp_storage.Pager.create () in
  let pexec = Executor.create ~pager doc in
  ignore (Executor.store pexec);
  let physical = (Executor.prepare pexec (Executor.Query psum_empty_query)).Executor.physical in
  (match physical.Physical_plan.op with
  | Physical_plan.Empty _ -> ()
  | _ -> failwith "PSUM: empty-path query did not compile to Empty");
  let m_reads = M.counter M.default "pager.logical_reads" in
  let r0 = M.value m_reads in
  let res = Executor.run_physical pexec physical ~context:ctx in
  let pruned_reads = M.value m_reads - r0 in
  if res <> [] then failwith "PSUM: pruned query returned nodes";
  if pruned_reads <> 0 then failwith "PSUM: pruned query touched the pager";
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
  if skipped = 0 then failwith "PSUM: no subtrees skipped on a skip-heavy query";
  let t_without = ms (measure (fun () -> fst (without ()))) in
  let t_with = ms (measure (fun () -> fst (with_h ()))) in
  Printf.printf
    "  skip   %-28s %.3f ms -> %.3f ms (%.2fx), visited %d -> %d, %d subtrees skipped\n"
    psum_skip_query t_without t_with
    (t_without /. Float.max 1e-9 t_with)
    st_without.Navigation.nodes_visited st_with.Navigation.nodes_visited skipped;
  let out =
    J.Obj
      [
        ("bench", J.Str "path_summary");
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
      ]
  in
  let path = "BENCH_path_summary.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path

let () =
  register
    {
      id = "PSUM";
      title = "PSUM: path-summary estimates, plan-time pruning, skip-ahead navigation";
      run = psum_run;
      bechamel =
        (fun () ->
          let doc = Workload.Gen_auction.packed ~scale:600 () in
          let stats = Statistics.build doc in
          let hints = Navigation.make_hints doc (Statistics.summary stats) in
          let plan = Rewrite.simplify (Xqp_xpath.Parser.parse psum_skip_query) in
          let ctx = [ Operators.document_context ] in
          Bechamel.Test.make ~name:"PSUM-skip-ahead-nav"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Navigation.eval_plan ~hints doc plan ~context:ctx))));
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
  let t0 = Unix.gettimeofday () in
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
  Array.iter Domain.join ds;
  Unix.gettimeofday () -. t0

let dsafe_run ~scale =
  let module J = Xqp_obs.Json in
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
  if overhead_pct > 2.0 then
    failwith
      (Printf.sprintf "DSAFE: single-domain atomic-counter overhead %.3f%% exceeds 2%%"
         overhead_pct);
  (* (c) shard contention: fixed op count per domain, varying shards *)
  let domains = 4 in
  let ops = match scale with `Small -> 30_000 | `Full -> 120_000 in
  Printf.printf "  contention (%d domains x %d cache ops):\n" domains ops;
  let curve =
    List.map
      (fun shards ->
        let elapsed = dsafe_contention ~shards ~domains ~ops in
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
  let out =
    J.Obj
      [
        ("bench", J.Str "domain_safety");
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
      ]
  in
  let path = "BENCH_domain_safety.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path

let () =
  register
    {
      id = "DSAFE";
      title = "DSAFE: domain-safety machinery overhead and plan-cache shard contention";
      run = dsafe_run;
      bechamel =
        (fun () ->
          let a = Atomic.make 0 in
          Bechamel.Test.make ~name:"DSAFE-atomic-incr"
            (Bechamel.Staged.stage (fun () -> ignore (Atomic.fetch_and_add a 1))));
    }

(* ------------------------------------------------------------------ *)
(* SERVE: multicore query server throughput and latency                *)
(* ------------------------------------------------------------------ *)

(* End-to-end over loopback HTTP: an in-process server on 1/2/4 worker
   domains, swept over client counts; each client domain replays the
   workload queries back to back. Reports QPS and p50/p99 latency per
   configuration, written to BENCH_serve.json.

   Scaling gate: with 4 worker domains and the largest client count, QPS
   must reach at least 0.75 x min(4, cores) x the single-domain QPS —
   near-linear scaling where the hardware has the cores (3x on a 4-core
   CI box) and no regression where it does not (this container has 1). *)

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

let serve_percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (Float.of_int n *. p)))

(* One (domains x clients) cell: spawn the server, hammer it, tear it
   down. Returns (qps, p50_ms, p99_ms, error_count). *)
let serve_cell ~session ~paths ~domains ~clients ~requests_per_client =
  let config =
    { Xqp.Server.default_config with Xqp.Server.domains; queue_depth = 4096 }
  in
  let server = Xqp.Server.start ~config session in
  Fun.protect
    ~finally:(fun () -> Xqp.Server.stop server)
    (fun () ->
      let port = Xqp.Server.port server in
      let n_paths = Array.length paths in
      let t0 = Unix.gettimeofday () in
      let client_domains =
        Array.init clients (fun c ->
            Domain.spawn (fun () ->
                let latencies = Array.make requests_per_client 0.0 in
                let errors = ref 0 in
                for i = 0 to requests_per_client - 1 do
                  let path = paths.((c + (i * clients)) mod n_paths) in
                  let s0 = Unix.gettimeofday () in
                  let raw = serve_http_get ~port ~path in
                  latencies.(i) <- (Unix.gettimeofday () -. s0) *. 1000.0;
                  if not (String.length raw > 12 && String.sub raw 9 3 = "200") then incr errors
                done;
                (latencies, !errors)))
      in
      let results = Array.map Domain.join client_domains in
      let elapsed = Unix.gettimeofday () -. t0 in
      let latencies = Array.concat (Array.to_list (Array.map fst results)) in
      let errors = Array.fold_left (fun acc (_, e) -> acc + e) 0 results in
      Array.sort compare latencies;
      let total = clients * requests_per_client in
      ( float_of_int total /. elapsed,
        serve_percentile latencies 0.50,
        serve_percentile latencies 0.99,
        errors ))

let serve_run ~scale =
  let module J = Xqp_obs.Json in
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
  let cores = Domain.recommended_domain_count () in
  Printf.printf "  document auction:%d, %d queries, %d requests/client, %d core%s\n" doc_scale
    (Array.length paths) requests_per_client cores
    (if cores = 1 then "" else "s");
  Printf.printf "  %-8s %8s %10s %9s %9s %7s\n" "domains" "clients" "qps" "p50 ms" "p99 ms"
    "errors";
  let cells =
    List.concat_map
      (fun domains ->
        List.map
          (fun clients ->
            let qps, p50, p99, errors =
              serve_cell ~session ~paths ~domains ~clients ~requests_per_client
            in
            Printf.printf "  %-8d %8d %10.0f %9.3f %9.3f %7d\n%!" domains clients qps p50 p99
              errors;
            if errors > 0 then
              failwith (Printf.sprintf "SERVE: %d non-200 responses under load" errors);
            (domains, clients, qps, p50, p99))
          [ 1; 2; 4; 8 ])
      [ 1; 2; 4 ]
  in
  (* the gate compares the busiest client count at 1 vs 4 domains *)
  let qps_at ~domains =
    List.fold_left
      (fun acc (d, _, qps, _, _) -> if d = domains then Float.max acc qps else acc)
      0.0 cells
  in
  let qps1 = qps_at ~domains:1 and qps4 = qps_at ~domains:4 in
  let expected_speedup = 0.75 *. Float.of_int (min 4 cores) in
  let speedup = qps4 /. qps1 in
  Printf.printf "  scaling: best qps 1 domain %.0f, 4 domains %.0f -> %.2fx (gate %.2fx on %d core%s)\n"
    qps1 qps4 speedup expected_speedup cores
    (if cores = 1 then "" else "s");
  if speedup < expected_speedup then
    failwith
      (Printf.sprintf "SERVE: 4-domain speedup %.2fx below the %.2fx gate (%d cores)" speedup
         expected_speedup cores);
  let out =
    J.Obj
      [
        ("bench", J.Str "serve");
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("cores", J.Num (float_of_int cores));
        ("requests_per_client", J.Num (float_of_int requests_per_client));
        ( "cells",
          J.Arr
            (List.map
               (fun (domains, clients, qps, p50, p99) ->
                 J.Obj
                   [
                     ("domains", J.Num (float_of_int domains));
                     ("clients", J.Num (float_of_int clients));
                     ("qps", J.Num qps);
                     ("p50_ms", J.Num p50);
                     ("p99_ms", J.Num p99);
                   ])
               cells) );
        ("best_qps_1_domain", J.Num qps1);
        ("best_qps_4_domains", J.Num qps4);
        ("speedup_4_domains", J.Num speedup);
        ("speedup_gate", J.Num expected_speedup);
      ]
  in
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path

let () =
  register
    {
      id = "SERVE";
      title = "SERVE: multicore query server throughput, latency and domain scaling";
      run = serve_run;
      bechamel =
        (fun () ->
          let session = Xqp.Session.of_document (Workload.Gen_auction.packed ~scale:300 ()) in
          Bechamel.Test.make ~name:"SERVE-session-run"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Sys.opaque_identity (Xqp.Session.run session "//item/name")))));
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
   is Response.write into one reused buffer, as a server worker holds
   it. Both must produce the same bytes; the gate asks the current
   encoder for a 3x speed-up over the mix. Writes BENCH_encode.json. *)

let encode_scale = 300_000
let encode_gate = 3.0

let encode_reference session ~query (r : Xqp.Session.query_result) =
  let module J = Xqp_obs.Json in
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

(* Encode into a worker-style buffer: cleared per reply, dropped for a
   fresh one once a reply grew it past 1 MiB. *)
let encode_current buf session ~query r =
  if Buffer.length buf > 1_048_576 then Buffer.reset buf else Buffer.clear buf;
  Xqp.Response.write buf (Xqp.Response.of_query_result session ~query r)

let encode_run ~scale:_ =
  let module J = Xqp_obs.Json in
  let session = Xqp.Session.of_document (Workload.Gen_auction.packed ~scale:encode_scale ()) in
  let mix =
    List.map
      (fun (q : Workload.Queries.query) ->
        let xpath = q.Workload.Queries.xpath in
        (q.Workload.Queries.id, xpath, Result.get_ok (Xqp.Session.run session xpath)))
      (Workload.Queries.auction_paths @ Workload.Queries.auction_complexity_sweep)
  in
  let buf = Buffer.create 65536 in
  let bytes =
    List.map
      (fun (id, query, r) ->
        let reference = encode_reference session ~query r in
        encode_current buf session ~query r;
        if Buffer.contents buf <> reference then
          failwith (Printf.sprintf "ENCODE: %s: reply differs from the reference encoder" id);
        String.length reference)
      mix
  in
  (* Each encoder runs its own block of whole-mix passes — a full major
     collection, one untimed pass, then [rounds] timed ones, median — so
     each pays the collector for its own garbage and not the other's. *)
  let rounds = 7 in
  let block encode =
    let pass () = List.iter (fun (_, query, r) -> encode ~query r) mix in
    Gc.full_major ();
    pass ();
    let samples =
      List.init rounds (fun _ ->
          let t0 = Unix.gettimeofday () in
          pass ();
          Unix.gettimeofday () -. t0)
    in
    ms (List.nth (List.sort compare samples) (rounds / 2))
  in
  let reference_ms =
    block (fun ~query r -> ignore (Sys.opaque_identity (encode_reference session ~query r)))
  in
  let current_ms = block (encode_current buf session) in
  let total_bytes = List.fold_left ( + ) 0 bytes in
  let speedup = reference_ms /. current_ms in
  Printf.printf "  auction:%d, %d queries, %d reply bytes per pass (identical both ways)\n"
    encode_scale (List.length mix) total_bytes;
  Printf.printf "  reference (to_tree + to_string + Json.t): %8.2f ms/pass\n" reference_ms;
  Printf.printf "  current (Response.write, one buffer):      %8.2f ms/pass\n" current_ms;
  Printf.printf "  speed-up %.2fx (gate %.1fx)\n" speedup encode_gate;
  let out =
    J.Obj
      [
        ("bench", J.Str "encode");
        ("document", J.Str (Printf.sprintf "auction:%d" encode_scale));
        ("queries", J.Num (float_of_int (List.length mix)));
        ("rounds", J.Num (float_of_int rounds));
        ("bytes_per_pass", J.Num (float_of_int total_bytes));
        ("reference_ms", J.Num reference_ms);
        ("current_ms", J.Num current_ms);
        ("speedup", J.Num speedup);
        ("speedup_gate", J.Num encode_gate);
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
      ]
  in
  let path = "BENCH_encode.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path;
  if speedup < encode_gate then
    failwith (Printf.sprintf "ENCODE: speed-up %.2fx below the %.1fx gate" speedup encode_gate)

let () =
  register
    {
      id = "ENCODE";
      title = "ENCODE: XPath replies written from the document vs the Tree.t reference encoder";
      run = encode_run;
      bechamel =
        (fun () ->
          let session = Xqp.Session.of_document (Workload.Gen_auction.packed ~scale:300 ()) in
          let r = Result.get_ok (Xqp.Session.run session "//item/name") in
          let buf = Buffer.create 4096 in
          Bechamel.Test.make ~name:"ENCODE-write"
            (Bechamel.Staged.stage (fun () -> encode_current buf session ~query:"//item/name" r)));
    }

(* ------------------------------------------------------------------ *)
(* ENGINE: Auto's binding against every engine at 324k nodes            *)
(* ------------------------------------------------------------------ *)

(* The served document of perfbench's serve_warm (auction:300000, seed
   1: 323,942 nodes) and its 13 queries, each run warm through
   Session.run on Auto and on every engine Auto can bind, best of 5. The
   gate: Auto's total is at most 1.15x the total of the fastest engine
   per query. Auto's bindings before this run are read from the
   BENCH_engine.json being replaced (the committed baseline), so the file
   records the choice before and after a change to the cost model.
   Writes BENCH_engine.json. *)

let engine_scale = 300_000
let engine_seed = 1
let engine_runs = 5
let engine_gate = 1.15
let engine_json = "BENCH_engine.json"

let engine_strategies =
  Executor.[ Navigation; Nok; Twigstack; Binary_default ]

let engine_best_ms session ~engine xpath =
  let run () =
    match Xqp.Session.run ~engine session xpath with
    | Ok r -> r
    | Error e -> failwith ("ENGINE: " ^ xpath ^ ": " ^ Xqp.Error.message e)
  in
  let first = run () in
  let best = ref infinity in
  for _ = 1 to engine_runs do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (run ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  (first, ms !best)

(* Auto's binding per query id in the file this run replaces. *)
let engine_baseline () =
  let module J = Xqp_obs.Json in
  match In_channel.with_open_bin engine_json In_channel.input_all with
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
  let module J = Xqp_obs.Json in
  let before = engine_baseline () in
  let doc = Workload.Gen_auction.packed ~seed:engine_seed ~scale:engine_scale () in
  let session = Xqp.Session.of_document doc in
  let rows =
    List.map
      (fun (q : Workload.Queries.query) ->
        let xpath = q.Workload.Queries.xpath in
        let auto, auto_ms = engine_best_ms session ~engine:Executor.Auto xpath in
        let per_engine =
          List.map
            (fun engine ->
              let r, t = engine_best_ms session ~engine xpath in
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
  Printf.printf "  auction:%d seed %d (%d nodes), best of %d warm Session.run per cell, ms\n"
    engine_scale engine_seed (Document.node_count doc) engine_runs;
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
  let out =
    J.Obj
      [
        ("bench", J.Str "engine");
        ("document", J.Str (Printf.sprintf "auction:%d:%d" engine_scale engine_seed));
        ("nodes", J.Num (float_of_int (Document.node_count doc)));
        ("runs", J.Num (float_of_int engine_runs));
        ("cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", J.Str Sys.ocaml_version);
        ("auto_total_ms", J.Num auto_total);
        ("best_total_ms", J.Num best_total);
        ("ratio", J.Num ratio);
        ("gate", J.Num engine_gate);
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
      ]
  in
  let oc = open_out engine_json in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" engine_json;
  if ratio > engine_gate then
    failwith
      (Printf.sprintf "ENGINE: auto total %.2fx the best engine per query (gate %.2fx)" ratio
         engine_gate)

let () =
  register
    {
      id = "ENGINE";
      title = "ENGINE: Auto's binding vs every engine at 324k nodes";
      run = engine_run;
      bechamel =
        (fun () ->
          let session = Xqp.Session.of_document (Workload.Gen_auction.packed ~scale:300 ()) in
          Bechamel.Test.make ~name:"ENGINE-auto"
            (Bechamel.Staged.stage (fun () -> Xqp.Session.run session "//item/name")));
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
  let t0 = Unix.gettimeofday () in
  let ds =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            for round = 1 to ops do
              Fr.record recorder (obsrec_sample ((round * (d + 13)) mod 512))
            done))
  in
  Array.iter Domain.join ds;
  Unix.gettimeofday () -. t0

let obsrec_run ~scale =
  let module J = Xqp_obs.Json in
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
  (* (a) the same warm round, recorder off (unobserved fast path) vs on.
     Interleaved off/on pairs so slow drift hits both sides alike, then
     two estimates of the same constant: min(on)/min(off) over the
     pairs (noise only ever adds time, so each min converges on the
     true uncontended cost) and the median of per-pair ratios (pairing
     cancels slow drift). On a shared box either one alone still swings
     a few percent between runs — more than the effect being gated —
     but load drift rarely inflates both the same way, while a real
     regression shifts every `on` sample and therefore both statistics.
     The gate takes the smaller of the two; both are reported. *)
  let saved = Fr.enabled Fr.default in
  let pairs =
    List.init 9 (fun _ ->
        Fr.set_enabled Fr.default false;
        let off = measure ~rounds:1 round in
        Fr.set_enabled Fr.default true;
        let on_ = measure ~rounds:1 round in
        (off, on_))
  in
  Fr.set_enabled Fr.default saved;
  let median l =
    let s = List.sort compare l in
    List.nth s (List.length s / 2)
  in
  let minimum l = List.fold_left Float.min infinity l in
  let t_off = minimum (List.map fst pairs) in
  let t_on = minimum (List.map snd pairs) in
  let overhead_min_pct = (100.0 *. (t_on /. t_off)) -. 100.0 in
  let overhead_median_pct =
    (100.0 *. median (List.map (fun (off, on_) -> on_ /. off) pairs)) -. 100.0
  in
  let overhead_pct = Float.min overhead_min_pct overhead_median_pct in
  Printf.printf
    "  warm round (%d queries x10): recorder off %.3f ms, on %.3f ms (min %+.2f%%, median \
     %+.2f%%)\n"
    (List.length xpaths) (ms t_off) (ms t_on) overhead_min_pct overhead_median_pct;
  if overhead_pct > 2.0 then
    failwith
      (Printf.sprintf "OBSREC: recorder-on overhead %.2f%% exceeds the 2%% gate" overhead_pct);
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
                io = [];
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
        let elapsed = obsrec_contention ~shards ~domains ~ops in
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
  let out =
    J.Obj
      [
        ("bench", J.Str "obs_recorder");
        ("document", J.Str (Printf.sprintf "auction:%d" doc_scale));
        ("queries_per_round", J.Num (float_of_int (List.length xpaths)));
        ("recorder_off_ms", J.Num (ms t_off));
        ("recorder_on_ms", J.Num (ms t_on));
        ("overhead_pct", J.Num overhead_pct);
        ("overhead_min_pct", J.Num overhead_min_pct);
        ("overhead_median_pct", J.Num overhead_median_pct);
        ("capture_ns", J.Num capture_ns);
        ("contention_domains", J.Num (float_of_int domains));
        ("contention", J.Arr curve);
      ]
  in
  let path = "BENCH_obs_recorder.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path

let () =
  register
    {
      id = "OBSREC";
      title = "OBSREC: flight-recorder overhead, slow-capture cost and shard contention";
      run = obsrec_run;
      bechamel =
        (fun () ->
          let recorder = Xqp_obs.Flight_recorder.create () in
          let sample = obsrec_sample 17 in
          Bechamel.Test.make ~name:"OBSREC-record"
            (Bechamel.Staged.stage (fun () -> Xqp_obs.Flight_recorder.record recorder sample)));
    }

(* ------------------------------------------------------------------ *)
(* CORPUS: sharded catalogs, scatter-gather scaling, shard pruning     *)
(* ------------------------------------------------------------------ *)

(* A packed corpus (auction docs plus a bib tail) queried through
   Session.open_db at 1/2/4 scatter-gather domains. Reports corpus QPS
   per domain count, written to BENCH_corpus.json, then checks the
   catalog-level pruning fast path: a query no shard can answer must
   dispatch nothing, materialize no document and read no pages; a query
   only the bib shard can answer must dispatch exactly that shard.

   Scaling gate (as SERVE): with 4 domains, QPS must reach at least
   0.75 x min(4, cores) x the single-domain QPS. *)

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

let corpus_run ~scale =
  let module J = Xqp_obs.Json in
  let module Catalog = Xqp_storage.Catalog in
  let module M = Xqp_obs.Metrics in
  let auction_docs, doc_scale, rounds =
    match scale with `Small -> (6, 1200, 12) | `Full -> (12, 2500, 20)
  in
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
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "  corpus: %d documents (auction:%d x%d + bib x2) in %d shards, %d queries x %d rounds, %d \
     core%s\n"
    (Catalog.doc_count cat) doc_scale auction_docs (Catalog.shard_count cat)
    (List.length xpaths) rounds cores
    (if cores = 1 then "" else "s");
  let qps_at domains =
    let session = Result.get_ok (Xqp.Session.open_db ~domains output) in
    Fun.protect ~finally:(fun () -> Xqp.Session.close session) @@ fun () ->
    (* warm: lazy per-document executors and the plan cache *)
    List.iter (fun q -> ignore (Xqp.Session.query session q)) xpaths;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to rounds do
      List.iter
        (fun q ->
          match Xqp.Session.query session q with
          | Ok _ -> ()
          | Error e -> failwith (Printf.sprintf "CORPUS: %s failed: %s" q (Xqp.Error.message e)))
        xpaths
    done;
    let elapsed = Unix.gettimeofday () -. t0 in
    float_of_int (rounds * List.length xpaths) /. elapsed
  in
  Printf.printf "  %-8s %12s\n" "domains" "corpus qps";
  let cells =
    List.map
      (fun domains ->
        let qps = qps_at domains in
        Printf.printf "  %-8d %12.1f\n%!" domains qps;
        (domains, qps))
      [ 1; 2; 4 ]
  in
  let qps1 = List.assoc 1 cells and qps4 = List.assoc 4 cells in
  let expected_speedup = 0.75 *. Float.of_int (min 4 cores) in
  let speedup = qps4 /. qps1 in
  Printf.printf
    "  scaling: 1 domain %.1f qps, 4 domains %.1f qps -> %.2fx (gate %.2fx on %d core%s)\n" qps1
    qps4 speedup expected_speedup cores
    (if cores = 1 then "" else "s");
  if speedup < expected_speedup then
    failwith
      (Printf.sprintf "CORPUS: 4-domain speedup %.2fx below the %.2fx gate (%d cores)" speedup
         expected_speedup cores);
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
  Printf.printf
    "  pruning: //nosuchtag pruned %d/4 shards (dispatched %d, docs opened + pages read %d); \
     //book/title dispatched %d shard\n"
    pruned_all dispatched_none touched_none book_dispatched;
  if pruned_all <> 4 || dispatched_none <> 0 || touched_none <> 0 then
    failwith "CORPUS: pruning fast path dispatched work or touched pages";
  if book_dispatched <> 1 then
    failwith
      (Printf.sprintf "CORPUS: //book/title dispatched %d shards (want 1)" book_dispatched);
  let out =
    J.Obj
      [
        ("bench", J.Str "corpus");
        ( "corpus",
          J.Str (Printf.sprintf "auction:%d x%d + bib:12 x2, 4 shards" doc_scale auction_docs) );
        ("cores", J.Num (float_of_int cores));
        ("queries", J.Num (float_of_int (List.length xpaths)));
        ("rounds", J.Num (float_of_int rounds));
        ( "cells",
          J.Arr
            (List.map
               (fun (domains, qps) ->
                 J.Obj
                   [ ("domains", J.Num (float_of_int domains)); ("qps", J.Num qps) ])
               cells) );
        ("speedup_4_domains", J.Num speedup);
        ("speedup_gate", J.Num expected_speedup);
        ("pruned_shards", J.Num (float_of_int pruned_all));
        ("pruned_dispatched", J.Num (float_of_int dispatched_none));
        ("pruned_reads", J.Num (float_of_int touched_none));
      ]
  in
  let path = "BENCH_corpus.json" in
  let oc = open_out path in
  output_string oc (J.to_string ~pretty:true out);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s\n" path

let () =
  register
    {
      id = "CORPUS";
      title = "CORPUS: sharded catalogs, scatter-gather scaling and shard pruning";
      run = corpus_run;
      bechamel =
        (fun () ->
          let module Ps = Xqp_storage.Path_summary in
          let a = Ps.of_document (Workload.Gen_auction.packed ~scale:40 ()) in
          let b = Ps.of_document (Workload.Gen_bib.packed ~books:8 ()) in
          Bechamel.Test.make ~name:"CORPUS-summary-merge"
            (Bechamel.Staged.stage (fun () ->
                 ignore (Sys.opaque_identity (Ps.merge [ a; b ])))));
    }

(* ------------------------------------------------------------------ *)
(* Bechamel runner                                                     *)
(* ------------------------------------------------------------------ *)

let run_bechamel tests =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"xqp" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/run\n" name est
      | _ -> Printf.printf "  %-32s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let bechamel_mode = List.mem "--bechamel" args in
  let scale = if List.mem "--scale=full" args || List.mem "--full" args then `Full else `Small in
  let only =
    List.find_map
      (fun a ->
        if String.length a > 7 && String.equal (String.sub a 0 7) "--only=" then
          Some (String.split_on_char ',' (String.sub a 7 (String.length a - 7)))
        else None)
      args
  in
  let selected =
    match only with
    | None -> !experiments
    | Some ids -> List.filter (fun e -> List.mem e.id ids) !experiments
  in
  Printf.printf "xqp benchmark harness (scale=%s)\n"
    (match scale with `Small -> "small" | `Full -> "full");
  List.iter
    (fun e ->
      header (Printf.sprintf "[%s] %s" e.id e.title);
      e.run ~scale)
    selected;
  if bechamel_mode then begin
    header "Bechamel micro-benchmarks (one per experiment)";
    run_bechamel (List.map (fun e -> e.bechamel ()) selected)
  end;
  Printf.printf "\nall experiments completed.\n"
