(* Focused coverage of public API corners not exercised by the main
   suites: axis tables, printers, operator edge cases, stats records,
   store conventions, executor plumbing. *)

open Xqp_xml
open Xqp_algebra
open Xqp_physical

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

let bib_source =
  {|<bib>
      <book year="1994"><title>TCP/IP Illustrated</title><author>Stevens</author><price>65.95</price></book>
      <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><price>39.95</price></book>
    </bib>|}

let bib () = Document.of_string ~strip:true bib_source

(* ------------------------------------------------------------------ *)
(* Axis                                                                *)
(* ------------------------------------------------------------------ *)

let all_axes =
  [ Axis.Self; Axis.Child; Axis.Descendant; Axis.Descendant_or_self; Axis.Parent; Axis.Ancestor;
    Axis.Ancestor_or_self; Axis.Attribute; Axis.Following_sibling; Axis.Preceding_sibling;
    Axis.Following; Axis.Preceding ]

let test_axis_tables () =
  List.iter
    (fun axis ->
      match Axis.of_string (Axis.to_string axis) with
      | Some back -> check_bool (Axis.to_string axis) true (back = axis)
      | None -> Alcotest.failf "roundtrip failed for %s" (Axis.to_string axis))
    all_axes;
  check_bool "unknown axis" true (Axis.of_string "sideways" = None);
  check_bool "forward child" true (Axis.is_forward Axis.Child);
  check_bool "backward ancestor" false (Axis.is_forward Axis.Ancestor);
  check_bool "local child" true (Axis.is_local Axis.Child);
  check_bool "descendant not local" false (Axis.is_local Axis.Descendant);
  check_string "pp" "following-sibling" (Format.asprintf "%a" Axis.pp Axis.Following_sibling)

(* ------------------------------------------------------------------ *)
(* Operators corners                                                   *)
(* ------------------------------------------------------------------ *)

let test_navigate_axis_grouping () =
  let doc = bib () in
  let books = Document.children doc 0 in
  let nested = Operators.navigate_axis doc Axis.Child books in
  (* one group per context node *)
  (match nested with
  | Nested_list.Group groups -> check_int "group per context" 2 (List.length groups)
  | Nested_list.Atom _ -> Alcotest.fail "expected group");
  check_int "total children" 7 (List.length (Nested_list.flatten nested))

let test_value_join_contains () =
  let doc = bib () in
  let titles =
    match Symtab.find_opt (Document.symtab doc) "title" with
    | Some sym -> Document.nodes_by_name doc sym
    | None -> []
  in
  let authors =
    match Symtab.find_opt (Document.symtab doc) "author" with
    | Some sym -> Document.nodes_by_name doc sym
    | None -> []
  in
  (* no title contains an author's name in this data *)
  check_int "contains join empty" 0
    (List.length (Operators.value_join doc Pattern_graph.Contains titles authors));
  (* every title contains itself *)
  check_int "self contains" 2
    (List.length (Operators.value_join doc Pattern_graph.Contains titles titles))

let test_embeddings_multiplicity () =
  let doc = bib () in
  (* //book -> author: the two-author book contributes two embeddings *)
  let pg =
    Pattern_graph.make
      ~vertices:
        [|
          { Pattern_graph.label = Wildcard; predicates = []; output = false };
          { label = Tag "book"; predicates = []; output = false };
          { label = Tag "author"; predicates = []; output = true };
        |]
      ~arcs:[ (0, 1, Pattern_graph.Descendant); (1, 2, Pattern_graph.Child) ]
  in
  check_int "embeddings" 3
    (List.length (Operators.embeddings doc pg ~context:[ Operators.document_context ]))

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)
(* ------------------------------------------------------------------ *)

let test_printers_smoke () =
  let doc = bib () in
  let stats_line = Format.asprintf "%a" Document.pp_stats doc in
  check_bool "doc stats mentions nodes" true (contains stats_line "nodes=");
  let v = [ Value.Node 0; Value.Int 3; Value.Str "x"; Value.Frag (Tree.leaf "a" "b") ] in
  let vs = Format.asprintf "%a" (Value.pp doc) v in
  check_bool "value pp mentions node" true (contains vs "node:0");
  let nl = Nested_list.group [ Nested_list.atom 1; Nested_list.group [ Nested_list.atom 2 ] ] in
  check_string "nested pp" "[1; [2]]"
    (Format.asprintf "%a" (Nested_list.pp Format.pp_print_int) nl);
  let schema =
    Schema_tree.element "r"
      ~attrs:[ ("k", Schema_tree.From_component 2) ]
      [ Schema_tree.For_component (0, [ Schema_tree.placeholder 1 ]);
        Schema_tree.If_component (3, [ Schema_tree.Text "t" ]) ]
  in
  let ss = Format.asprintf "%a" Schema_tree.pp schema in
  check_bool "schema pp has phi" true (contains ss "phi$0");
  check_int "placeholder count" 4 (Schema_tree.placeholder_count schema);
  check_bool "schema depth" true (Schema_tree.depth schema >= 2);
  let pattern = Xqp_xpath.Parser.parse_pattern "//a[b]/c" in
  let ps = Format.asprintf "%a" Pattern_graph.pp pattern in
  check_bool "pattern pp marks output" true (contains ps "{out}");
  let env = Env.extend_let Env.empty "v" (fun _ -> [ Value.Int 1 ]) in
  check_string "let-only schema" "$v" (Env.schema env);
  let es = Format.asprintf "%a" (Env.pp doc) env in
  check_bool "env pp shows binding" true (contains es "$v")

(* ------------------------------------------------------------------ *)
(* Document corners                                                    *)
(* ------------------------------------------------------------------ *)

let test_document_corners () =
  let doc = Document.of_string "<r a=\"1\" b=\"2\"><x/>text<?pi body?><!--c--></r>" in
  (* first_child is the first attribute; first_content_child skips them *)
  let fc = Option.get (Document.first_child doc 0) in
  check_bool "first child is attr" true (Document.kind doc fc = Document.Attribute);
  let fcc = Option.get (Document.first_content_child doc 0) in
  check_string "content child" "x" (Document.name doc fcc);
  check_bool "attr missing" true (Document.attribute_value doc 0 "zz" = None);
  (* node names by kind *)
  let names = List.init (Document.node_count doc) (Document.name doc) in
  check_bool "pi name" true (List.mem "pi" names);
  check_bool "comment marker" true (List.mem "#comment" names);
  check_bool "text marker" true (List.mem "#text" names);
  (* typed_value of comments is empty *)
  let comment =
    Option.get
      (List.find_opt (fun id -> Document.kind doc id = Document.Comment)
         (List.init (Document.node_count doc) Fun.id))
  in
  check_string "comment typed value" "" (Document.typed_value doc comment);
  (* shared array view *)
  let sym = Option.get (Symtab.find_opt (Document.symtab doc) "x") in
  check_int "array view" 1 (Array.length (Document.nodes_by_name_array doc sym))

(* ------------------------------------------------------------------ *)
(* Succinct store conventions                                          *)
(* ------------------------------------------------------------------ *)

let test_store_conventions () =
  let store =
    Xqp_storage.Succinct_store.of_tree
      (Xml_parser.parse_string "<r a=\"1\">t<?tgt body?><!--c--><e/></r>")
  in
  let labels = ref [] in
  Xqp_storage.Succinct_store.iter_nodes store (fun pos ->
      labels := Xqp_storage.Succinct_store.tag_name store pos :: !labels);
  let labels = List.rev !labels in
  Alcotest.(check (list string)) "label conventions"
    [ "r"; "@a"; "#text"; "?tgt"; "#comment"; "e" ]
    labels;
  let kinds =
    let acc = ref [] in
    Xqp_storage.Succinct_store.iter_nodes store (fun pos ->
        acc := Xqp_storage.Succinct_store.kind_of store pos :: !acc);
    List.rev !acc
  in
  Alcotest.(check int) "kind count" 6 (List.length kinds);
  check_bool "pi kind" true (List.mem Xqp_storage.Succinct_store.Pi kinds)

(* ------------------------------------------------------------------ *)
(* Stats records of the engines                                        *)
(* ------------------------------------------------------------------ *)

let test_engine_stats_records () =
  let doc = bib () in
  let pattern = Xqp_xpath.Parser.parse_pattern "//book[author]/title" in
  let context = [ Operators.document_context ] in
  let _, tw = Twig_stack.match_pattern_with_stats doc pattern ~context in
  check_bool "twig pushes" true (tw.Twig_stack.pushes > 0);
  check_bool "twig paths >= merged" true
    (tw.Twig_stack.path_solutions >= tw.Twig_stack.merged_solutions / 10);
  let _, nk = Nok.match_pattern_with_stats doc pattern ~context in
  check_bool "nok visited" true (nk.Nok.nodes_visited > 0);
  let books = Array.of_list (Executor.execute (Executor.create doc) (Executor.Query "//book")) in
  let titles = Array.of_list (Executor.execute (Executor.create doc) (Executor.Query "//title")) in
  let pairs, sj = Structural_join.join_with_stats doc Pattern_graph.Child books titles in
  check_int "sj pairs" 2 (List.length pairs);
  check_int "sj emitted" 2 sj.Structural_join.pairs_emitted;
  check_bool "sj scanned" true (sj.Structural_join.ancestors_scanned = 2);
  (* sibling join through the Following_sibling relation *)
  let authors =
    Array.of_list (Executor.execute (Executor.create doc) (Executor.Query "//author"))
  in
  let sib = Structural_join.join doc Pattern_graph.Following_sibling titles authors in
  check_int "title before authors" 3 (List.length sib)

(* ------------------------------------------------------------------ *)
(* Statistics / cost model corners                                     *)
(* ------------------------------------------------------------------ *)

let test_statistics_corners () =
  let doc = bib () in
  let stats = Statistics.build doc in
  (* wildcard estimate sums over tags *)
  let wild =
    Statistics.estimate_rel stats Pattern_graph.Child ~parent:Pattern_graph.Wildcard
      ~child:(Pattern_graph.Tag "author")
  in
  check_bool "wildcard pc" true (wild = 3.0);
  let ad =
    Statistics.estimate_rel stats Pattern_graph.Descendant ~parent:(Pattern_graph.Tag "bib")
      ~child:Pattern_graph.Wildcard
  in
  check_bool "ad wildcard child" true (ad > 0.0);
  check_bool "eq most selective" true
    (Statistics.predicate_selectivity { Pattern_graph.comparison = Eq; literal = Num 1.0 }
    < Statistics.predicate_selectivity { Pattern_graph.comparison = Ne; literal = Num 1.0 });
  let line = Format.asprintf "%a" Statistics.pp stats in
  check_bool "stats pp" true (contains line "elements=");
  List.iter
    (fun engine -> check_bool "name nonempty" true (String.length (Cost_model.engine_name engine) > 0))
    Cost_model.all_engines;
  (* sibling arcs make twigstack unsupported *)
  let sib_pattern =
    Pattern_graph.make
      ~vertices:
        [|
          { Pattern_graph.label = Wildcard; predicates = []; output = false };
          { label = Tag "title"; predicates = []; output = false };
          { label = Tag "author"; predicates = []; output = true };
        |]
      ~arcs:[ (0, 1, Pattern_graph.Descendant); (1, 2, Pattern_graph.Following_sibling) ]
  in
  check_bool "twig rejects siblings" false (Cost_model.supports sib_pattern Cost_model.Twig_join);
  check_bool "nok supports siblings" true
    (Cost_model.supports sib_pattern Cost_model.Nok_navigation)

let test_sibling_pattern_engines_agree () =
  let doc = bib () in
  let sib_pattern =
    Pattern_graph.make
      ~vertices:
        [|
          { Pattern_graph.label = Wildcard; predicates = []; output = false };
          { label = Tag "title"; predicates = []; output = false };
          { label = Tag "author"; predicates = []; output = true };
        |]
      ~arcs:[ (0, 1, Pattern_graph.Descendant); (1, 2, Pattern_graph.Following_sibling) ]
  in
  let context = [ Operators.document_context ] in
  let reference = Operators.pattern_match doc sib_pattern ~context in
  check_bool "nok = reference on siblings" true
    (List.map (fun (v, s) -> (v, Node_set.to_list s)) (Nok.match_pattern doc sib_pattern ~context)
    = reference);
  check_bool "binary = reference on siblings" true
    (Binary_join.match_pattern doc sib_pattern ~context = reference);
  match reference with
  | [ (_, authors) ] -> check_int "authors after titles" 3 (List.length authors)
  | _ -> Alcotest.fail "shape"

(* ------------------------------------------------------------------ *)
(* Executor / Eval plumbing                                            *)
(* ------------------------------------------------------------------ *)

let test_executor_plumbing () =
  let doc = bib () in
  let exec = Executor.create doc in
  List.iter
    (fun s -> check_bool "strategy name" true (String.length (Executor.strategy_name s) > 0))
    (Executor.Reference :: Executor.Auto :: Executor.all_strategies);
  (* a mixed plan: Tpm base with a trailing parent step *)
  let plan = Rewrite.optimize (Xqp_xpath.Parser.parse "/bib/book/title/..") in
  let result = Executor.execute exec (Executor.Plan plan) in
  check_int "titles' parents are books" 2 (List.length result);
  ignore (Executor.content_index exec);
  (* Eval extras *)
  let v = Xqp_xquery.Eval.eval_query exec "/bib/book[1]/@year" in
  check_string "attr result string" "1994" (Xqp_xquery.Eval.result_string exec v);
  let bound =
    Xqp_xquery.Eval.eval exec ~bindings:[ ("n", [ Value.Int 5 ]) ]
      (Xqp_xquery.Xq_parser.parse "$n * 2")
  in
  check_bool "seeded binding" true (bound = [ Value.Int 10 ]);
  let d = Xqp_xquery.Eval.eval_query exec "count(doc(\"x\"))" in
  check_bool "doc() is the root" true (d = [ Value.Int 1 ])

let test_xquery_parser_corners () =
  (* nested comments, attr templates mixing text and exprs *)
  (match Xqp_xquery.Xq_parser.parse "(: a (: nested :) b :) 1" with
  | Xqp_xquery.Ast.Literal_int 1 -> ()
  | _ -> Alcotest.fail "nested comment");
  (match Xqp_xquery.Xq_parser.parse "<a k=\"x{1}y\"/>" with
  | Xqp_xquery.Ast.Constructor
      { attrs = [ ("k", [ Attr_text "x"; Attr_expr _; Attr_text "y" ]) ]; _ } ->
    ()
  | _ -> Alcotest.fail "attr template pieces");
  List.iter
    (fun q ->
      match Xqp_xquery.Xq_parser.parse q with
      | exception Xqp_xquery.Xq_parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error: %s" q)
    [ "<a k=\"unterminated/>"; "(: open"; "some $x in 1"; "every x in 1 satisfies 1" ]

let test_streaming_attr_predicate () =
  (* a hand-built chain with a predicate on the trailing attribute vertex *)
  let pattern =
    Pattern_graph.make
      ~vertices:
        [|
          { Pattern_graph.label = Wildcard; predicates = []; output = false };
          { label = Tag "b"; predicates = []; output = false };
          {
            label = Tag "k";
            predicates = [ { Pattern_graph.comparison = Eq; literal = Str "5" } ];
            output = true;
          };
        |]
      ~arcs:[ (0, 1, Pattern_graph.Descendant); (1, 2, Pattern_graph.Attribute) ]
  in
  check_bool "supported" true (Streaming.supported pattern);
  let source = "<r><b k=\"5\"/><b k=\"6\"/><c><b k=\"5\"/></c></r>" in
  check_int "two matches" 2 (List.length (Streaming.run_string pattern source));
  let doc = Document.of_string source in
  let reference =
    match Operators.pattern_match doc pattern ~context:[ Operators.document_context ] with
    | [ (_, nodes) ] -> nodes
    | _ -> []
  in
  check_bool "equals reference" true (Streaming.run_string pattern source = reference)

(* ------------------------------------------------------------------ *)
(* The session API end to end                                          *)
(* ------------------------------------------------------------------ *)

let test_facade () =
  let module Session = Xqp.Session in
  let get = function Ok v -> v | Error e -> Alcotest.fail (Xqp.Error.message e) in
  let db = get (Session.of_string bib_source) in
  let titles = get (Session.query db "//book/title") in
  check_int "query" 2 (List.length titles);
  check_bool "engine override agrees" true
    (get (Session.query ~engine:Xqp.Physical.Executor.Nok db "//book/title") = titles);
  check_bool "exists" true (get (Session.exists db "//author"));
  check_bool "not exists" false (get (Session.exists db "//nothing"));
  check_bool "first" true (get (Session.first db "//title") = List.nth_opt titles 0);
  check_string "text" "TCP/IP Illustrated" (Session.text db (List.hd titles));
  check_bool "to_xml" true (contains (Session.to_xml db titles) "<title>");
  check_string "xquery" "2" (get (Session.xquery_string db "count(//book)"));
  check_bool "explain mentions engine" true
    (contains (get (Session.explain db "//book[author]/title")).Session.rendered "chosen engine:");
  (* save / reload roundtrip through the session API *)
  let path = Filename.temp_file "xqp_facade" ".xqdb" in
  Session.save db path;
  let db2 = get (Session.open_db path) in
  check_int "reloaded query" 2 (List.length (get (Session.query db2 "//book/title")));
  Sys.remove path

let suite =
  [
    ("coverage.axis", [ Alcotest.test_case "tables" `Quick test_axis_tables ]);
    ( "coverage.operators",
      [
        Alcotest.test_case "navigate_axis grouping" `Quick test_navigate_axis_grouping;
        Alcotest.test_case "value join contains" `Quick test_value_join_contains;
        Alcotest.test_case "embeddings multiplicity" `Quick test_embeddings_multiplicity;
      ] );
    ("coverage.printers", [ Alcotest.test_case "smoke" `Quick test_printers_smoke ]);
    ("coverage.document", [ Alcotest.test_case "corners" `Quick test_document_corners ]);
    ("coverage.store", [ Alcotest.test_case "label conventions" `Quick test_store_conventions ]);
    ( "coverage.engines",
      [
        Alcotest.test_case "stats records" `Quick test_engine_stats_records;
        Alcotest.test_case "sibling patterns" `Quick test_sibling_pattern_engines_agree;
      ] );
    ( "coverage.stats_cost",
      [ Alcotest.test_case "corners" `Quick test_statistics_corners ] );
    ("coverage.facade", [ Alcotest.test_case "end to end" `Quick test_facade ]);
    ( "coverage.plumbing",
      [
        Alcotest.test_case "executor and eval" `Quick test_executor_plumbing;
        Alcotest.test_case "xquery parser corners" `Quick test_xquery_parser_corners;
        Alcotest.test_case "streaming attr predicate" `Quick test_streaming_attr_predicate;
      ] );
  ]
