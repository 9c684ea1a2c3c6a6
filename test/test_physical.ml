(* Tests for xqp_physical: structural joins, binary-join twig evaluation,
   TwigStack, NoK, navigation, statistics, cost model, executor and
   streaming — including differential tests of every engine against the
   algebra's reference τ on random documents × random patterns. *)

open Xqp_xml
open Xqp_algebra
open Xqp_physical

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qcheck = QCheck_alcotest.to_alcotest

let bib_source =
  {|<bib>
      <book year="1994"><title>TCP/IP Illustrated</title><author>Stevens</author><price>65.95</price></book>
      <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><price>39.95</price></book>
      <book year="1999"><title>Economics</title><author>Bosak</author><price>120</price></book>
      <article><title>On Joins</title><author>Stevens</author></article>
    </bib>|}

let bib () = Document.of_string ~strip:true bib_source

let ids doc name =
  match Symtab.find_opt (Document.symtab doc) name with
  | Some sym -> Document.nodes_by_name doc sym
  | None -> []

(* ------------------------------------------------------------------ *)
(* Structural join                                                     *)
(* ------------------------------------------------------------------ *)

let test_stack_tree_matches_reference () =
  let doc = bib () in
  let books = Array.of_list (ids doc "book") in
  let authors = Array.of_list (ids doc "author") in
  let reference rel =
    Operators.structural_join doc rel (Array.to_list books) (Array.to_list authors)
  in
  List.iter
    (fun rel ->
      let fast = Structural_join.join doc rel books authors in
      check_bool "pairs equal" true (fast = reference rel))
    [ Pattern_graph.Child; Pattern_graph.Descendant ];
  (* attribute rel *)
  let years = Array.of_list (ids doc "year") in
  check_bool "attr pairs" true
    (Structural_join.join doc Pattern_graph.Attribute books years
    = Operators.structural_join doc Pattern_graph.Attribute (Array.to_list books)
        (Array.to_list years))

let test_structural_join_semijoins () =
  let doc = bib () in
  let root = [| Document.root doc |] in
  let authors = Array.of_list (ids doc "author") in
  let desc = Structural_join.semijoin_descendants doc Pattern_graph.Descendant root authors in
  check_int "all authors below root" 5 (List.length desc);
  let books = Array.of_list (ids doc "book") in
  let with_author =
    Structural_join.semijoin_ancestors doc Pattern_graph.Child books authors
  in
  check_int "books with authors" 3 (List.length with_author)

let test_structural_join_with_document_context () =
  let doc = bib () in
  let ctx = [| Operators.document_context |] in
  let bibs = Array.of_list (ids doc "bib") in
  check_int "doc/bib" 1
    (List.length (Structural_join.join doc Pattern_graph.Child ctx bibs));
  check_int "doc//author" 5
    (List.length
       (Structural_join.join doc Pattern_graph.Descendant ctx (Array.of_list (ids doc "author"))))

(* ------------------------------------------------------------------ *)
(* Random documents and patterns for differential testing              *)
(* ------------------------------------------------------------------ *)

let gen_doc =
  (* Size is capped: engine differential tests run wildcard/descendant
     patterns whose full-embedding enumeration is super-linear, so the
     random documents stay in the low hundreds of nodes. *)
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d" ] in
  let tree =
    fix
      (fun self n ->
        if n <= 0 then
          oneof
            [
              map Tree.text (oneofl [ "1"; "7"; "xy"; "hello" ]);
              map (fun t -> Tree.elt t []) tag;
              (* comments and PIs must be invisible to every engine *)
              return (Tree.Comment "c");
              return (Tree.Pi ("p", "b"));
            ]
        else
          let* name = tag in
          let* with_attr = frequency [ (3, return false); (1, return true) ] in
          let attrs = if with_attr then [ ("k", "5") ] else [] in
          let* kids = list_size (int_range 1 3) (self (n / 2)) in
          return (Tree.elt ~attrs name kids))
      8
  in
  let* kids = list_size (int_range 1 4) tree in
  return (Document.of_tree (Tree.elt "r" kids))

(* Random tree pattern over tags a..d: 2-5 vertices, mixed rels, optional
   predicate, output = random non-context vertex. *)
let gen_pattern =
  let open QCheck2.Gen in
  let tag_label =
    frequency [ (5, map (fun t -> Pattern_graph.Tag t) (oneofl [ "a"; "b"; "c"; "d" ])); (1, return Pattern_graph.Wildcard) ]
  in
  let rel = frequency [ (2, return Pattern_graph.Child); (2, return Pattern_graph.Descendant) ] in
  let* n = int_range 1 4 in
  (* vertices 1..n attached to a random earlier vertex *)
  let* labels = list_repeat n tag_label in
  let* rels = list_repeat n rel in
  let* parents =
    (* parent of vertex i+1 among 0..i *)
    let rec gen_parents i acc =
      if i > n then return (List.rev acc)
      else
        let* p = int_range 0 (i - 1) in
        gen_parents (i + 1) (p :: acc)
    in
    gen_parents 1 []
  in
  let* output = int_range 1 n in
  let* with_pred = frequency [ (3, return false); (1, return true) ] in
  let* pred =
    oneofl
      [
        { Pattern_graph.comparison = Pattern_graph.Eq; literal = Pattern_graph.Str "1" };
        { Pattern_graph.comparison = Pattern_graph.Lt; literal = Pattern_graph.Num 5.0 };
        { Pattern_graph.comparison = Pattern_graph.Ge; literal = Pattern_graph.Num 7.0 };
        { Pattern_graph.comparison = Pattern_graph.Contains; literal = Pattern_graph.Str "ell" };
        { Pattern_graph.comparison = Pattern_graph.Ne; literal = Pattern_graph.Str "xy" };
      ]
  in
  let vertices =
    Array.init (n + 1) (fun v ->
        if v = 0 then { Pattern_graph.label = Wildcard; predicates = []; output = false }
        else
          let predicates = if with_pred && v = output then [ pred ] else [] in
          { Pattern_graph.label = List.nth labels (v - 1); predicates; output = v = output })
  in
  let arcs = List.mapi (fun i p -> (p, i + 1, List.nth rels i)) parents in
  return (Pattern_graph.make ~vertices ~arcs)

let gen_doc_and_pattern = QCheck2.Gen.pair gen_doc gen_pattern

let normalize result = List.sort compare (List.map (fun (v, ns) -> (v, List.sort compare ns)) result)

let nok_lists = List.map (fun (v, s) -> (v, Node_set.to_list s))

let engine_agrees name run =
  QCheck2.Test.make ~name ~count:200 gen_doc_and_pattern (fun (doc, pattern) ->
      let context = [ Operators.document_context ] in
      let expected = normalize (Operators.pattern_match doc pattern ~context) in
      let actual = normalize (run doc pattern context) in
      if expected <> actual then false else true)

(* A wider generator: attribute and following-sibling arcs, predicates
   on any vertex (inner ones included), up to two outputs, and context
   sets of arbitrary nodes — nested ones and the virtual document node
   among them. *)
let gen_wide_pattern =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let* rels =
    list_repeat n
      (frequency
         [
           (3, return Pattern_graph.Child);
           (2, return Pattern_graph.Descendant);
           (1, return Pattern_graph.Attribute);
           (1, return Pattern_graph.Following_sibling);
         ])
  in
  let* labels =
    list_repeat n
      (frequency
         [
           (5, map (fun t -> Pattern_graph.Tag t) (oneofl [ "a"; "b"; "c"; "d"; "k" ]));
           (1, return Pattern_graph.Wildcard);
         ])
  in
  let* parents =
    let rec gen_parents i acc =
      if i > n then return (List.rev acc)
      else
        let* p = int_range 0 (i - 1) in
        gen_parents (i + 1) (p :: acc)
    in
    gen_parents 1 []
  in
  let* preds =
    list_repeat n
      (frequency
         [
           (4, return []);
           ( 1,
             map
               (fun p -> [ p ])
               (oneofl
                  Pattern_graph.
                    [
                      { comparison = Eq; literal = Str "1" };
                      { comparison = Lt; literal = Num 6.0 };
                      { comparison = Ge; literal = Num 5.0 };
                      { comparison = Contains; literal = Str "l" };
                      { comparison = Ne; literal = Str "xy" };
                    ]) );
         ])
  in
  let* out1 = int_range 1 n in
  let* out2 = int_range 1 n in
  let vertices =
    Array.init (n + 1) (fun v ->
        if v = 0 then { Pattern_graph.label = Wildcard; predicates = []; output = false }
        else
          {
            Pattern_graph.label = List.nth labels (v - 1);
            predicates = List.nth preds (v - 1);
            output = v = out1 || v = out2;
          })
  in
  let arcs = List.mapi (fun i p -> (p, i + 1, List.nth rels i)) parents in
  return (Pattern_graph.make ~vertices ~arcs)

let gen_wide_case =
  let open QCheck2.Gen in
  let* doc = gen_doc in
  let* pattern = gen_wide_pattern in
  let* context =
    frequency
      [
        (1, return [ Operators.document_context ]);
        ( 3,
          list_size (int_range 1 6)
            (int_range (-1) (Document.node_count doc - 1)) );
      ]
  in
  return (doc, pattern, context)

(* Every engine that accepts the pattern, and the kernel itself, against
   the reference τ from the generated context. *)
let prop_wide_engines_agree =
  QCheck2.Test.make ~name:"wide patterns and contexts: kernel and engines = reference τ"
    ~count:300 gen_wide_case (fun (doc, pattern, context) ->
      let reference = normalize (Operators.pattern_match doc pattern ~context) in
      let exec = Executor.create doc in
      let fail name =
        QCheck2.Test.fail_reportf "%s disagrees on %a from [%s] over %s" name Pattern_graph.pp
          pattern
          (String.concat "; " (List.map string_of_int context))
          (Serializer.to_string (Document.to_tree doc 0))
      in
      let agree name result = result = reference || fail name in
      agree "nok kernel" (normalize (nok_lists (Nok.match_pattern doc pattern ~context)))
      && List.for_all
           (fun strategy ->
             (not (Planner.supports strategy pattern))
             ||
             match (Executor.run_pattern exec strategy pattern ~context, reference) with
             | [ (v1, n1) ], (v2, n2) :: _ when strategy = Executor.Navigation ->
               (* navigation projects the first output only *)
               (v1 = v2 && List.sort compare n1 = n2) || fail "navigation"
             | result, _ -> agree (Executor.strategy_name strategy) (normalize result))
           Executor.all_strategies)

(* Nested // contexts over recursive lists (Q5's parlists): every text
   below either parlist is found once, though it lies below both. *)
let test_nok_nested_descendant_contexts () =
  let doc =
    Document.of_string ~strip:true
      "<r><parlist><listitem><parlist><listitem><text>a</text></listitem></parlist>\
       <text>b</text></listitem><listitem><text>c</text></listitem></parlist></r>"
  in
  let pattern = Xqp_xpath.Parser.parse_pattern "//listitem//text" in
  let parlists = ids doc "parlist" in
  let check_from context =
    let reference = Operators.pattern_match doc pattern ~context in
    let got = nok_lists (Nok.match_pattern doc pattern ~context) in
    check_bool "nok = reference" true (normalize got = normalize reference);
    List.iter
      (fun (_, nodes) -> check_int "no duplicates" (List.length (List.sort_uniq compare nodes)) (List.length nodes))
      got
  in
  check_int "two nested parlists" 2 (List.length parlists);
  check_from parlists;
  check_from [ Operators.document_context ];
  match Nok.match_pattern doc pattern ~context:parlists with
  | [ (_, texts) ] -> check_int "three texts" 3 (Node_set.length texts)
  | _ -> Alcotest.fail "one output expected"

(* Every engine that accepts [pattern], run from [context]: the NoK
   kernel, NoK over the paged store, the standalone joins and stacks,
   every executor strategy and, from the document node, the streaming
   matcher over [source] (the text [doc] was parsed from, unstripped).
   Each must equal the reference τ; [expect], when given, pins it. *)
let check_every_engine ?expect ~source doc pattern ~context =
  let reference = normalize (Operators.pattern_match doc pattern ~context) in
  (match expect with
  | Some e -> check_bool "reference τ as expected" true (reference = normalize e)
  | None -> ());
  let agree name result =
    if normalize result <> reference then
      Alcotest.failf "%s disagrees with the reference τ on %a from [%s]" name Pattern_graph.pp
        pattern
        (String.concat "; " (List.map string_of_int context))
  in
  agree "nok kernel" (nok_lists (Nok.match_pattern doc pattern ~context));
  let temp = Filename.temp_file "xqp_paged" ".xqdb" in
  Xqp_storage.Store_io.save (Xqp_storage.Succinct_store.of_document doc) temp;
  let paged = Xqp_storage.Paged_store.open_store ~page_size:256 ~pool_pages:8 temp in
  agree "nok paged" (Nok_paged.match_pattern doc paged pattern ~context);
  Xqp_storage.Paged_store.close paged;
  Sys.remove temp;
  if Binary_join.supported pattern then
    agree "binary join" (Binary_join.match_pattern doc pattern ~context);
  if Twig_stack.supported pattern then
    agree "twigstack" (Twig_stack.match_pattern doc pattern ~context);
  if Path_stack.supported pattern then
    agree "pathstack" (Path_stack.match_pattern doc pattern ~context);
  let exec = Executor.create doc in
  List.iter
    (fun strategy ->
      if Planner.supports strategy pattern then
        match (Executor.run_pattern exec strategy pattern ~context, reference) with
        | [ first ], _ :: others when strategy = Executor.Navigation ->
          (* navigation projects the first output only *)
          agree "navigation" (first :: others)
        | result, _ -> agree (Executor.strategy_name strategy) result)
    Executor.all_strategies;
  if Streaming.supported pattern && context = [ Operators.document_context ] then
    agree "streaming"
      (List.map (fun v -> (v, Streaming.run_string pattern source)) (Pattern_graph.outputs pattern))

(* Numeric predicates over values on both sides of the number reader's
   fast grammar, in element text and in attributes. *)
let edge_values =
  [ "12"; "12."; ".5"; "-3"; " 7 "; "007"; "12.50"; "1e3"; "1_000"; "0x10"; "nan"; "inf"; "-0";
    "9007199254740993"; "9007199254740992"; "0.1234567890123456789012345"; "0.3"; ""; "abc" ]

let test_numeric_edges_every_engine () =
  let source =
    "<r>"
    ^ String.concat ""
        (List.map (fun v -> Printf.sprintf "<v>%s</v><w a=\"%s\"/>" v v) edge_values)
    ^ "</r>"
  in
  let doc = Document.of_string source in
  let literals = [ 0.0; 0.3; 0.5; 7.0; 12.0; 12.5; 16.0; 1000.0; 9007199254740992.0; -3.0; Float.nan ] in
  let comparisons = Pattern_graph.[ Gt; Lt; Eq; Ne; Ge; Le ] in
  List.iter
    (fun n ->
      List.iter
        (fun comparison ->
          let pred = { Pattern_graph.comparison; literal = Num n } in
          List.iter
            (fun pattern ->
              check_every_engine ~source doc pattern ~context:[ Operators.document_context ])
            [
              Pattern_graph.path [ (Descendant, Tag "v", [ pred ]) ];
              Pattern_graph.path [ (Descendant, Tag "w", []); (Attribute, Tag "a", [ pred ]) ];
              Pattern_graph.path [ (Child, Tag "r", []); (Child, Tag "v", [ pred ]) ];
            ])
        comparisons)
    literals

(* Attributes have no siblings: the shrunk counterexample
   [*[/fs::*{out}][/fs::a]] from an attribute context is empty in every
   engine (it once reached the owner's later attributes and children). *)
let test_attribute_has_no_siblings () =
  let source = {|<r k="5" j="6"><a/><b/><a k="5"/></r>|} in
  let doc = Document.of_string source in
  let vertex ?(output = false) label = { Pattern_graph.label; predicates = []; output } in
  let pattern =
    Pattern_graph.make
      ~vertices:[| vertex Wildcard; vertex ~output:true Wildcard; vertex (Tag "a") |]
      ~arcs:[ (0, 1, Following_sibling); (0, 2, Following_sibling) ]
  in
  let attributes = Document.attributes doc (Document.root doc) in
  check_int "two attributes on the root" 2 (List.length attributes);
  List.iter
    (fun k ->
      check_every_engine ~expect:[ (1, []) ] ~source doc pattern ~context:[ k ])
    attributes;
  (* from an element the same pattern still answers *)
  check_every_engine ~expect:[ (1, [ ids doc "b" |> List.hd; List.nth (ids doc "a") 1 ]) ]
    ~source doc pattern ~context:[ List.hd (ids doc "a") ]

(* The kernel checks the deadline itself: called directly (no executor
   check before it) with one already past, it raises; with none it
   answers in full. *)
let test_nok_deadline () =
  let doc = Xqp_workload.Gen_auction.packed ~seed:1 ~scale:2000 () in
  let pattern = Xqp_xpath.Parser.parse_pattern "//item/name" in
  let context = [ Operators.document_context ] in
  (match Nok.match_pattern ~deadline:(Unix.gettimeofday () -. 1.0) doc pattern ~context with
  | _ -> Alcotest.fail "an expired deadline was not checked"
  | exception Executor.Deadline_exceeded -> ());
  let full = nok_lists (Nok.match_pattern doc pattern ~context) in
  check_bool "no deadline: the full answer" true
    (normalize full = normalize (Operators.pattern_match doc pattern ~context));
  check_bool "non-empty" true (List.exists (fun (_, nodes) -> nodes <> []) full)

(* Navigation checks the deadline itself, once per 256 context nodes of a
   step: called directly with one already past, it raises; with none it
   answers in full. *)
let test_navigation_deadline () =
  let doc = Xqp_workload.Gen_auction.packed ~seed:1 ~scale:2000 () in
  let plan = Xqp_xpath.Parser.parse "//item/name" in
  let context = [ Operators.document_context ] in
  (match Navigation.eval_plan ~deadline:(Unix.gettimeofday () -. 1.0) doc plan ~context with
  | _ -> Alcotest.fail "an expired deadline was not checked"
  | exception Executor.Deadline_exceeded -> ());
  let full = Navigation.eval_plan doc plan ~context in
  check_bool "no deadline: the full answer" true
    (full = Executor.execute (Executor.create doc) ~strategy:Executor.Reference (Executor.Plan plan));
  check_bool "non-empty" true (full <> [])

let prop_binary_join_agrees =
  engine_agrees "binary semijoin twig = reference τ" (fun doc pattern context ->
      Binary_join.match_pattern doc pattern ~context)

let prop_twigstack_agrees =
  engine_agrees "TwigStack = reference τ" (fun doc pattern context ->
      Twig_stack.match_pattern doc pattern ~context)

let prop_nok_agrees =
  engine_agrees "NoK = reference τ" (fun doc pattern context ->
      nok_lists (Nok.match_pattern doc pattern ~context))

let prop_nok_paged_agrees =
  let temp = Filename.temp_file "xqp_paged" ".xqdb" in
  engine_agrees "NoK over the paged (disk) store = reference τ" (fun doc pattern context ->
      Xqp_storage.Store_io.save (Xqp_storage.Succinct_store.of_document doc) temp;
      let paged = Xqp_storage.Paged_store.open_store ~page_size:256 ~pool_pages:8 temp in
      let result = Nok_paged.match_pattern doc paged pattern ~context in
      Xqp_storage.Paged_store.close paged;
      result)

let prop_pathstack_agrees =
  (* PathStack handles chains; fall back to the reference on others so the
     generator's coverage is preserved *)
  engine_agrees "PathStack = reference τ (chains)" (fun doc pattern context ->
      if Path_stack.supported pattern then Path_stack.match_pattern doc pattern ~context
      else Operators.pattern_match doc pattern ~context)

let prop_join_orders_agree =
  QCheck2.Test.make ~name:"every join order gives the same result" ~count:60
    gen_doc_and_pattern (fun (doc, pattern) ->
      let context = [ Operators.document_context ] in
      let expected =
        normalize (Operators.pattern_match doc pattern ~context)
      in
      let orders = Binary_join.all_orders pattern in
      List.for_all
        (fun order ->
          let result, _ = Binary_join.evaluate_with_order doc pattern ~context ~order in
          normalize result = expected)
        orders)

let prop_executor_strategies_agree =
  QCheck2.Test.make ~name:"all executor strategies (incl. Auto) = reference τ" ~count:100
    gen_doc_and_pattern (fun (doc, pattern) ->
      let exec = Executor.create doc in
      let context = [ Operators.document_context ] in
      let reference = normalize (Operators.pattern_match doc pattern ~context) in
      List.for_all
        (fun strategy ->
          match Executor.run_pattern exec strategy pattern ~context with
          | result ->
            (* the navigation strategy projects only the first output *)
            if strategy = Executor.Navigation then
              match (result, reference) with
              | [ (v1, n1) ], (v2, n2) :: _ -> v1 = v2 && List.sort compare n1 = n2
              | _ -> false
            else normalize result = reference
          | exception _ -> false)
        (Executor.Auto :: Executor.all_strategies))

let prop_navigation_strategy_agrees =
  QCheck2.Test.make ~name:"navigation strategy = reference τ" ~count:150 gen_doc_and_pattern
    (fun (doc, pattern) ->
      let exec = Executor.create doc in
      let context = [ Operators.document_context ] in
      let expected = Operators.pattern_match doc pattern ~context in
      (* the navigation strategy projects the first output vertex only *)
      match (Executor.run_pattern exec Executor.Navigation pattern ~context, expected) with
      | [ (v1, n1) ], (v2, n2) :: _ -> v1 = v2 && List.sort compare n1 = List.sort compare n2
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fixed-query differential tests through the executor                 *)
(* ------------------------------------------------------------------ *)

let queries =
  [
    ("/bib", 1);
    ("/bib/book", 3);
    ("//author", 5);
    ("/bib/book/author", 4);
    ("//book[author]/title", 3);
    ("//book[price > 100]/title", 1);
    ("//book[price < 70][author]/price", 2);
    ("/bib/book/@year", 3);
    ("//book[@year = \"2000\"]/title", 1);
    ("//*[author]", 4);
    ("//book[contains(title, \"Web\")]", 1);
    ("/bib/article/author", 1);
    ("//nonexistent", 0);
    ("/bib/book[2]/author", 2);
    ("/bib/book/title/../price", 3);
    ("//book/title/text()", 3);
    ("//book/title | //article/title", 4);
    ("/bib/book[price > 100]/title | //article/author | //nonexistent", 2);
  ]

let test_executor_queries_all_strategies () =
  let doc = bib () in
  let exec = Executor.create doc in
  List.iter
    (fun (q, expected_count) ->
      let reference =
        Executor.execute exec ~strategy:Executor.Reference ~optimize:true (Executor.Query q)
      in
      check_int (q ^ " count") expected_count (List.length reference);
      List.iter
        (fun strategy ->
          let result = Executor.execute exec ~strategy (Executor.Query q) in
          if result <> reference then
            Alcotest.failf "%s: strategy %s disagrees (%d vs %d nodes)" q
              (Executor.strategy_name strategy) (List.length result) (List.length reference))
        (Executor.Auto :: Executor.all_strategies))
    queries

let test_executor_unoptimized_agrees () =
  let doc = bib () in
  let exec = Executor.create doc in
  List.iter
    (fun (q, _) ->
      let opt = Executor.execute exec ~optimize:true (Executor.Query q) in
      let unopt = Executor.execute exec ~optimize:false (Executor.Query q) in
      if opt <> unopt then Alcotest.failf "%s: optimized plan changed the result" q)
    queries

(* More distinct patterns than the memo holds: it stays within its bound
   and every binding is the one the cost model makes unmemoized, evicted
   patterns included. *)
let test_engine_cache_bounded () =
  let exec = Executor.create (bib ()) in
  let stats = Executor.statistics exec in
  let capacity = Executor.engine_cache_capacity exec in
  let patterns =
    List.init (capacity + 64) (fun i ->
        Xqp_xpath.Parser.parse_pattern (Printf.sprintf "//book[price > %d]/title" i))
  in
  let bound pattern =
    match Physical_plan.taus (Executor.compile exec (Logical_plan.Tpm (Logical_plan.Root, pattern))) with
    | [ tau ] -> Physical_plan.engine_label tau.Physical_plan.engine
    | _ -> Alcotest.fail "one tau expected"
  in
  let direct pattern =
    Physical_plan.engine_label (Planner.compile_tau stats Physical_plan.Auto pattern).Physical_plan.engine
  in
  let check_all () =
    List.iter
      (fun p -> Alcotest.(check string) "memoized choice" (direct p) (bound p))
      patterns
  in
  check_all ();
  check_bool "memo within its bound" true (Executor.engine_cache_length exec <= capacity);
  check_all ();
  check_bool "still within its bound" true (Executor.engine_cache_length exec <= capacity)

let prop_rewrite_preserves_results =
  QCheck2.Test.make ~name:"R0+R1/R2 rewriting preserves results" ~count:150
    QCheck2.Gen.(
      pair gen_doc
        (oneofl
           [
             "/r/a"; "//a/b"; "//a[b]/c"; "/r//b[c][d]"; "//a[k]"; "//*[b]/c"; "//a/@k";
             "//a[@k = \"5\"]"; "//a//b//c"; "/r/a/b/c/d";
           ]))
    (fun (doc, q) ->
      let exec = Executor.create doc in
      let plan = Xqp_xpath.Parser.parse q in
      let context = [ Operators.document_context ] in
      let naive = Navigation.eval_plan doc (Rewrite.simplify plan) ~context in
      let optimized =
        Executor.execute exec ~strategy:Executor.Reference ~context
          (Executor.Plan (Rewrite.optimize plan))
      in
      naive = optimized)

(* ------------------------------------------------------------------ *)
(* Statistics and cost model                                           *)
(* ------------------------------------------------------------------ *)

let test_statistics_exact_counts () =
  let doc = bib () in
  let stats = Statistics.build doc in
  check_int "books" 3 (Statistics.tag_count stats "book");
  check_int "authors" 5 (Statistics.tag_count stats "author");
  check_int "year attrs" 3 (Statistics.tag_count stats "year");
  check_int "book-author pc" 4 (Statistics.parent_child_count stats ~parent:"book" ~child:"author");
  check_int "bib-author ad" 5
    (Statistics.ancestor_descendant_count stats ~ancestor:"bib" ~descendant:"author");
  check_int "article-price pc" 0
    (Statistics.parent_child_count stats ~parent:"article" ~child:"price");
  check_bool "fanout positive" true (Statistics.avg_fanout stats > 0.0);
  check_int "max depth" 3 (Statistics.max_depth stats) (* text nodes sit at level 3 *)

let test_statistics_estimates () =
  let doc = bib () in
  let stats = Statistics.build doc in
  let pattern = Xqp_xpath.Parser.parse_pattern "/bib/book/author" in
  let est = Statistics.estimate_result stats pattern in
  (* exact data: 1 bib, books per bib = 3, authors per book = 4/3 *)
  check_bool "estimate close" true (est > 2.0 && est < 6.0);
  let selective = Xqp_xpath.Parser.parse_pattern "//book[price > 100]" in
  check_bool "predicate reduces estimate" true
    (Statistics.estimate_result stats selective < Statistics.estimate_result stats (Xqp_xpath.Parser.parse_pattern "//book"))

let test_cost_model_choices () =
  let doc = bib () in
  let stats = Statistics.build doc in
  let pattern = Xqp_xpath.Parser.parse_pattern "/bib/book[author]/title" in
  let chosen = Cost_model.choose stats pattern in
  check_bool "choice supported" true (Cost_model.supports pattern chosen);
  (* join orders: best order must be a valid connected order *)
  let best = Cost_model.best_join_order stats pattern in
  check_int "covers all arcs" (List.length (Pattern_graph.arcs pattern)) (List.length best);
  let all = Binary_join.all_orders pattern in
  check_bool "best among all" true (List.mem best all)

(* The workload's patterns on auction:100000 (seed 1): the counts below
   are exact and the weights are checked-in constants, so neither test
   depends on timing. *)
let workload_exec =
  lazy (Executor.create (Xqp_workload.Gen_auction.packed ~seed:1 ~scale:100_000 ()))

let workload_patterns () =
  List.filter_map
    (fun (q : Xqp_workload.Queries.query) ->
      match Rewrite.optimize (Xqp_xpath.Parser.parse q.Xqp_workload.Queries.xpath) with
      | Logical_plan.Tpm (Logical_plan.Root, pattern) -> Some (q.Xqp_workload.Queries.id, pattern)
      | _ -> None)
    Xqp_workload.Queries.(auction_paths @ auction_complexity_sweep)

let test_auto_near_cheapest_engine () =
  let exec = Lazy.force workload_exec in
  let stats = Executor.statistics exec in
  let patterns = workload_patterns () in
  check_bool "the workload has patterns" true (List.length patterns >= 12);
  List.iter
    (fun (id, pattern) ->
      let costs = Executor.counted_costs exec pattern in
      let cheapest = List.fold_left (fun acc (_, c) -> Float.min acc c) infinity costs in
      let chosen = Cost_model.choose stats pattern in
      let cost = List.assoc chosen costs in
      if cost > 1.15 *. cheapest then
        Alcotest.failf "%s: auto binds %s at %.0f ns counted, cheapest engine %.0f ns" id
          (Cost_model.engine_name chosen) cost cheapest)
    patterns

(* Under the checked-in weights, Auto binds the NoK kernel on every τ of
   the workload: a refit that flipped a binding back would fail here. *)
let test_auto_binds_nok () =
  let exec = Lazy.force workload_exec in
  let taus =
    List.concat_map
      (fun (q : Xqp_workload.Queries.query) ->
        let c = Executor.prepare exec ~use_cache:false (Executor.Query q.Xqp_workload.Queries.xpath) in
        List.map
          (fun tau -> (q.Xqp_workload.Queries.id, Physical_plan.engine_label tau.Physical_plan.engine))
          (Physical_plan.taus c.Executor.physical))
      Xqp_workload.Queries.(auction_paths @ auction_complexity_sweep)
  in
  check_int "τ queries" 12 (List.length taus);
  List.iter (fun (id, engine) -> Alcotest.(check string) (id ^ " binds") "nok" engine) taus

let test_navigation_estimate_within_2x () =
  let exec = Lazy.force workload_exec in
  let stats = Executor.statistics exec in
  List.iter
    (fun (id, pattern) ->
      let counted = (Executor.count_units exec Cost_model.Naive_nav pattern).(0) in
      let estimated = (Cost_model.estimate_units stats pattern Cost_model.Naive_nav).(0) in
      let q = Float.max (counted /. estimated) (estimated /. counted) in
      if not (q <= 2.0) then
        Alcotest.failf "%s: navigation visits %.0f nodes, estimated %.0f" id counted estimated)
    (workload_patterns ())

let test_join_order_cost_spread () =
  (* On a chain with a selective tail, starting from the selective end must
     be estimated cheaper than the default order. *)
  let doc = bib () in
  let stats = Statistics.build doc in
  let pattern = Xqp_xpath.Parser.parse_pattern "//book[price > 100]/title" in
  let orders = Binary_join.all_orders pattern in
  let costs = List.map (fun o -> Cost_model.estimate_join_order stats pattern o) orders in
  let mn = List.fold_left Float.min infinity costs in
  let mx = List.fold_left Float.max 0.0 costs in
  check_bool "orders differ in cost" true (mx > mn)

(* ------------------------------------------------------------------ *)
(* Content index                                                       *)
(* ------------------------------------------------------------------ *)

let test_content_index_lookup () =
  let doc = bib () in
  let idx = Content_index.build doc in
  check_bool "indexed something" true (Content_index.indexed_count idx > 0);
  check_bool "distinct" true (Content_index.distinct_values idx > 0);
  (* title elements have simple text content *)
  let hits = Content_index.lookup_eq idx "Economics" in
  check_int "economics" 1 (List.length hits);
  check_bool "is the title" true
    (match hits with [ id ] -> Document.name doc id = "title" | _ -> false);
  (* attribute values are indexed *)
  check_int "year 2000" 1 (List.length (Content_index.lookup_eq idx "2000"));
  check_int "missing" 0 (List.length (Content_index.lookup_eq idx "zzz"));
  let in_range = Content_index.lookup_range idx ~lo:"E" ~hi:"F" () in
  check_bool "range has economics" true
    (List.exists (fun id -> Document.typed_value doc id = "Economics") in_range)

let test_content_index_coverage () =
  let doc = Document.of_string "<r><a>x</a><a>y<b/></a><c>z</c><d k=\"v\"/></r>" in
  let idx = Content_index.build doc in
  (* tag a has one mixed-content element: not covered *)
  check_bool "a dirty" false
    (Content_index.covers idx ~label:(Pattern_graph.Tag "a") ~is_attribute:false);
  check_bool "c covered" true
    (Content_index.covers idx ~label:(Pattern_graph.Tag "c") ~is_attribute:false);
  check_bool "attrs covered" true
    (Content_index.covers idx ~label:(Pattern_graph.Tag "k") ~is_attribute:true);
  check_bool "wildcard not covered" false
    (Content_index.covers idx ~label:Pattern_graph.Wildcard ~is_attribute:false);
  (* empty elements are indexed under "" *)
  check_bool "empty covered" true
    (Content_index.covers idx ~label:(Pattern_graph.Tag "d") ~is_attribute:false);
  let eq v = { Pattern_graph.comparison = Pattern_graph.Eq; literal = Pattern_graph.Str v } in
  check_bool "answers covered eq" true
    (Content_index.candidates idx ~label:(Pattern_graph.Tag "c") ~is_attribute:false (eq "z")
    <> None);
  check_bool "refuses dirty tag" true
    (Content_index.candidates idx ~label:(Pattern_graph.Tag "a") ~is_attribute:false (eq "x")
    = None);
  check_bool "refuses numeric" true
    (Content_index.candidates idx ~label:(Pattern_graph.Tag "c") ~is_attribute:false
       { Pattern_graph.comparison = Pattern_graph.Eq; literal = Pattern_graph.Num 1.0 }
    = None)

let prop_indexed_binary_join_agrees =
  engine_agrees "index-accelerated binary join = reference τ" (fun doc pattern context ->
      let idx = Content_index.build doc in
      Binary_join.match_pattern ~content_index:idx doc pattern ~context)

(* ------------------------------------------------------------------ *)
(* NoK partition                                                       *)
(* ------------------------------------------------------------------ *)

let test_nok_partition_shapes () =
  let pure_local = Xqp_xpath.Parser.parse_pattern "/bib/book[author]/title" in
  let parts = Nok_partition.partition pure_local in
  check_int "one fragment" 1 (List.length parts.Nok_partition.fragments);
  check_int "no links" 0 (List.length parts.Nok_partition.links);
  let mixed = Xqp_xpath.Parser.parse_pattern "//book[author]/title" in
  let parts2 = Nok_partition.partition mixed in
  check_int "two fragments" 2 (List.length parts2.Nok_partition.fragments);
  check_int "one link" 1 (List.length parts2.Nok_partition.links);
  (* interesting vertices include root and outputs *)
  List.iter
    (fun f ->
      check_bool "root interesting" true
        (List.mem f.Nok_partition.root f.Nok_partition.interesting))
    parts2.Nok_partition.fragments;
  let chain = Xqp_xpath.Parser.parse_pattern "//a//b//c" in
  let parts3 = Nok_partition.partition chain in
  check_int "four fragments" 4 (List.length parts3.Nok_partition.fragments)

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)
(* ------------------------------------------------------------------ *)

let test_pathstack_basics () =
  let doc = bib () in
  let chain = Xqp_xpath.Parser.parse_pattern "/bib/book/author" in
  check_bool "chain supported" true (Path_stack.supported chain);
  let twig = Xqp_xpath.Parser.parse_pattern "//book[author]/title" in
  check_bool "twig unsupported" false (Path_stack.supported twig);
  (match Path_stack.match_pattern doc chain ~context:[ Operators.document_context ] with
  | [ (_, nodes) ] -> check_int "authors" 4 (List.length nodes)
  | _ -> Alcotest.fail "shape");
  check_bool "raises on twig" true
    (match Path_stack.match_pattern doc twig ~context:[ Operators.document_context ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* no path-solution enumeration: stats stay linear *)
  let _, stats =
    Path_stack.match_pattern_with_stats doc
      (Xqp_xpath.Parser.parse_pattern "//book//author")
      ~context:[ Operators.document_context ]
  in
  check_bool "emitted bounded" true (stats.Path_stack.emitted = 4)

let test_streaming_supported () =
  let yes = [ "/bib/book/title"; "//author"; "//book//title"; "/bib/book/@year" ] in
  let no = [ "//book[author]/title"; "/bib/book[2]" ] in
  List.iter
    (fun q ->
      match Xqp_xpath.Parser.parse_pattern q with
      | pattern -> check_bool (q ^ " supported") true (Streaming.supported pattern)
      | exception _ -> Alcotest.failf "pattern %s should parse" q)
    yes;
  List.iter
    (fun q ->
      match Xqp_xpath.Parser.parse_pattern q with
      | pattern -> check_bool (q ^ " unsupported") false (Streaming.supported pattern)
      | exception _ -> () (* positional predicates do not even form patterns *))
    no

let test_streaming_matches_reference () =
  let source = bib_source in
  let doc = Document.of_string source in
  (* NB: streaming sees the raw (unstripped) stream; the comparison document
     must be unstripped too. *)
  List.iter
    (fun q ->
      let pattern = Xqp_xpath.Parser.parse_pattern q in
      let streamed = Streaming.run_string pattern source in
      let reference =
        match Operators.pattern_match doc pattern ~context:[ Operators.document_context ] with
        | [ (_, nodes) ] -> nodes
        | _ -> []
      in
      if streamed <> reference then
        Alcotest.failf "%s: streaming %d vs reference %d" q (List.length streamed)
          (List.length reference))
    [ "/bib/book/title"; "//author"; "//book//author"; "/bib/book/@year"; "//title" ]

let prop_streaming_agrees =
  QCheck2.Test.make ~name:"streaming chains = reference τ" ~count:150
    QCheck2.Gen.(
      pair gen_doc (oneofl [ "/r/a"; "//a"; "//a/b"; "//a//b"; "/r//c"; "//b/@k"; "//a/b/c" ]))
    (fun (doc, q) ->
      let pattern = Xqp_xpath.Parser.parse_pattern q in
      let source = Serializer.to_string (Document.to_tree doc (Document.root doc)) in
      (* adjacent text nodes merge on serialization, so compare ranks
         against a document rebuilt from the same byte stream *)
      let reparsed = Document.of_string source in
      let streamed = Streaming.run_string pattern source in
      let reference =
        match
          Operators.pattern_match reparsed pattern ~context:[ Operators.document_context ]
        with
        | [ (_, nodes) ] -> nodes
        | _ -> []
      in
      streamed = reference)

(* ------------------------------------------------------------------ *)
(* Row limits: first/exists through the kernel                          *)
(* ------------------------------------------------------------------ *)

let prefix k nodes = List.filteri (fun i _ -> i < k) nodes

(* [Executor.run_physical ~limit:k] from the document root under every
   strategy: the first [k] nodes of the full run. *)
let limited_runs_agree exec q =
  let context = [ Operators.document_context ] in
  List.for_all
    (fun strategy ->
      let physical = (Executor.prepare exec ~strategy (Executor.Query q)).Executor.physical in
      let full = Executor.run_physical exec physical ~context in
      List.for_all
        (fun k -> Executor.run_physical exec ~limit:k physical ~context = prefix k full)
        [ 1; 2; 3; 4; 5 ])
    (Executor.Auto :: Executor.Reference :: Executor.all_strategies)

let test_row_limit_basics () =
  let doc = bib () in
  let exec = Executor.create doc in
  List.iter
    (fun q -> if not (limited_runs_agree exec q) then Alcotest.failf "%s: a limited run diverges" q)
    [ "/bib/book/title"; "//author"; "//book[author]/title"; "//book[price > 100]";
      "/bib/book/@year"; "//book/title | //article/author"; "//*[author]"; "/bib/book[2]";
      "/bib/book/title/.." ];
  let db = Xqp.Session.of_document doc in
  let get = Result.get_ok in
  check_bool "exists true" true (get (Xqp.Session.exists db "//author"));
  check_bool "exists false" false (get (Xqp.Session.exists db "//nothing"));
  check_bool "first is smallest" true
    (get (Xqp.Session.first db "//book/author")
    = List.nth_opt (get (Xqp.Session.query db "//book/author")) 0);
  check_int "limit 2" 2
    (List.length
       (Executor.run_physical exec ~limit:2
          (Executor.prepare exec (Executor.Query "//book/author")).Executor.physical
          ~context:[ Operators.document_context ]))

(* With limit 1 the kernel stops at its first witness: a // fragment off
   the document node and an absolute child path each visit under a tenth
   of the nodes the full match visits. *)
let test_row_limit_early_exit () =
  let doc = Xqp_workload.Gen_auction.packed ~seed:1 ~scale:8000 () in
  let context = [ Operators.document_context ] in
  List.iter
    (fun q ->
      let pattern = Xqp_xpath.Parser.parse_pattern q in
      let full, s_full = Nok.match_pattern_with_stats doc pattern ~context in
      let first, s_first = Nok.match_pattern_with_stats ~limit:1 doc pattern ~context in
      let nodes r = List.concat_map (fun (_, s) -> Node_set.to_list s) r in
      check_bool (q ^ ": the first node") true (nodes first = prefix 1 (nodes full));
      check_bool (q ^ ": non-empty") true (nodes first <> []);
      if s_first.Nok.nodes_visited * 10 >= s_full.Nok.nodes_visited then
        Alcotest.failf "%s: limit 1 visits %d nodes against %d in full" q
          s_first.Nok.nodes_visited s_full.Nok.nodes_visited)
    [ "//item"; "/site/people/person" ];
  (* a lone step stays a navigational step: exists on it stops at the
     first row too *)
  let db = Xqp.Session.of_document doc in
  let visited = Xqp_obs.Metrics.counter Xqp_obs.Metrics.default "engine.navigation.nodes_visited" in
  let visits f =
    let v0 = Xqp_obs.Metrics.value visited in
    ignore (Result.get_ok (f db "//item"));
    Xqp_obs.Metrics.value visited - v0
  in
  let full = visits (fun db q -> Result.map List.length (Xqp.Session.query db q)) in
  let limited = visits (fun db q -> Result.map Bool.to_int (Xqp.Session.exists db q)) in
  if full = 0 || limited * 10 >= full then
    Alcotest.failf "exists //item visits %d nodes against %d in full" limited full

(* The two ways a root's scans could stop too soon. A binding recorded
   before a later binding branch fails is rolled back (a[b{out}][c//d]:
   no c has a d below), and a sibling arc re-finds bindings (the second
   x reaches the first p's second b again, while the second p holds a
   third b). *)
let test_row_limit_rollback_and_siblings () =
  let check doc pattern =
    let context = [ Operators.document_context ] in
    match Nok.match_pattern doc pattern ~context with
    | [ (v, full) ] ->
      List.iter
        (fun k ->
          let expect = Node_set.to_list full |> prefix k in
          match Nok.match_pattern ~limit:k doc pattern ~context with
          | [ (v', got) ] when v' = v && Node_set.to_list got = expect -> ()
          | _ -> Alcotest.failf "%a: limit %d is not the prefix" Pattern_graph.pp pattern k)
        [ 1; 2; 3; 4 ]
    | _ -> Alcotest.fail "one output expected"
  in
  let vertex ?(output = false) label = { Pattern_graph.label; predicates = []; output } in
  let rollback =
    Pattern_graph.make
      ~vertices:
        [| vertex Wildcard; vertex (Tag "a"); vertex ~output:true (Tag "b"); vertex (Tag "c");
           vertex (Tag "d") |]
      ~arcs:[ (0, 1, Child); (1, 2, Child); (1, 3, Child); (3, 4, Descendant) ]
  in
  check (Document.of_string "<a><b/><b/><c/></a>") rollback;
  check (Document.of_string "<a><b/><b/><c><d/></c></a>") rollback;
  check
    (Document.of_string "<r><p><x/><b/><x/><b/></p><p><x/><b/></p></r>")
    (Pattern_graph.make
       ~vertices:
         [| vertex Wildcard; vertex (Tag "r"); vertex Wildcard; vertex (Tag "x");
            vertex ~output:true (Tag "b") |]
       ~arcs:[ (0, 1, Child); (1, 2, Child); (2, 3, Child); (3, 4, Following_sibling) ])

(* Absolute child paths, // under nested tags, branches, attribute
   outputs, a fragment linked from a non-zero vertex (no early exit),
   unions, wildcards and sibling arcs. *)
let limit_queries =
  [ "/r/a"; "/r/a/b"; "/r/*/c"; "//a//b"; "//a/b"; "//a/b/c"; "//a[b]/c"; "//*[b][c]";
    "//a[c]//b"; "//a/@k"; "/r/a/@k"; "//b[@k = \"5\"]/c"; "/r//b[c]/d"; "//a | //b/c";
    "/r/a | /r/b"; "//a"; "//*/d"; "//a/following-sibling::b"; "/r/a/following-sibling::*";
    "/r/*/a/following-sibling::b"; "//b"; "//*"; "//text()"; "/r"; "//@k";
    "//b[c]"; "//a[@k]"; "//b[2]" ]

let prop_limit_prefix =
  QCheck2.Test.make ~name:"every strategy: limit k is the first k of the full run" ~count:200
    QCheck2.Gen.(pair gen_doc (oneofl limit_queries))
    (fun (doc, q) -> limited_runs_agree (Executor.create doc) q)

(* The kernel alone, from arbitrary contexts, over wide patterns (sibling
   and attribute arcs, value tests, two outputs): a single output is cut
   to its first [k] bindings, two outputs answer in full. *)
let prop_kernel_limit_prefix =
  QCheck2.Test.make ~name:"kernel limit k = prefix, wide patterns and contexts" ~count:300
    gen_wide_case (fun (doc, pattern, context) ->
      let full = Nok.match_pattern doc pattern ~context in
      List.for_all
        (fun k ->
          let limited = Nok.match_pattern ~limit:k doc pattern ~context in
          match full with
          | [ (v, nodes) ] ->
            limited = [ (v, Node_set.of_list (prefix k (Node_set.to_list nodes))) ]
          | _ -> limited = full)
        [ 1; 2; 3; 4; 5 ])

(* [Session.first] is the head of [Session.query] and [exists] is
   [query <> []], on each document and on a two-shard corpus of them. *)
let prop_first_exists =
  QCheck2.Test.make ~name:"first/exists agree with query, document and corpus" ~count:40
    QCheck2.Gen.(pair (list_repeat 3 gen_doc) (list_repeat 4 (oneofl limit_queries)))
    (fun (docs, queries) ->
      let module S = Xqp.Session in
      let agrees session =
        List.for_all
          (fun q ->
            let nodes = Result.get_ok (S.query session q) in
            Result.get_ok (S.first session q) = List.nth_opt nodes 0
            && Result.get_ok (S.exists session q) = (nodes <> []))
          queries
      in
      List.for_all (fun doc -> agrees (S.of_document doc)) docs
      && Test_corpus.with_temp_dir (fun dir ->
             let path =
               Test_corpus.pack_docs ~dir ~shards:2
                 (List.mapi (fun i doc -> ("doc" ^ string_of_int i, doc)) docs)
             in
             let session = Result.get_ok (S.open_db path) in
             Fun.protect ~finally:(fun () -> S.close session) (fun () -> agrees session)))

let prop_random_plans_all_strategies =
  (* end-to-end: random logical plans (any axes, predicates, unions) are
     optimized and executed under every strategy; all must equal the naive
     navigational evaluation of the unoptimized plan *)
  QCheck2.Test.make ~name:"random plans: optimize + every strategy = naive" ~count:150
    QCheck2.Gen.(pair gen_doc Test_xpath.gen_plan)
    (fun (doc, plan) ->
      let exec = Executor.create doc in
      let context = [ Operators.document_context ] in
      let expected = Navigation.eval_plan doc (Rewrite.simplify plan) ~context in
      let optimized = Rewrite.optimize plan in
      List.for_all
        (fun strategy ->
          Executor.execute exec ~strategy ~context (Executor.Plan optimized) = expected)
        (Executor.Auto :: Executor.all_strategies))

let prop_gtp_matches_eval =
  (* random documents, a pool of Fig-1-class queries: one generalized
     pattern must equal direct interpretation *)
  QCheck2.Test.make ~name:"GTP translation = direct eval" ~count:150
    QCheck2.Gen.(
      pair gen_doc
        (oneofl
           [
             "<o>{ for $x in /r/a let $p := $x/b return <i>{$p}</i> }</o>";
             "<o>{ for $x in /r/a let $p := $x/b let $q := $x//c return <i>{$p}{$q}</i> }</o>";
             "<o>{ for $x in /r//b let $p := $x/@k return <i>{$p}</i> }</o>";
             "<o>{ for $x in /r/a/b let $p := $x/c/d return <i>{$p}</i> }</o>";
             "<o>{ for $x in /r/* let $p := $x/a return <i>{$p}</i> }</o>";
           ]))
    (fun (doc, q) ->
      let exec = Executor.create doc in
      let ast = Xqp_xquery.Xq_parser.parse q in
      match Xqp_xquery.Translate.translate_gtp ast with
      | None -> false
      | Some t ->
        let gtp_out =
          String.concat ""
            (List.map Serializer.to_string (Xqp_xquery.Translate.execute_gtp exec t))
        in
        let direct =
          Xqp_xquery.Eval.result_string exec (Xqp_xquery.Eval.eval exec ast)
        in
        String.equal gtp_out direct)

let suite =
  [
    ( "physical.structural_join",
      [
        Alcotest.test_case "stack-tree = reference" `Quick test_stack_tree_matches_reference;
        Alcotest.test_case "semijoins" `Quick test_structural_join_semijoins;
        Alcotest.test_case "document context" `Quick test_structural_join_with_document_context;
      ] );
    ( "physical.engines",
      [
        qcheck prop_binary_join_agrees;
        qcheck prop_twigstack_agrees;
        qcheck prop_nok_agrees;
        qcheck prop_nok_paged_agrees;
        qcheck prop_wide_engines_agree;
        Alcotest.test_case "nested // contexts" `Quick test_nok_nested_descendant_contexts;
        Alcotest.test_case "nok checks its deadline" `Quick test_nok_deadline;
        Alcotest.test_case "navigation checks its deadline" `Quick test_navigation_deadline;
        Alcotest.test_case "numeric edge values, every engine" `Quick
          test_numeric_edges_every_engine;
        Alcotest.test_case "attributes have no siblings, every engine" `Quick
          test_attribute_has_no_siblings;
        qcheck prop_pathstack_agrees;
        qcheck prop_join_orders_agree;
        qcheck prop_navigation_strategy_agrees;
        qcheck prop_executor_strategies_agree;
        qcheck prop_random_plans_all_strategies;
      ] );
    ( "physical.executor",
      [
        Alcotest.test_case "fixed queries, all strategies" `Quick
          test_executor_queries_all_strategies;
        Alcotest.test_case "optimize on/off agree" `Quick test_executor_unoptimized_agrees;
        Alcotest.test_case "engine-choice memo bounded" `Quick test_engine_cache_bounded;
        qcheck prop_rewrite_preserves_results;
        qcheck prop_gtp_matches_eval;
      ] );
    ( "physical.stats_cost",
      [
        Alcotest.test_case "exact counts" `Quick test_statistics_exact_counts;
        Alcotest.test_case "estimates" `Quick test_statistics_estimates;
        Alcotest.test_case "cost model choices" `Quick test_cost_model_choices;
        Alcotest.test_case "join order spread" `Quick test_join_order_cost_spread;
        Alcotest.test_case "auto binds nok on the workload" `Quick test_auto_binds_nok;
        Alcotest.test_case "auto within 1.15x of the cheapest engine" `Quick
          test_auto_near_cheapest_engine;
        Alcotest.test_case "navigation visits estimated within 2x" `Quick
          test_navigation_estimate_within_2x;
      ] );
    ( "physical.content_index",
      [
        Alcotest.test_case "lookup" `Quick test_content_index_lookup;
        Alcotest.test_case "coverage" `Quick test_content_index_coverage;
        qcheck prop_indexed_binary_join_agrees;
      ] );
    ("physical.nok_partition", [ Alcotest.test_case "shapes" `Quick test_nok_partition_shapes ]);
    ( "physical.path_stack", [ Alcotest.test_case "basics" `Quick test_pathstack_basics ] );
    ( "physical.row_limit",
      [
        Alcotest.test_case "basics" `Quick test_row_limit_basics;
        Alcotest.test_case "early exit" `Quick test_row_limit_early_exit;
        Alcotest.test_case "rollback and sibling arcs" `Quick test_row_limit_rollback_and_siblings;
        qcheck prop_limit_prefix;
        qcheck prop_kernel_limit_prefix;
        qcheck prop_first_exists;
      ] );
    ( "physical.streaming",
      [
        Alcotest.test_case "supported patterns" `Quick test_streaming_supported;
        Alcotest.test_case "fixed queries" `Quick test_streaming_matches_reference;
        qcheck prop_streaming_agrees;
      ] );
  ]
