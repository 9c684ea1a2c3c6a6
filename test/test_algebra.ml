(* Tests for xqp_algebra: values, nested lists, pattern graphs, env,
   reference operators, schema trees / γ, logical plans and rewrites. *)

open Xqp_xml
open Xqp_algebra

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qcheck = QCheck_alcotest.to_alcotest

let bib_source =
  {|<bib>
      <book year="1994"><title>TCP/IP Illustrated</title><author>Stevens</author><price>65.95</price></book>
      <book year="2000"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author><price>39.95</price></book>
      <book year="1999"><title>Economics</title><author>Bosak</author><price>120</price></book>
    </bib>|}

let bib () = Document.of_string ~strip:true bib_source

(* node ids by tag helper *)
let ids doc name =
  match Symtab.find_opt (Document.symtab doc) name with
  | Some sym -> Document.nodes_by_name doc sym
  | None -> []

(* ------------------------------------------------------------------ *)
(* Value                                                               *)
(* ------------------------------------------------------------------ *)

let test_value_atomization () =
  let doc = bib () in
  let title = List.hd (ids doc "title") in
  check_string "node atomizes to text" "TCP/IP Illustrated"
    (Value.string_of_item doc (Value.Node title));
  check_string "int" "42" (Value.string_of_item doc (Value.Int 42));
  check_string "float int-valued" "3" (Value.string_of_item doc (Value.Float 3.0));
  check_bool "number of node" true
    (Value.number_of_item doc (Value.Node (List.hd (ids doc "price"))) = Some 65.95);
  check_bool "number of non-numeric" true (Value.number_of_item doc (Value.Str "abc") = None)

let test_value_ebv_and_compare () =
  let doc = bib () in
  check_bool "empty false" false (Value.effective_boolean doc []);
  check_bool "node true" true (Value.effective_boolean doc [ Value.Node 0 ]);
  check_bool "zero false" false (Value.effective_boolean doc [ Value.Int 0 ]);
  check_bool "string true" true (Value.effective_boolean doc [ Value.Str "x" ]);
  check_bool "numeric compare" true (Value.compare_items doc (Value.Str "10") (Value.Int 9) > 0);
  check_bool "string compare" true (Value.compare_items doc (Value.Str "a") (Value.Str "b") < 0);
  check_bool "item_equal numeric" true (Value.item_equal doc (Value.Str "1.0") (Value.Int 1));
  let ordered = Value.doc_order [ Value.Node 5; Value.Node 2; Value.Node 5 ] in
  check_int "doc_order dedup" 2 (List.length ordered)

(* ------------------------------------------------------------------ *)
(* Nested_list                                                         *)
(* ------------------------------------------------------------------ *)

let test_nested_list () =
  let open Nested_list in
  let nl = group [ atom 1; group [ atom 2; atom 3 ]; group [] ] in
  Alcotest.(check (list int)) "flatten" [ 1; 2; 3 ] (flatten nl);
  check_int "size" 3 (size nl);
  check_int "depth" 2 (depth nl);
  check_bool "map" true (equal ( = ) (map succ nl) (group [ atom 2; group [ atom 3; atom 4 ]; group [] ]));
  Alcotest.(check (list (list int))) "tuples" [ [ 1 ]; [ 2; 3 ]; [] ] (tuples nl);
  (* of_unlabeled_tree on a small tree *)
  let children = function 0 -> [ 1; 2 ] | 1 -> [ 3 ] | _ -> [] in
  let t = of_unlabeled_tree children 0 in
  check_bool "tree conversion" true
    (equal ( = ) t (group [ atom 0; group [ atom 1; atom 3 ]; atom 2 ]))

(* ------------------------------------------------------------------ *)
(* Pattern_graph                                                       *)
(* ------------------------------------------------------------------ *)

let book_title_pattern () =
  (* /bib/book[author]/title : context -> bib -> book(-> author branch) -> title{out} *)
  Pattern_graph.make
    ~vertices:
      [|
        { Pattern_graph.label = Wildcard; predicates = []; output = false };
        { label = Tag "bib"; predicates = []; output = false };
        { label = Tag "book"; predicates = []; output = false };
        { label = Tag "author"; predicates = []; output = false };
        { label = Tag "title"; predicates = []; output = true };
      |]
    ~arcs:
      [ (0, 1, Pattern_graph.Child); (1, 2, Child); (2, 3, Child); (2, 4, Child) ]

let test_pattern_graph_shape () =
  let pg = book_title_pattern () in
  check_int "vertices" 5 (Pattern_graph.vertex_count pg);
  check_bool "outputs" true (Pattern_graph.outputs pg = [ 4 ]);
  check_bool "is_nok" true (Pattern_graph.is_nok pg);
  check_bool "children of book" true
    (Pattern_graph.children pg 2 = [ (3, Pattern_graph.Child); (4, Pattern_graph.Child) ]);
  check_bool "parent of title" true (Pattern_graph.parent pg 4 = Some (2, Pattern_graph.Child));
  Alcotest.(check (list int)) "preorder" [ 0; 1; 2; 3; 4 ]
    (Pattern_graph.vertices_in_document_order pg)

let test_pattern_graph_validation () =
  let v label output = { Pattern_graph.label; predicates = []; output } in
  let expect_invalid vertices arcs =
    match Pattern_graph.make ~vertices ~arcs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  (* two parents *)
  expect_invalid
    [| v Wildcard false; v (Tag "a") true; v (Tag "b") false |]
    [ (0, 1, Child); (0, 2, Child); (2, 1, Child) ];
  (* disconnected *)
  expect_invalid [| v Wildcard false; v (Tag "a") true; v (Tag "b") false |] [ (0, 1, Child) ];
  (* no output *)
  expect_invalid [| v Wildcard false; v (Tag "a") false |] [ (0, 1, Child) ];
  (* arc into context *)
  expect_invalid [| v Wildcard false; v (Tag "a") true |] [ (0, 1, Child); (1, 0, Child) ]

let test_pattern_graph_predicates () =
  let doc = bib () in
  let price = List.hd (ids doc "price") in
  let holds comparison literal =
    Pattern_graph.predicate_holds doc { Pattern_graph.comparison; literal } price
  in
  check_bool "eq num" true (holds Pattern_graph.Eq (Num 65.95));
  check_bool "lt num" true (holds Pattern_graph.Lt (Num 100.));
  check_bool "gt num" false (holds Pattern_graph.Gt (Num 100.));
  check_bool "ne" true (holds Pattern_graph.Ne (Num 3.));
  check_bool "string eq" true (holds Pattern_graph.Eq (Str "65.95"));
  check_bool "contains" true (holds Pattern_graph.Contains (Str "5.9"));
  check_bool "contains empty" true (holds Pattern_graph.Contains (Str ""));
  check_bool "contains miss" false (holds Pattern_graph.Contains (Str "zzz"))

(* The number reader against the rule it stands for,
   [float_of_string_opt (String.trim s)], bit for bit. The generator
   aims at both sides of the fast grammar's edges: leading zeros, a
   point at either end, signs, blanks, exponents, '_', hex, nan/inf,
   mantissas around 2^53, 20-25 fraction digits, the empty string and
   random bytes. *)
let gen_number_text =
  let open QCheck2.Gen in
  let digits lo hi = string_size ~gen:(char_range '0' '9') (int_range lo hi) in
  let blanks = string_size ~gen:(oneofl [ ' '; '\t'; '\n'; '\r'; '\012' ]) (int_range 0 2) in
  let near_2_53 =
    map
      (fun d -> string_of_int ((1 lsl 53) + d))
      (int_range (-3000) 3000)
  in
  let body =
    frequency
      [
        (4, digits 1 8);
        (4, map2 (fun a b -> a ^ "." ^ b) (digits 1 6) (digits 1 6));
        (2, map (fun d -> "000" ^ d) (digits 1 5));
        (2, map (fun d -> d ^ ".") (digits 1 4));
        (2, map (fun d -> "." ^ d) (digits 1 4));
        (2, map2 (fun sign d -> sign ^ d) (oneofl [ "-"; "+" ]) (digits 1 5));
        (2, map2 (fun d e -> d ^ e) (digits 1 4) (oneofl [ "e3"; "E-2"; "e+10"; "e400"; "e-400" ]));
        (1, oneofl [ "1_000"; "1__0.5"; "_1"; "0x10"; "0X1p3"; "0x"; "nan"; "-nan"; "NaN";
                     "nan(0x7)"; "inf"; "-inf"; "infinity"; "1e"; "."; "-"; "1..2"; "1.2.3" ]);
        (3, near_2_53);
        (2, digits 15 17);
        (2, map2 (fun a b -> a ^ "." ^ b) (digits 1 17) (digits 1 17));
        (3, map2 (fun a b -> a ^ "." ^ b) (digits 1 3) (digits 20 25));
        (1, return "");
        (2, string_size ~gen:char (int_range 0 8));
        (1, string_size ~gen:(oneofl [ '0'; '1'; '.'; '-'; 'e'; '_'; ' '; 'x' ]) (int_range 0 6));
      ]
  in
  map3 (fun l b r -> l ^ b ^ r) blanks body blanks

let same_number a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let prop_number_reader_exact =
  QCheck2.Test.make ~name:"number_of_string = float_of_string_opt (String.trim s), bit for bit"
    ~count:25_000 ~print:(Printf.sprintf "%S") gen_number_text (fun s ->
      same_number (Pattern_graph.number_of_string s) (float_of_string_opt (String.trim s)))

let test_number_reader_edges () =
  let expect s =
    if not (same_number (Pattern_graph.number_of_string s) (float_of_string_opt (String.trim s)))
    then Alcotest.failf "number_of_string %S disagrees with float_of_string_opt" s
  in
  List.iter expect
    [ "0"; "0.0"; "-0"; "-0.0"; "12"; " 12 "; "12."; ".5"; "007"; "9007199254740991";
      "9007199254740992"; "9007199254740993"; "0.1"; "0.3"; "1.7976931348623157";
      "123456789.123456"; "0.1234567890123456789012"; "0.12345678901234567890123"; "1e22";
      "nan"; "inf"; ""; " "; "abc" ];
  let holds comparison n value =
    Pattern_graph.predicate_holds_on { Pattern_graph.comparison; literal = Num n } value
  in
  check_bool "no number: only !=" true (holds Ne 1.0 "abc" && not (holds Lt 1.0 "abc"));
  check_bool "fast path compares" true (holds Gt 20.0 " 20.5 ");
  check_bool "fallback compares" true (holds Lt 0.0 "-3");
  check_bool "nan text is a number" true (holds Lt 1.0 "nan" && not (holds Ne nan "nan"))

(* A numeric predicate over the fast grammar allocates nothing. *)
let test_number_reader_allocation () =
  let values = [| "123"; "45.25"; " 0.5"; "19.99 "; "1000000"; "7" |] in
  let gt = { Pattern_graph.comparison = Gt; literal = Num 20.0 } in
  let hits = ref 0 in
  let run () =
    for i = 0 to 9_999 do
      let v = Array.unsafe_get values (i mod 6) in
      if Pattern_graph.predicate_holds_on gt v then incr hits
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  check_int "half of the 20 k tests hold" 10_000 !hits;
  Alcotest.(check (float 0.0)) "minor words across 10 k calls" 0.0 (w1 -. w0)

(* ------------------------------------------------------------------ *)
(* Operators: axes and joins                                           *)
(* ------------------------------------------------------------------ *)

let test_axis_nodes () =
  let doc = bib () in
  let root = Document.root doc in
  let books = ids doc "book" in
  check_bool "child" true (Operators.axis_nodes doc Axis.Child root = books);
  check_int "descendant count" 13 (List.length (Operators.axis_nodes doc Axis.Descendant root));
  let title2 = List.nth (ids doc "title") 1 in
  check_bool "parent" true
    (Operators.axis_nodes doc Axis.Parent title2 = [ List.nth books 1 ]);
  check_bool "ancestor nearest first" true
    (Operators.axis_nodes doc Axis.Ancestor title2 = [ List.nth books 1; root ]);
  let authors2 = Operators.axis_nodes doc Axis.Following_sibling title2 in
  check_int "following siblings of title2" 3 (List.length authors2);
  check_bool "self" true (Operators.axis_nodes doc Axis.Self title2 = [ title2 ]);
  (* following = everything after subtree, preceding excludes ancestors *)
  let book2 = List.nth books 1 in
  let following = Operators.axis_nodes doc Axis.Following book2 in
  check_bool "following starts at book3" true (List.hd following = List.nth books 2);
  let preceding = Operators.axis_nodes doc Axis.Preceding title2 in
  check_bool "preceding excludes ancestors" true
    (not (List.mem root preceding) && not (List.mem book2 preceding));
  check_bool "preceding has book1" true (List.mem (List.hd books) preceding)

let test_structural_join () =
  let doc = bib () in
  let books = ids doc "book" in
  let authors = ids doc "author" in
  let pairs = Operators.structural_join doc Pattern_graph.Child books authors in
  check_int "book-author pairs" 4 (List.length pairs);
  let pairs_desc = Operators.structural_join doc Pattern_graph.Descendant [ Document.root doc ] authors in
  check_int "root//author" 4 (List.length pairs_desc);
  (* attribute rel *)
  let years = ids doc "year" in
  let attr_pairs = Operators.structural_join doc Pattern_graph.Attribute books years in
  check_int "book-@year" 3 (List.length attr_pairs)

let test_select_and_value_join () =
  let doc = bib () in
  let prices = ids doc "price" in
  let cheap =
    Operators.select_value doc
      { Pattern_graph.comparison = Lt; literal = Num 70. }
      prices
  in
  check_int "cheap books" 2 (List.length cheap);
  let eq_pairs = Operators.value_join doc Pattern_graph.Eq prices prices in
  check_int "self equijoin" 3 (List.length eq_pairs);
  let titles = ids doc "title" in
  check_int "select_tag" 3 (List.length (Operators.select_tag doc "title" (titles @ prices)))

(* ------------------------------------------------------------------ *)
(* Operators: τ (pattern matching)                                     *)
(* ------------------------------------------------------------------ *)

let test_pattern_match_simple () =
  let doc = bib () in
  let pg = book_title_pattern () in
  (* absolute pattern: context is the virtual document node *)
  let result = Operators.pattern_match doc pg ~context:[ Operators.document_context ] in
  (match result with
  | [ (4, titles) ] ->
    check_int "all books have authors" 3 (List.length titles);
    check_bool "they are titles" true
      (List.for_all (fun id -> Document.name doc id = "title") titles)
  | _ -> Alcotest.fail "unexpected result shape");
  (* embeddings enumerates all author choices: 1 + 2 + 1 per book *)
  check_int "embeddings" 4
    (List.length (Operators.embeddings doc pg ~context:[ Operators.document_context ]))

let test_pattern_match_with_predicate () =
  let doc = bib () in
  (* //book[price > 100]/title *)
  let pg =
    Pattern_graph.make
      ~vertices:
        [|
          { Pattern_graph.label = Wildcard; predicates = []; output = false };
          { label = Tag "book"; predicates = []; output = false };
          {
            label = Tag "price";
            predicates = [ { Pattern_graph.comparison = Gt; literal = Num 100. } ];
            output = false;
          };
          { label = Tag "title"; predicates = []; output = true };
        |]
      ~arcs:[ (0, 1, Pattern_graph.Descendant); (1, 2, Child); (1, 3, Child) ]
  in
  match Operators.pattern_match doc pg ~context:[ Document.root doc ] with
  | [ (3, [ title ]) ] -> check_string "economics" "Economics" (Document.text_content doc title)
  | _ -> Alcotest.fail "expected exactly the expensive book"

let test_pattern_match_multi_output () =
  let doc = bib () in
  (* //book with output on both book and author: like for $b ... $a *)
  let pg =
    Pattern_graph.make
      ~vertices:
        [|
          { Pattern_graph.label = Wildcard; predicates = []; output = false };
          { label = Tag "book"; predicates = []; output = true };
          { label = Tag "author"; predicates = []; output = true };
        |]
      ~arcs:[ (0, 1, Pattern_graph.Descendant); (1, 2, Child) ]
  in
  match Operators.pattern_match doc pg ~context:[ Document.root doc ] with
  | [ (1, books); (2, authors) ] ->
    check_int "books with authors" 3 (List.length books);
    check_int "authors" 4 (List.length authors)
  | _ -> Alcotest.fail "unexpected shape"

let test_pattern_match_nested_grouping () =
  let doc = bib () in
  let pg =
    Pattern_graph.make
      ~vertices:
        [|
          { Pattern_graph.label = Wildcard; predicates = []; output = false };
          { label = Tag "book"; predicates = []; output = true };
          { label = Tag "author"; predicates = []; output = true };
        |]
      ~arcs:[ (0, 1, Pattern_graph.Descendant); (1, 2, Child) ]
  in
  let nested = Operators.pattern_match_nested doc pg ~context:[ Document.root doc ] in
  (* Expect: group of 3 book-groups; books with authors nested beneath *)
  match nested with
  | Nested_list.Group groups ->
    check_int "three books" 3 (List.length groups);
    List.iter
      (fun g ->
        match g with
        | Nested_list.Group (Nested_list.Atom book :: authors) ->
          check_string "book first" "book" (Document.name doc book);
          check_bool "authors nested" true (List.length authors >= 1)
        | _ -> Alcotest.fail "bad group shape")
      groups
  | Nested_list.Atom _ -> Alcotest.fail "expected group"

let test_pattern_match_empty_context () =
  let doc = bib () in
  let pg = book_title_pattern () in
  check_bool "empty context" true
    (Operators.pattern_match doc pg ~context:[] = [ (4, []) ])

(* ------------------------------------------------------------------ *)
(* Env (Definition 3, Fig 2)                                           *)
(* ------------------------------------------------------------------ *)

let test_env_fig2_shape () =
  let doc = bib () in
  (* Mirror Example 1 with small integer domains:
     for $a in [1;2;3], $b in (per-$a: sizes 2,1,3)
     let $c := ..., $d := ...
     for $e in (per-$b: variable sizes) *)
  let items n = List.init n (fun i -> Value.Int i) in
  let env = Env.empty in
  let env = Env.extend_for env "a" (fun _ -> items 3) in
  let env =
    Env.extend_for env "b" (fun bindings ->
        match List.assoc "a" bindings with
        | [ Value.Int 0 ] -> items 2
        | [ Value.Int 1 ] -> items 1
        | _ -> items 3)
  in
  let env = Env.extend_let env "c" (fun _ -> [ Value.Str "c" ]) in
  let env = Env.extend_let env "d" (fun _ -> [ Value.Str "d" ]) in
  let env =
    Env.extend_for env "e" (fun bindings ->
        match (List.assoc "a" bindings, List.assoc "b" bindings) with
        | [ Value.Int 0 ], [ Value.Int 0 ] -> items 3
        | [ Value.Int 0 ], [ Value.Int 1 ] -> items 2
        | [ Value.Int 1 ], _ -> items 2
        | [ Value.Int 2 ], [ Value.Int 0 ] -> items 2
        | [ Value.Int 2 ], [ Value.Int 1 ] -> items 3
        | _ -> items 1)
  in
  (* 3+2 + 2 + 2+3+1 = 13 paths, as in Fig. 2 *)
  check_int "13 total bindings" 13 (Env.path_count env);
  check_string "schema" "($a,($b,$c,$d,($e)))" (Env.schema env);
  check_int "layers" 5 (List.length (Env.layers env));
  ignore (Format.asprintf "%a" (Env.pp doc) env)

let test_env_where_and_empty_for () =
  let env = Env.empty in
  check_int "empty env one path" 1 (Env.path_count env);
  let env = Env.extend_for env "x" (fun _ -> [ Value.Int 1; Value.Int 2; Value.Int 3 ]) in
  let env =
    Env.filter_where env (fun bindings ->
        match List.assoc "x" bindings with [ Value.Int i ] -> i mod 2 = 1 | _ -> false)
  in
  check_int "where prunes" 2 (Env.path_count env);
  (* a for over an empty sequence kills the path *)
  let env2 = Env.extend_for env "y" (fun bindings ->
      match List.assoc "x" bindings with [ Value.Int 1 ] -> [] | _ -> [ Value.Int 9 ]) in
  check_int "dead path" 1 (Env.path_count env2);
  (* and later layers do not resurrect it *)
  let env3 = Env.extend_let env2 "z" (fun _ -> []) in
  check_int "still dead" 1 (Env.path_count env3);
  (* bindings are innermost-first *)
  match Env.paths env3 with
  | [ path ] ->
    Alcotest.(check (list string)) "vars" [ "z"; "y"; "x" ] (List.map fst path)
  | _ -> Alcotest.fail "one path expected"

let prop_env_product_law =
  (* With constant sequences, path count = product of for-lengths. *)
  QCheck2.Test.make ~name:"env path count product law" ~count:100
    QCheck2.Gen.(list_size (int_range 0 4) (int_range 0 4))
    (fun lengths ->
      let env =
        List.fold_left
          (fun (env, i) n ->
            ( Env.extend_for env (Printf.sprintf "v%d" i) (fun _ ->
                  List.init n (fun j -> Value.Int j)),
              i + 1 ))
          (Env.empty, 0) lengths
        |> fst
      in
      Env.path_count env = List.fold_left ( * ) 1 lengths)

(* ------------------------------------------------------------------ *)
(* γ construction with schema trees                                    *)
(* ------------------------------------------------------------------ *)

let test_construct_fig1 () =
  let doc = bib () in
  (* The Fig. 1 query: results / result{title, authors} per book. Build the
     nested list of (title, authors) tuples directly. *)
  let books = ids doc "book" in
  let tuples =
    List.map
      (fun book ->
        let titles = Operators.select_tag doc "title" (Document.children doc book) in
        let authors = Operators.select_tag doc "author" (Document.children doc book) in
        Nested_list.group
          [
            Nested_list.group (List.map (fun t -> Nested_list.atom (Value.Node t)) titles);
            Nested_list.group (List.map (fun a -> Nested_list.atom (Value.Node a)) authors);
          ])
      books
  in
  let nested = Nested_list.group tuples in
  let schema =
    Schema_tree.element "results"
      [
        Schema_tree.for_group
          [ Schema_tree.element "result" [ Schema_tree.placeholder 0; Schema_tree.placeholder 1 ] ];
      ]
  in
  match Operators.construct doc nested schema with
  | [ tree ] ->
    check_string "root" "results" (Tree.name tree);
    let results = Tree.children tree in
    check_int "three results" 3 (List.length results);
    (match results with
    | first :: second :: _ ->
      check_int "result 1 children" 2 (List.length (Tree.children first));
      check_int "result 2 has two authors" 3 (List.length (Tree.children second));
      check_string "title copied" "TCP/IP Illustrated"
        (Tree.text_content (List.hd (Tree.children first)))
    | _ -> Alcotest.fail "results missing")
  | _ -> Alcotest.fail "expected a single tree"

let test_construct_features () =
  let doc = bib () in
  let nested =
    Nested_list.group
      [
        Nested_list.group [ Nested_list.atom (Value.Str "yes"); Nested_list.atom (Value.Int 7) ];
        Nested_list.group [ Nested_list.group []; Nested_list.atom (Value.Int 8) ];
      ]
  in
  let schema =
    Schema_tree.element "out"
      [
        Schema_tree.For_group
          [
            Schema_tree.Element
              {
                name = "row";
                attrs = [ ("v", Schema_tree.From_component 1) ];
                children =
                  [
                    Schema_tree.If_component (0, [ Schema_tree.Text "present:" ]);
                    Schema_tree.Placeholder 0;
                  ];
              };
          ];
      ]
  in
  match Operators.construct doc nested schema with
  | [ Tree.Element e ] ->
    check_int "two rows" 2 (List.length e.children);
    (match e.children with
    | [ row1; row2 ] ->
      check_bool "attr from component" true (Tree.attr row1 "v" = Some "7");
      check_string "if + placeholder" "present:yes" (Tree.text_content row1);
      check_bool "attr row2" true (Tree.attr row2 "v" = Some "8");
      check_string "empty component skips if" "" (Tree.text_content row2)
    | _ -> Alcotest.fail "rows")
  | _ -> Alcotest.fail "expected out element"

(* ------------------------------------------------------------------ *)
(* Logical plans and rewriting                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_pp_and_size () =
  let plan = Xqp_xpath.Parser.parse "/bib/book[author]/title" in
  check_int "size" 4 (Logical_plan.size plan);
  check_int "no tpm" 0 (Logical_plan.tpm_count plan);
  let printed = Format.asprintf "%a" Logical_plan.pp plan in
  check_bool "pp mentions book" true
    (let contains s sub =
       let n = String.length sub in
       let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
       scan 0
     in
     contains printed "book")

let test_rewrite_fuses_chain () =
  let plan = Xqp_xpath.Parser.parse "/bib/book[author]/title" in
  let optimized = Rewrite.optimize plan in
  check_int "one tpm" 1 (Logical_plan.tpm_count optimized);
  match optimized with
  | Logical_plan.Tpm (Logical_plan.Root, pg) ->
    check_int "pattern vertices" 5 (Pattern_graph.vertex_count pg);
    check_bool "nok" true (Pattern_graph.is_nok pg)
  | _ -> Alcotest.fail "expected a single Tpm over Root"

let test_rewrite_keeps_unfusible () =
  (* parent axis blocks fusion *)
  let plan = Xqp_xpath.Parser.parse "/bib/book/title/../price" in
  let optimized = Rewrite.optimize plan in
  check_bool "has tpm and step" true
    (Logical_plan.tpm_count optimized >= 1
    && (match optimized with Logical_plan.Tpm _ -> false | _ -> true));
  (* positional predicate blocks fusion of that step *)
  let plan2 = Xqp_xpath.Parser.parse "/bib/book[2]/title" in
  let optimized2 = Rewrite.optimize plan2 in
  check_bool "positional not in tpm" true
    (match optimized2 with
    | Logical_plan.Step _ -> true
    | Logical_plan.Tpm _ | Logical_plan.Root | Logical_plan.Context | Logical_plan.Union _ ->
      false)

let test_rewrite_simplify_axes () =
  (* //title parsed via descendant-or-self desugaring would be
     Step(Step(root, desc-or-self any), child title); our parser emits
     descendant directly, so build the former by hand. *)
  let open Logical_plan in
  let plan =
    Step
      ( Step (Root, step Axis.Descendant_or_self Any),
        step Axis.Child (Name "title") )
  in
  let simplified = Rewrite.simplify plan in
  (match simplified with
  | Step (Root, { axis = Axis.Descendant; test = Name "title"; _ }) -> ()
  | _ -> Alcotest.fail "descendant-or-self not collapsed");
  let with_self = Step (Step (Root, step Axis.Child (Name "a")), step Axis.Self Any) in
  match Rewrite.simplify with_self with
  | Step (Root, { axis = Axis.Child; _ }) -> ()
  | _ -> Alcotest.fail "self step not removed"

let test_pattern_of_steps_none_cases () =
  let open Logical_plan in
  check_bool "parent axis" true
    (Rewrite.pattern_of_steps [ step Axis.Parent Any ] = None);
  check_bool "text test" true (Rewrite.pattern_of_steps [ step Axis.Child Text_node ] = None);
  check_bool "positional" true
    (Rewrite.pattern_of_steps [ step ~predicates:[ Position 1 ] Axis.Child (Name "a") ] = None);
  check_bool "empty" true (Rewrite.pattern_of_steps [] = None)

let suite =
  [
    ( "algebra.value",
      [
        Alcotest.test_case "atomization" `Quick test_value_atomization;
        Alcotest.test_case "ebv and compare" `Quick test_value_ebv_and_compare;
      ] );
    ("algebra.nested_list", [ Alcotest.test_case "operations" `Quick test_nested_list ]);
    ( "algebra.pattern_graph",
      [
        Alcotest.test_case "shape" `Quick test_pattern_graph_shape;
        Alcotest.test_case "validation" `Quick test_pattern_graph_validation;
        Alcotest.test_case "predicates" `Quick test_pattern_graph_predicates;
        Alcotest.test_case "number reader edges" `Quick test_number_reader_edges;
        Alcotest.test_case "number reader allocates nothing" `Quick test_number_reader_allocation;
        qcheck prop_number_reader_exact;
      ] );
    ( "algebra.operators",
      [
        Alcotest.test_case "axes" `Quick test_axis_nodes;
        Alcotest.test_case "structural join" `Quick test_structural_join;
        Alcotest.test_case "select and value join" `Quick test_select_and_value_join;
      ] );
    ( "algebra.tau",
      [
        Alcotest.test_case "simple pattern" `Quick test_pattern_match_simple;
        Alcotest.test_case "value predicate" `Quick test_pattern_match_with_predicate;
        Alcotest.test_case "multiple outputs" `Quick test_pattern_match_multi_output;
        Alcotest.test_case "nested grouping" `Quick test_pattern_match_nested_grouping;
        Alcotest.test_case "empty context" `Quick test_pattern_match_empty_context;
      ] );
    ( "algebra.env",
      [
        Alcotest.test_case "fig2 shape" `Quick test_env_fig2_shape;
        Alcotest.test_case "where and empty for" `Quick test_env_where_and_empty_for;
        qcheck prop_env_product_law;
      ] );
    ( "algebra.gamma",
      [
        Alcotest.test_case "fig1 construction" `Quick test_construct_fig1;
        Alcotest.test_case "attrs, if, placeholders" `Quick test_construct_features;
      ] );
    ( "algebra.rewrite",
      [
        Alcotest.test_case "plan pp and size" `Quick test_plan_pp_and_size;
        Alcotest.test_case "fuses chains" `Quick test_rewrite_fuses_chain;
        Alcotest.test_case "keeps unfusible" `Quick test_rewrite_keeps_unfusible;
        Alcotest.test_case "axis simplification" `Quick test_rewrite_simplify_axes;
        Alcotest.test_case "pattern_of_steps rejections" `Quick test_pattern_of_steps_none_cases;
      ] );
  ]
