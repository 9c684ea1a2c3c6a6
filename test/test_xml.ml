(* Tests for the xqp_xml library: entities, SAX, DOM parser, serializer,
   packed documents. *)

open Xqp_xml

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Entity                                                              *)
(* ------------------------------------------------------------------ *)

let test_entity_decode_predefined () =
  check_string "amp" "a&b" (Entity.decode "a&amp;b");
  check_string "lt gt" "<tag>" (Entity.decode "&lt;tag&gt;");
  check_string "quot apos" "\"'" (Entity.decode "&quot;&apos;");
  check_string "no entities" "plain" (Entity.decode "plain")

let test_entity_decode_numeric () =
  check_string "decimal" "A" (Entity.decode "&#65;");
  check_string "hex" "A" (Entity.decode "&#x41;");
  check_string "hex upper" "A" (Entity.decode "&#X41;");
  check_string "utf8 2-byte" "\xC3\xA9" (Entity.decode "&#233;");
  check_string "utf8 3-byte" "\xE2\x82\xAC" (Entity.decode "&#x20AC;")

let test_entity_decode_errors () =
  let raises s = match Entity.decode s with exception Entity.Bad_entity _ -> true | _ -> false in
  check_bool "unknown" true (raises "&bogus;");
  check_bool "unterminated" true (raises "a&amp");
  check_bool "empty numeric" true (raises "&#;");
  check_bool "out of range" true (raises "&#x110000;")

let test_entity_escape () =
  check_string "text" "a&amp;b&lt;c&gt;d\"e" (Entity.escape Entity.text "a&b<c>d\"e");
  check_string "attr" "a&amp;b&lt;c&gt;d&quot;e" (Entity.escape Entity.attr "a&b<c>d\"e");
  check_string "roundtrip" "a&b<c>" (Entity.decode (Entity.escape Entity.text "a&b<c>"))

(* ------------------------------------------------------------------ *)
(* Sax                                                                 *)
(* ------------------------------------------------------------------ *)

let events_of s = List.rev (Sax.fold_string s (fun acc e -> e :: acc) [])

let test_sax_simple () =
  match events_of "<a><b>hi</b></a>" with
  | [ Sax.Start_element ("a", []); Start_element ("b", []); Text "hi"; End_element "b";
      End_element "a" ] ->
    ()
  | events -> Alcotest.failf "unexpected events (%d)" (List.length events)

let test_sax_attributes () =
  match events_of {|<a x="1" y='2&amp;3'/>|} with
  | [ Sax.Start_element ("a", [ ("x", "1"); ("y", "2&3") ]); End_element "a" ] -> ()
  | _ -> Alcotest.fail "unexpected events"

let test_sax_declaration_comment_pi () =
  match events_of "<?xml version=\"1.0\"?><!-- top --><a><?fmt keep?><!--in--></a>" with
  | [ Sax.Comment " top "; Start_element ("a", []); Pi ("fmt", "keep"); Comment "in";
      End_element "a" ] ->
    ()
  | _ -> Alcotest.fail "unexpected events"

let test_sax_cdata () =
  match events_of "<a><![CDATA[<raw>&amp;]]></a>" with
  | [ Sax.Start_element ("a", []); Text "<raw>&amp;"; End_element "a" ] -> ()
  | _ -> Alcotest.fail "unexpected events"

let test_sax_doctype_skipped () =
  match events_of "<!DOCTYPE bib [ <!ELEMENT bib (book*)> ]><bib/>" with
  | [ Sax.Start_element ("bib", []); End_element "bib" ] -> ()
  | _ -> Alcotest.fail "unexpected events"

let test_sax_text_coalesced () =
  (* Text split by a comment yields two events, but contiguous text with
     entities yields one. *)
  match events_of "<a>x&amp;y</a>" with
  | [ Sax.Start_element _; Text "x&y"; End_element _ ] -> ()
  | _ -> Alcotest.fail "unexpected events"

let expect_parse_error s =
  match events_of s with
  | exception Sax.Parse_error _ -> ()
  | _ -> Alcotest.failf "expected Parse_error for %s" s

let test_sax_errors () =
  expect_parse_error "<a>";
  expect_parse_error "<a></b>";
  expect_parse_error "</a>";
  expect_parse_error "<a></a><b></b>";
  expect_parse_error "<a></a>trailing";
  expect_parse_error "leading<a></a>";
  expect_parse_error "";
  expect_parse_error "<a x=1></a>";
  expect_parse_error "<a><!-- unterminated </a>";
  expect_parse_error "<a>&nosuch;</a>"

let test_sax_error_position () =
  match events_of "<a>\n  <b>\n</a>" with
  | exception Sax.Parse_error { line; _ } -> check_int "line" 3 line
  | _ -> Alcotest.fail "expected Parse_error"

(* ------------------------------------------------------------------ *)
(* Xml_parser / Serializer                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_tree () =
  let tree = Xml_parser.parse_string {|<bib><book year="1994"><title>TCP/IP</title></book></bib>|} in
  check_string "root" "bib" (Tree.name tree);
  match Tree.children tree with
  | [ (Tree.Element _ as book) ] ->
    check_string "year" "1994" (Option.value ~default:"?" (Tree.attr book "year"));
    check_string "title text" "TCP/IP" (Tree.text_content book)
  | _ -> Alcotest.fail "expected one book"

let test_serialize_roundtrip () =
  let source = {|<a p="1&amp;2"><b>x &lt; y</b><c/><!--note--><d>t1<e/>t2</d></a>|} in
  let tree = Xml_parser.parse_string source in
  let printed = Serializer.to_string tree in
  let reparsed = Xml_parser.parse_string printed in
  check_bool "roundtrip equal" true (Tree.equal tree reparsed)

let test_serialize_pretty_preserves_text () =
  let tree = Xml_parser.parse_string "<a><b>keep  space</b><c><d/></c></a>" in
  let printed = Serializer.to_string ~indent:2 tree in
  (* ~strip:true drops only the indentation noise; significant text stays. *)
  let reparsed = Xml_parser.parse_string ~strip:true printed in
  check_string "text preserved" "keep  space" (Tree.text_content reparsed);
  check_bool "tree preserved modulo whitespace" true (Tree.equal tree reparsed)

let test_tree_helpers () =
  let tree = Tree.elt "r" [ Tree.leaf "x" "1"; Tree.elt "y" [ Tree.leaf "z" "2" ] ] in
  check_int "node_count" 6 (Tree.node_count tree);
  check_int "depth" 4 (Tree.depth tree);
  check_string "text" "12" (Tree.text_content tree);
  let upper = Tree.map_text String.uppercase_ascii (Tree.leaf "a" "hi") in
  check_string "map_text" "HI" (Tree.text_content upper)

(* ------------------------------------------------------------------ *)
(* Document                                                            *)
(* ------------------------------------------------------------------ *)

let sample_doc () =
  Document.of_string
    {|<bib><book year="1994"><title>TCP</title><author>S</author></book><book year="2000"><title>DB</title></book></bib>|}

let test_document_shape () =
  let doc = sample_doc () in
  check_int "nodes" 11 (Document.node_count doc);
  check_int "elements" 6 (Document.element_count doc);
  check_string "root name" "bib" (Document.name doc (Document.root doc));
  check_int "root level" 0 (Document.level doc 0);
  check_int "root size" 11 (Document.subtree_size doc 0)

let test_document_navigation () =
  let doc = sample_doc () in
  let books = Document.children doc 0 in
  check_int "two books" 2 (List.length books);
  let book1 = List.hd books in
  check_string "book" "book" (Document.name doc book1);
  (* Attributes are not content children. *)
  let kids = Document.children doc book1 in
  check_int "book1 children" 2 (List.length kids);
  check_string "title" "title" (Document.name doc (List.hd kids));
  check_string "year attr" "1994"
    (Option.value ~default:"?" (Document.attribute_value doc book1 "year"));
  let attrs = Document.attributes doc book1 in
  check_int "one attribute" 1 (List.length attrs);
  check_string "attr kind" "year" (Document.name doc (List.hd attrs));
  (* parent / sibling *)
  let book2 = List.nth books 1 in
  check_bool "next_sibling" true (Document.next_sibling doc book1 = Some book2);
  check_bool "prev_sibling" true (Document.prev_sibling doc book2 = Some book1);
  check_bool "parent" true (Document.parent doc book1 = Some 0);
  check_bool "root parent" true (Document.parent doc 0 = None)

let test_document_intervals () =
  let doc = sample_doc () in
  let books = Document.children doc 0 in
  let book1 = List.nth books 0 in
  let book2 = List.nth books 1 in
  check_bool "ancestor root-book" true (Document.is_ancestor doc 0 book1);
  check_bool "not ancestor sibling" false (Document.is_ancestor doc book1 book2);
  check_bool "not self ancestor" false (Document.is_ancestor doc book1 book1);
  Document.iter_descendants doc book1 (fun d ->
      check_bool "descendant in interval" true
        (d > book1 && d <= Document.subtree_end doc book1));
  (* postorder: parent after all descendants *)
  check_bool "postorder order" true
    (Document.postorder doc 0 > Document.postorder doc book2)

let test_document_text () =
  let doc = sample_doc () in
  let books = Document.children doc 0 in
  let book1 = List.hd books in
  check_string "subtree text" "TCPS" (Document.text_content doc book1);
  check_string "typed value" "TCPS" (Document.typed_value doc book1)

let test_document_by_name () =
  let doc = sample_doc () in
  let sym =
    match Symtab.find_opt (Document.symtab doc) "book" with
    | Some s -> s
    | None -> Alcotest.fail "book not interned"
  in
  check_int "two books via index" 2 (List.length (Document.nodes_by_name doc sym));
  check_int "missing tag" 0 (List.length (Document.nodes_by_name doc 9999))

let test_document_to_tree_roundtrip () =
  let source = {|<a p="1"><b>x</b><!--c--><d><e q="2">y</e></d></a>|} in
  let tree = Xml_parser.parse_string source in
  let doc = Document.of_tree tree in
  check_bool "to_tree inverse" true (Tree.equal tree (Document.to_tree doc (Document.root doc)))

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

(* Random tree generator used by several property suites. *)
let gen_tree =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d"; "item" ] in
  let attr = pair (oneofl [ "k"; "id"; "v" ]) (oneofl [ "1"; "x&y"; "<q>"; "" ]) in
  let texts = oneofl [ "t"; "hello world"; "a&b"; "1 < 2"; "  " ] in
  sized @@ fix (fun self n ->
      if n <= 0 then map Tree.text texts
      else
        frequency
          [
            (1, map Tree.text texts);
            ( 4,
              let* name = tag in
              let* attrs = list_size (int_bound 2) attr in
              let* kids = list_size (int_bound 4) (self (n / 2)) in
              (* Deduplicate attribute names to keep documents well-formed. *)
              let attrs = List.sort_uniq (fun (k1, _) (k2, _) -> compare k1 k2) attrs in
              return (Tree.elt ~attrs name kids) );
          ])

let gen_root =
  let open QCheck2.Gen in
  let* kids = list_size (int_bound 5) gen_tree in
  return (Tree.elt "root" kids)

let prop_serialize_parse_roundtrip =
  (* Adjacent text siblings merge on reparse, so compare normalized forms. *)
  QCheck2.Test.make ~name:"serialize |> parse = id (normalized)" ~count:300 gen_root (fun tree ->
      Tree.equal (Tree.normalize tree)
        (Tree.normalize (Xml_parser.parse_string (Serializer.to_string tree))))

let prop_document_roundtrip =
  QCheck2.Test.make ~name:"Document.of_tree |> to_tree = id" ~count:300 gen_root (fun tree ->
      let doc = Document.of_tree tree in
      Tree.equal tree (Document.to_tree doc (Document.root doc)))

let prop_intervals_consistent =
  QCheck2.Test.make ~name:"interval encoding laws" ~count:200 gen_root (fun tree ->
      let doc = Document.of_tree tree in
      let n = Document.node_count doc in
      let ok = ref true in
      for id = 0 to n - 1 do
        (* parent interval contains child interval *)
        (match Document.parent doc id with
        | Some p ->
          if not (Document.is_ancestor doc p id) then ok := false;
          if Document.subtree_end doc p < Document.subtree_end doc id then ok := false;
          if Document.level doc id <> Document.level doc p + 1 then ok := false
        | None -> if id <> 0 then ok := false);
        (* size = end - start + 1 *)
        if Document.subtree_end doc id - id + 1 <> Document.subtree_size doc id then ok := false
      done;
      !ok)

let prop_children_partition =
  QCheck2.Test.make ~name:"children + attributes partition first-level subtree" ~count:200
    gen_root (fun tree ->
      let doc = Document.of_tree tree in
      let n = Document.node_count doc in
      let ok = ref true in
      for id = 0 to n - 1 do
        if Document.kind doc id = Document.Element then begin
          let kids = Document.children doc id @ Document.attributes doc id in
          let direct = List.length kids in
          let counted =
            Document.fold_descendants doc id
              (fun acc d -> if Document.is_parent doc id d then acc + 1 else acc)
              0
          in
          if direct <> counted then ok := false
        end
      done;
      !ok)

let prop_text_content_agrees =
  QCheck2.Test.make ~name:"Document.text_content = Tree.text_content" ~count:200 gen_root
    (fun tree ->
      let doc = Document.of_tree tree in
      String.equal (Document.text_content doc 0) (Tree.text_content tree))

let qcheck = QCheck_alcotest.to_alcotest

(* Robustness: arbitrary ASCII input either parses or raises Parse_error —
   never any other exception, crash or hang. *)
let prop_parser_total =
  QCheck2.Test.make ~name:"parser is total (tree or Parse_error)" ~count:500
    QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 60))
    (fun input ->
      match Xml_parser.parse_string input with
      | _ -> true
      | exception Sax.Parse_error _ -> true
      | exception _ -> false)

let prop_parser_total_markupish =
  (* the same with markup-dense alphabets, which reach deeper code paths *)
  QCheck2.Test.make ~name:"parser is total on markup-dense input" ~count:500
    QCheck2.Gen.(
      string_size
        ~gen:(oneofl [ '<'; '>'; '/'; '&'; ';'; '"'; '\''; 'a'; '='; '!'; '-'; '['; ']'; '?'; ' ' ])
        (int_range 0 40))
    (fun input ->
      match Xml_parser.parse_string input with
      | _ -> true
      | exception Sax.Parse_error _ -> true
      | exception _ -> false)

(* Node sets: a buffer freezes to the sorted distinct elements it was
   given, truncation forgets a suffix, and [seek] from any previous
   answer finds what a linear scan finds. *)
let prop_node_set =
  QCheck2.Test.make ~name:"Node_set buffer and seek = sorted-list model" ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 40) (int_range (-1) 60))
        (int_range 0 40)
        (pair (int_range 0 41) (int_range (-2) 62)))
    (fun (xs, cut, (from, lo)) ->
      let b = Node_set.Buffer.create () in
      List.iter (Node_set.Buffer.add b) xs;
      let whole = Node_set.Buffer.contents b in
      let model = List.sort_uniq compare xs in
      let cut = min cut (List.length xs) in
      Node_set.Buffer.truncate b cut;
      let kept = List.sort_uniq compare (List.filteri (fun i _ -> i < cut) xs) in
      let s = (whole :> int array) in
      let linear =
        let rec go i = if i < Array.length s && s.(i) <= lo then go (i + 1) else i in
        go 0
      in
      let truncated = Node_set.to_list (Node_set.Buffer.contents b) in
      (* appending after a freeze leaves the frozen sets alone *)
      Node_set.Buffer.add b (-5);
      Node_set.to_list whole = model
      && truncated = kept
      && Node_set.to_list (Node_set.of_list xs) = model
      && Node_set.seek whole (min from (Array.length s)) lo = linear)

let suite =
  [
    ( "xml.entity",
      [
        Alcotest.test_case "decode predefined" `Quick test_entity_decode_predefined;
        Alcotest.test_case "decode numeric" `Quick test_entity_decode_numeric;
        Alcotest.test_case "decode errors" `Quick test_entity_decode_errors;
        Alcotest.test_case "escape" `Quick test_entity_escape;
      ] );
    ( "xml.fuzz", [ qcheck prop_parser_total; qcheck prop_parser_total_markupish ] );
    ( "xml.sax",
      [
        Alcotest.test_case "simple" `Quick test_sax_simple;
        Alcotest.test_case "attributes" `Quick test_sax_attributes;
        Alcotest.test_case "declaration/comment/pi" `Quick test_sax_declaration_comment_pi;
        Alcotest.test_case "cdata" `Quick test_sax_cdata;
        Alcotest.test_case "doctype skipped" `Quick test_sax_doctype_skipped;
        Alcotest.test_case "text coalesced" `Quick test_sax_text_coalesced;
        Alcotest.test_case "errors" `Quick test_sax_errors;
        Alcotest.test_case "error position" `Quick test_sax_error_position;
      ] );
    ( "xml.tree",
      [
        Alcotest.test_case "parse tree" `Quick test_parse_tree;
        Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
        Alcotest.test_case "pretty preserves text" `Quick test_serialize_pretty_preserves_text;
        Alcotest.test_case "helpers" `Quick test_tree_helpers;
      ] );
    ( "xml.document",
      [
        Alcotest.test_case "shape" `Quick test_document_shape;
        Alcotest.test_case "navigation" `Quick test_document_navigation;
        Alcotest.test_case "intervals" `Quick test_document_intervals;
        Alcotest.test_case "text" `Quick test_document_text;
        Alcotest.test_case "by_name index" `Quick test_document_by_name;
        Alcotest.test_case "to_tree roundtrip" `Quick test_document_to_tree_roundtrip;
      ] );
    ( "xml.properties",
      [
        qcheck prop_serialize_parse_roundtrip;
        qcheck prop_document_roundtrip;
        qcheck prop_intervals_consistent;
        qcheck prop_children_partition;
        qcheck prop_text_content_agrees;
        qcheck prop_node_set;
      ] );
  ]
