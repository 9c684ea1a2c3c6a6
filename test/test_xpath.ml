(* Tests for xqp_xpath: lexer, parser, and a printer-roundtrip fuzz over
   random logical plans. *)

open Xqp_algebra
module Lexer = Xqp_xpath.Lexer
module Parser = Xqp_xpath.Parser

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  (match Lexer.tokenize "/a//b[@k != 'v']" with
  | [ Slash; Name "a"; Double_slash; Name "b"; Lbracket; At; Name "k"; Op "!="; String "v";
      Rbracket; Eof ] ->
    ()
  | _ -> Alcotest.fail "token stream");
  (match Lexer.tokenize "child::a/following-sibling::b" with
  | [ Axis "child"; Name "a"; Slash; Axis "following-sibling"; Name "b"; Eof ] -> ()
  | _ -> Alcotest.fail "axes");
  (match Lexer.tokenize "ns:tag" with
  | [ Name "ns:tag"; Eof ] -> ()
  | _ -> Alcotest.fail "prefixed name");
  (match Lexer.tokenize ".5 <= 2.75" with
  | [ Number 0.5; Op "<="; Number 2.75; Eof ] -> ()
  | _ -> Alcotest.fail "numbers");
  (match Lexer.tokenize "a | b" with
  | [ Name "a"; Pipe; Name "b"; Eof ] -> ()
  | _ -> Alcotest.fail "pipe")

let test_lexer_errors () =
  List.iter
    (fun input ->
      match Lexer.tokenize input with
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "expected Lex_error for %s" input)
    [ "a ! b"; "'unterminated"; "a # b" ]

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_shapes () =
  (match Parser.parse "/" with Logical_plan.Root -> () | _ -> Alcotest.fail "bare slash");
  (match Parser.parse ".." with
  | Logical_plan.Step (Logical_plan.Context, { axis = Axis.Parent; _ }) -> ()
  | _ -> Alcotest.fail "dot dot");
  (match Parser.parse "//a" with
  | Logical_plan.Step (Logical_plan.Root, { axis = Axis.Descendant; test = Logical_plan.Name "a"; _ })
    ->
    ()
  | _ -> Alcotest.fail "descendant shortcut");
  (* //@k expands through descendant-or-self *)
  (match Parser.parse "//@k" with
  | Logical_plan.Step
      ( Logical_plan.Step (Logical_plan.Root, { axis = Axis.Descendant_or_self; _ }),
        { axis = Axis.Attribute; test = Logical_plan.Name "k"; _ } ) ->
    ()
  | _ -> Alcotest.fail "//@k");
  (match Parser.parse "a | /b | //c" with
  | Logical_plan.Union (Logical_plan.Union (_, _), _) -> ()
  | _ -> Alcotest.fail "left-assoc union");
  (* positional + value predicates chain in order *)
  (match Parser.parse "/a[2][. = \"x\"]" with
  | Logical_plan.Step
      (_, { predicates = [ Logical_plan.Position 2; Logical_plan.Value_pred _ ]; _ }) ->
    ()
  | _ -> Alcotest.fail "predicate order")

let test_parser_errors () =
  List.iter
    (fun input ->
      match Parser.parse input with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error for %s" input)
    [ ""; "/a/"; "a[]"; "a[1 = ]"; "a[',']"; "a[b or c]"; "a[0]"; "a[1.5]"; "/a |"; "self::a()" ]

let test_parse_pattern_rejects () =
  List.iter
    (fun input ->
      match Parser.parse_pattern input with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected rejection for %s" input)
    [ "/a/b[1]"; "/a/../b"; "//a | //b"; "/a/text()" ]

(* ------------------------------------------------------------------ *)
(* Printer-roundtrip fuzz                                              *)
(* ------------------------------------------------------------------ *)

(* Print a plan in fully-explicit axis syntax, which the parser maps back
   one-to-one (no '//' or '@' shortcuts, so no desugaring on the way in). *)
let rec plan_to_xpath (plan : Logical_plan.t) =
  match plan with
  | Logical_plan.Root -> "/"
  | Logical_plan.Context -> "."
  | Logical_plan.Union (a, b) -> plan_to_xpath a ^ " | " ^ plan_to_xpath b
  | Logical_plan.Tpm _ -> assert false (* not generated *)
  | Logical_plan.Step (base, s) ->
    let prefix =
      match base with
      | Logical_plan.Root -> "/"
      | Logical_plan.Context -> ""
      | other -> plan_to_xpath other ^ "/"
    in
    prefix ^ step_to_xpath s

and step_to_xpath (s : Logical_plan.step) =
  let test =
    match s.Logical_plan.test with
    | Logical_plan.Name n -> n
    | Logical_plan.Any -> "*"
    | Logical_plan.Text_node -> "text()"
    | Logical_plan.Node -> "node()"
  in
  Printf.sprintf "%s::%s%s" (Axis.to_string s.Logical_plan.axis) test
    (String.concat "" (List.map pred_to_xpath s.Logical_plan.predicates))

and pred_to_xpath (p : Logical_plan.predicate) =
  match p with
  | Logical_plan.Position k -> Printf.sprintf "[%d]" k
  | Logical_plan.Exists sub -> Printf.sprintf "[%s]" (plan_to_xpath sub)
  | Logical_plan.Value_pred { comparison; literal } ->
    let lit =
      match literal with
      | Pattern_graph.Num n -> Printf.sprintf "%.12g" n
      | Pattern_graph.Str s -> Printf.sprintf "\"%s\"" s
    in
    (match comparison with
    | Pattern_graph.Contains -> Printf.sprintf "[contains(., %s)]" lit
    | op ->
      let op_str =
        match op with
        | Pattern_graph.Eq -> "="
        | Pattern_graph.Ne -> "!="
        | Pattern_graph.Lt -> "<"
        | Pattern_graph.Le -> "<="
        | Pattern_graph.Gt -> ">"
        | Pattern_graph.Ge -> ">="
        | Pattern_graph.Contains -> assert false
      in
      Printf.sprintf "[. %s %s]" op_str lit)

let gen_plan =
  let open QCheck2.Gen in
  let axis =
    oneofl
      [ Axis.Child; Axis.Descendant; Axis.Attribute; Axis.Self; Axis.Parent; Axis.Ancestor;
        Axis.Descendant_or_self; Axis.Following_sibling; Axis.Preceding_sibling ]
  in
  let test =
    frequency
      [
        (5, map (fun n -> Logical_plan.Name n) (oneofl [ "a"; "b"; "ns:c" ]));
        (1, return Logical_plan.Any);
        (1, return Logical_plan.Text_node);
      ]
  in
  let literal =
    oneof
      [
        map (fun i -> Pattern_graph.Num (float_of_int i)) (int_range 0 99);
        map (fun s -> Pattern_graph.Str s) (oneofl [ "v"; "hello"; "" ]);
      ]
  in
  let value_pred =
    let* comparison =
      oneofl
        [ Pattern_graph.Eq; Pattern_graph.Ne; Pattern_graph.Lt; Pattern_graph.Le;
          Pattern_graph.Gt; Pattern_graph.Ge; Pattern_graph.Contains ]
    in
    let* literal = literal in
    let literal =
      (* contains() takes a string literal in the grammar *)
      if comparison = Pattern_graph.Contains then
        match literal with Pattern_graph.Num _ -> Pattern_graph.Str "v" | s -> s
      else literal
    in
    return (Logical_plan.Value_pred { Pattern_graph.comparison; literal })
  in
  let rec step depth =
    let* axis = axis in
    let* test = test in
    let* predicates =
      if depth <= 0 then return []
      else
        list_size (int_bound 2)
          (oneof
             [
               value_pred;
               map (fun k -> Logical_plan.Position k) (int_range 1 5);
               map
                 (fun steps -> Logical_plan.Exists (Logical_plan.of_steps ~base:Logical_plan.Context steps))
                 (list_size (int_range 1 2) (step (depth - 1)));
             ])
    in
    return { Logical_plan.axis; test; predicates }
  in
  let* base = oneofl [ Logical_plan.Root; Logical_plan.Context ] in
  let* steps = list_size (int_range 1 4) (step 2) in
  let chain = Logical_plan.of_steps ~base steps in
  let* with_union = QCheck2.Gen.bool in
  if with_union then
    let* steps2 = list_size (int_range 1 2) (step 1) in
    return (Logical_plan.Union (chain, Logical_plan.of_steps ~base:Logical_plan.Root steps2))
  else return chain

let prop_xpath_roundtrip =
  QCheck2.Test.make ~name:"plan print |> parse = id" ~count:400 gen_plan (fun plan ->
      let source = plan_to_xpath plan in
      match Parser.parse source with
      | parsed ->
        if Logical_plan.equal parsed plan then true
        else QCheck2.Test.fail_reportf "roundtrip changed %s" source
      | exception exn ->
        QCheck2.Test.fail_reportf "failed to reparse %s: %s" source (Printexc.to_string exn))

let prop_roundtrip_evaluates_identically =
  (* belt and braces: the reparsed plan evaluates identically too *)
  QCheck2.Test.make ~name:"reparsed plan evaluates identically" ~count:100
    QCheck2.Gen.(pair gen_plan (pure ()))
    (fun (plan, ()) ->
      let doc =
        Xqp_xml.Document.of_string
          "<a k=\"v\"><b>1</b><a><b>hello</b><c/></a><c>2</c></a>"
      in
      let context = [ Operators.document_context ] in
      let before = Xqp_physical.Navigation.eval_plan doc plan ~context in
      let after =
        Xqp_physical.Navigation.eval_plan doc (Parser.parse (plan_to_xpath plan)) ~context
      in
      before = after)

let suite =
  [
    ( "xpath.lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
      ] );
    ( "xpath.parser",
      [
        Alcotest.test_case "shapes" `Quick test_parser_shapes;
        Alcotest.test_case "errors" `Quick test_parser_errors;
        Alcotest.test_case "parse_pattern rejections" `Quick test_parse_pattern_rejects;
        QCheck_alcotest.to_alcotest prop_xpath_roundtrip;
        QCheck_alcotest.to_alcotest prop_roundtrip_evaluates_identically;
      ] );
  ]
