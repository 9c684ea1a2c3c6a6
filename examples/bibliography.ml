(* The paper's running example (Fig. 1): the bib FLWOR query, evaluated
   both directly and through the algebra — SchemaTree extraction, the
   layered Env (Fig. 2 / Definition 3), and the γ construction operator.

   Run with: dune exec examples/bibliography.exe *)

open Xqp_xml
open Xqp_algebra
open Xqp_physical
open Xqp_xquery

let fig1_query =
  {|<results>{
      for $b in doc("bib.xml")/bib/book
      let $t := $b/title
      let $a := $b/author
      return <result>{$t}{$a}</result>
    }</results>|}

let () =
  (* A deterministic bib.xml in the spirit of the XQuery Use Cases. *)
  let tree = Xqp_workload.Gen_bib.document ~books:5 () in
  let doc = Document.of_tree tree in
  let exec = Executor.create doc in
  Format.printf "input document:@.%s@.@." (Serializer.to_string ~indent:2 tree);

  (* --- direct interpretation ---------------------------------------- *)
  let ast = Xq_parser.parse fig1_query in
  let value = Eval.eval exec ast in
  Format.printf "direct evaluation:@.%s@.@."
    (String.concat "\n" (List.map (Serializer.to_string ~indent:2) (Eval.result_trees exec value)));

  (* --- the algebraic pipeline ---------------------------------------- *)
  (* 1. The output template is extracted from the constructor expressions
     as a SchemaTree (Fig. 1(b)): results/result with two placeholders,
     the comprehension edge ϕ in between. *)
  let translation =
    match Translate.translate ast with Some t -> t | None -> failwith "untranslatable"
  in
  Format.printf "extracted schema tree (Fig 1b): %a@.@." Schema_tree.pp
    translation.Translate.schema;

  (* 2. ϕ evaluates to a nested list of ($t, $a) binding tuples through
     the Env sort (Fig. 2); 3. γ folds the schema tree over it. *)
  let trees = Translate.execute exec translation in
  Format.printf "algebraic evaluation (Env + gamma):@.%s@.@."
    (String.concat "\n" (List.map (Serializer.to_string ~indent:2) trees));

  (* --- the Env itself, made visible ----------------------------------- *)
  let books = Executor.execute exec (Executor.Query "/bib/book") in
  let env = Env.empty in
  let env = Env.extend_for env "b" (fun _ -> List.map (fun n -> Value.Node n) books) in
  let env =
    Env.extend_let env "t" (fun bindings ->
        match List.assoc "b" bindings with
        | [ Value.Node b ] ->
          List.map (fun n -> Value.Node n)
            (Operators.select_tag doc "title" (Operators.axis_nodes doc Axis.Child b))
        | _ -> [])
  in
  let env =
    Env.extend_for env "a" (fun bindings ->
        match List.assoc "b" bindings with
        | [ Value.Node b ] ->
          List.map (fun n -> Value.Node n)
            (Operators.select_tag doc "author" (Operators.axis_nodes doc Axis.Child b))
        | _ -> [])
  in
  Format.printf "environment schema %s with %d total bindings (Definition 3)@." (Env.schema env)
    (Env.path_count env);

  (* --- the third road: one generalized tree pattern (§5 / [9]) -------- *)
  let gtp_translation =
    match Translate.translate_gtp ast with Some t -> t | None -> failwith "gtp"
  in
  Format.printf "as one generalized tree pattern: %a@." Gtp.pp
    gtp_translation.Translate.gtp;
  let gtp_trees = Translate.execute_gtp exec gtp_translation in
  assert (
    String.equal
      (String.concat "" (List.map Serializer.to_string trees))
      (String.concat "" (List.map Serializer.to_string gtp_trees)));
  Format.printf "single-pattern evaluation agrees as well.@.@.";

  (* --- sanity: both roads agree --------------------------------------- *)
  let direct = Eval.result_string exec value in
  let algebraic = String.concat "" (List.map Serializer.to_string trees) in
  assert (String.equal direct algebraic);
  Format.printf "@.direct and algebraic evaluation agree.@."
