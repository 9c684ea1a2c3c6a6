module St = Xqp_algebra.Schema_tree
module Env = Xqp_algebra.Env
module Value = Xqp_algebra.Value
module Nested_list = Xqp_algebra.Nested_list
module Ops = Xqp_algebra.Operators
module Executor = Xqp_physical.Executor

type phi = Components of component list

and component =
  | Component_expr of Ast.expr
  | Comprehension of Ast.clause list * phi

type t = { schema : St.t; phi : phi }

(* Translate a constructor into a schema tree; [alloc] registers a new
   component for the current group level and returns its index. *)
let rec schema_of_constructor (c : Ast.constructor) alloc =
  let attrs =
    List.map
      (fun (key, pieces) ->
        match pieces with
        | [ Ast.Attr_text s ] -> (key, St.Fixed s)
        | [ Ast.Attr_expr e ] -> (key, St.From_component (alloc (Component_expr e)))
        | [] -> (key, St.Fixed "")
        | _ ->
          (* mixed attribute templates fall back to a single component
             concatenating at evaluation time is not expressible: treat the
             whole attribute as one dynamic component via a concat call *)
          (key, St.From_component (alloc (Component_expr (Ast.Call ("concat", attr_exprs pieces))))))
      c.Ast.attrs
  in
  let children =
    List.map
      (fun content ->
        match (content : Ast.content) with
        | Ast.Fixed_text s -> Some (St.Text s)
        | Ast.Nested nested -> Some (schema_of_constructor nested alloc)
        | Ast.Embedded e -> Some (schema_of_embedded e alloc))
      c.Ast.content
    |> List.filter_map (fun x -> x)
  in
  St.Element { name = c.Ast.name; attrs; children }

and attr_exprs pieces =
  List.map
    (function
      | Ast.Attr_text s -> Ast.Literal_string s
      | Ast.Attr_expr e -> e)
    pieces

and schema_of_embedded e alloc =
  match (e : Ast.expr) with
  | Ast.Flwor f -> (
    (* one subgroup per binding; the return clause is translated against a
       fresh component level *)
    match translate_return f.Ast.return_ with
    | Some (inner_schema, inner_phi) ->
      let idx = alloc (Comprehension (f.Ast.clauses, inner_phi)) in
      St.For_component (idx, [ inner_schema ])
    | None ->
      (* untranslatable return: the whole FLWOR becomes an opaque
         component *)
      St.Placeholder (alloc (Component_expr e)))
  | other -> St.Placeholder (alloc (Component_expr other))

(* Translate an expression appearing as a comprehension body: returns the
   schema for one binding-group plus that level's components. *)
and translate_return e =
  let components = ref [] in
  let count = ref 0 in
  let alloc comp =
    components := comp :: !components;
    let idx = !count in
    incr count;
    idx
  in
  let schema =
    match (e : Ast.expr) with
    | Ast.Constructor c -> Some (schema_of_constructor c alloc)
    | Ast.Sequence es ->
      let parts =
        List.map
          (fun part ->
            match part with
            | Ast.Constructor c -> schema_of_constructor c alloc
            | other -> St.Placeholder (alloc (Component_expr other)))
          es
      in
      (* a sequence return is a group of siblings: wrap via an If-free
         container by flattening into one For body later; we encode it as
         consecutive children under the For_component, which requires a
         list — use a synthetic wrapper handled by construct through
         For_component's kids list. *)
      Some
        (match parts with
        | [ single ] -> single
        | several -> St.For_group [] |> fun _ -> St.Element { name = "#seq"; attrs = []; children = several })
    | other -> Some (St.Placeholder (alloc (Component_expr other)))
  in
  match schema with
  | Some s -> Some (s, Components (List.rev !components))
  | None -> None

let translate expr =
  match (expr : Ast.expr) with
  | Ast.Constructor _ | Ast.Flwor _ -> (
    match translate_return expr with
    | Some (schema, Components comps) -> (
      match expr with
      | Ast.Flwor f -> (
        (* a bare FLWOR at top level: wrap as a single comprehension *)
        match translate_return f.Ast.return_ with
        | Some (inner_schema, inner_phi) ->
          Some
            {
              schema = St.For_component (0, [ inner_schema ]);
              phi = Components [ Comprehension (f.Ast.clauses, inner_phi) ];
            }
        | None -> None)
      | _ -> Some { schema; phi = Components comps })
    | None -> None)
  | _ -> None

(* --- execution -------------------------------------------------------- *)

let rec build_phi exec strategy bindings (Components comps) =
  Nested_list.Group (List.map (build_component exec strategy bindings) comps)

and build_component exec strategy bindings = function
  | Component_expr e ->
    let items = Eval.eval exec ~strategy ~bindings e in
    Nested_list.Group (List.map Nested_list.atom items)
  | Comprehension (clauses, inner) ->
    let env =
      List.fold_left
        (fun env clause ->
          match (clause : Ast.clause) with
          | Ast.For_clause (v, index, e) ->
            Env.extend_for ?index env v (fun bs ->
                Eval.eval exec ~strategy ~bindings:(bs @ bindings) e)
          | Ast.Let_clause (v, e) ->
            Env.extend_let env v (fun bs -> Eval.eval exec ~strategy ~bindings:(bs @ bindings) e)
          | Ast.Where_clause e ->
            Env.filter_where env (fun bs ->
                Value.effective_boolean (Executor.doc exec)
                  (Eval.eval exec ~strategy ~bindings:(bs @ bindings) e))
          | Ast.Order_by _ -> env (* ordering ignored in the algebraic path *))
        Env.empty clauses
    in
    Nested_list.Group
      (List.map
         (fun bs -> build_phi exec strategy (bs @ bindings) inner)
         (Env.paths env))

let execute exec ?(strategy = Executor.Auto) t =
  let nested = build_phi exec strategy [] t.phi in
  let trees = Ops.construct (Executor.doc exec) nested t.schema in
  (* unwrap synthetic sequence containers *)
  let rec unwrap tree =
    match (tree : Xqp_xml.Tree.t) with
    | Xqp_xml.Tree.Element e when String.equal e.Xqp_xml.Tree.name "#seq" ->
      List.concat_map unwrap e.Xqp_xml.Tree.children
    | Xqp_xml.Tree.Element e ->
      [ Xqp_xml.Tree.Element { e with children = List.concat_map unwrap e.Xqp_xml.Tree.children } ]
    | other -> [ other ]
  in
  List.concat_map unwrap trees

(* --- generalized tree patterns --------------------------------------- *)

type gtp_translation = { gtp_schema : St.t; gtp : Xqp_algebra.Gtp.t }

module Lp = Xqp_algebra.Logical_plan
module Pg = Xqp_algebra.Pattern_graph
module Axis = Xqp_algebra.Axis

(* A plan as a chain of (rel, label, predicate) triples — the shape Gtp
   consumes. Only downward axes with value predicates qualify. *)
let chain_of_plan plan =
  match Lp.steps_of plan with
  | None -> None
  | Some (_, steps) ->
    let step_triple (s : Lp.step) =
      let rel =
        match s.Lp.axis with
        | Axis.Child -> Some Pg.Child
        | Axis.Descendant -> Some Pg.Descendant
        | Axis.Attribute -> Some Pg.Attribute
        | _ -> None
      in
      let label =
        match s.Lp.test with
        | Lp.Name n -> Some (Pg.Tag n)
        | Lp.Any -> Some Pg.Wildcard
        | Lp.Text_node | Lp.Node -> None
      in
      let preds =
        List.fold_left
          (fun acc p ->
            match (acc, p) with
            | Some ps, Lp.Value_pred vp -> Some (vp :: ps)
            | _ -> None)
          (Some []) s.Lp.predicates
      in
      match (rel, label, preds) with
      | Some r, Some l, Some ps -> Some (r, l, List.rev ps)
      | _ -> None
    in
    let rec convert = function
      | [] -> Some []
      | s :: rest -> (
        match (step_triple s, convert rest) with
        | Some t, Some ts -> Some (t :: ts)
        | _ -> None)
    in
    convert steps

(* the return constructor: children may be fixed text, nested constructors
   without embedded expressions, or [Embedded (Var v)] placeholders *)
let rec gtp_return_schema (c : Ast.constructor) var_index =
  let attrs_ok = List.for_all (fun (_, ps) -> match ps with [ Ast.Attr_text _ ] | [] -> true | _ -> false) c.Ast.attrs in
  if not attrs_ok then None
  else begin
    let attrs =
      List.map
        (fun (k, ps) -> (k, match ps with [ Ast.Attr_text s ] -> St.Fixed s | _ -> St.Fixed ""))
        c.Ast.attrs
    in
    let rec children acc = function
      | [] -> Some (List.rev acc)
      | Ast.Fixed_text s :: rest -> children (St.Text s :: acc) rest
      | Ast.Nested nested :: rest -> (
        match gtp_return_schema nested var_index with
        | Some sub -> children (sub :: acc) rest
        | None -> None)
      | Ast.Embedded (Ast.Var v) :: rest -> (
        match var_index v with
        | Some i -> children (St.Placeholder i :: acc) rest
        | None -> None)
      | Ast.Embedded _ :: _ -> None
    in
    match children [] c.Ast.content with
    | Some kids -> Some (St.Element { name = c.Ast.name; attrs; children = kids })
    | None -> None
  end

let translate_gtp expr =
  match (expr : Ast.expr) with
  | Ast.Constructor outer -> (
    (* exactly one embedded FLWOR among otherwise fixed content *)
    let embedded =
      List.filter_map
        (function Ast.Embedded e -> Some e | Ast.Fixed_text _ | Ast.Nested _ -> None)
        outer.Ast.content
    in
    match embedded with
    | [ Ast.Flwor f ] -> (
      let clauses = f.Ast.clauses in
      match clauses with
      | Ast.For_clause (b, None, Ast.Path (Ast.From_root, spine_plan)) :: lets ->
        let let_bindings =
          List.fold_left
            (fun acc clause ->
              match (acc, clause) with
              | Some bs, Ast.Let_clause (v, Ast.Path (Ast.From_expr (Ast.Var b'), p))
                when String.equal b' b ->
                Some ((v, p) :: bs)
              | _ -> None)
            (Some []) lets
        in
        (match let_bindings with
        | None -> None
        | Some bs -> (
          let bs = List.rev bs in
          let spine = chain_of_plan spine_plan in
          let comps =
            List.fold_left
              (fun acc (_, p) ->
                match (acc, chain_of_plan p) with
                | Some cs, Some c -> Some (c :: cs)
                | _ -> None)
              (Some []) bs
          in
          match (spine, comps) with
          | Some spine, Some comps_rev -> (
            let comps = List.rev comps_rev in
            let var_index v =
              let rec find i = function
                | [] -> None
                | (v', _) :: rest -> if String.equal v v' then Some i else find (i + 1) rest
              in
              find 0 bs
            in
            match f.Ast.return_ with
            | Ast.Constructor rc -> (
              match gtp_return_schema rc var_index with
              | Some inner -> (
                match Xqp_algebra.Gtp.make ~spine ~components:comps with
                | gtp ->
                  let fixed_children =
                    List.map
                      (function
                        | Ast.Embedded _ -> St.For_component (0, [ inner ])
                        | Ast.Fixed_text s -> St.Text s
                        | Ast.Nested n -> (
                          match gtp_return_schema n var_index with
                          | Some sub -> sub
                          | None -> St.Text ""))
                      outer.Ast.content
                  in
                  Some
                    {
                      gtp_schema =
                        St.Element
                          { name = outer.Ast.name; attrs = []; children = fixed_children };
                      gtp;
                    }
                | exception Invalid_argument _ -> None)
              | None -> None)
            | _ -> None)
          | _ -> None))
      | _ -> None)
    | _ -> None)
  | _ -> None

let execute_gtp exec t =
  let doc = Executor.doc exec in
  let groups =
    Xqp_algebra.Gtp.match_groups doc t.gtp ~context:[ Ops.document_context ]
  in
  (* wrap: the comprehension is component 0 of the top-level tuple *)
  let nested = Nested_list.Group [ groups ] in
  Ops.construct doc nested t.gtp_schema

let rec pp_phi ppf (Components comps) =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf comp ->
         match comp with
         | Component_expr e -> Ast.pp ppf e
         | Comprehension (clauses, inner) ->
           Format.fprintf ppf "[%a | %a]" pp_phi inner
             (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") Ast.pp_clause)
             clauses))
    comps

let pp ppf t = Format.fprintf ppf "schema=%a phi=%a" St.pp t.schema pp_phi t.phi
