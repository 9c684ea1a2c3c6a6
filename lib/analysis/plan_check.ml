module Lp = Xqp_algebra.Logical_plan
module Pg = Xqp_algebra.Pattern_graph
module Axis = Xqp_algebra.Axis
module D = Diagnostic
module SS = Set.Make (String)

type kind = Doc_node | Element | Attribute | Text

(* Kind sets as 4-bit masks. *)
type kinds = int

let bit = function Doc_node -> 1 | Element -> 2 | Attribute -> 4 | Text -> 8
let kinds ks = List.fold_left (fun acc k -> acc lor bit k) 0 ks
let all_kinds = [ Doc_node; Element; Attribute; Text ]
let kind_list m = List.filter (fun k -> m land bit k <> 0) all_kinds
let any_node = kinds all_kinds
let document_context = bit Doc_node
let elem_like = bit Doc_node lor bit Element

let kind_name = function
  | Doc_node -> "document"
  | Element -> "element"
  | Attribute -> "attribute"
  | Text -> "text"

let pp_kinds ppf m =
  if m = 0 then Format.pp_print_string ppf "none"
  else
    Format.fprintf ppf "{%s}" (String.concat ", " (List.map kind_name (kind_list m)))

type sort = Node_list of kinds

let pp_sort ppf (Node_list m) = Format.fprintf ppf "List%a" pp_kinds m

(* --- kind transitions --------------------------------------------------- *)

(* What kinds can one navigation step reach from a single context kind,
   before the node test applies? Mirrors {!Xqp_physical.Navigation}'s
   axis semantics: attributes and texts are leaves, the virtual document
   node has the root element as its only child and no upward/sideways
   context, sibling axes can see elements and texts. *)
let axis_from_kind k (axis : Axis.t) =
  let e = bit Element and t = bit Text and a = bit Attribute and d = bit Doc_node in
  match k with
  | Doc_node -> (
    match axis with
    | Axis.Self -> d
    | Axis.Child | Axis.Descendant -> e lor t
    | Axis.Descendant_or_self -> d lor e lor t
    | Axis.Attribute | Axis.Parent | Axis.Ancestor | Axis.Ancestor_or_self
    | Axis.Following_sibling | Axis.Preceding_sibling | Axis.Following | Axis.Preceding ->
      0)
  | Element -> (
    match axis with
    | Axis.Self -> e
    | Axis.Child | Axis.Descendant -> e lor t
    | Axis.Descendant_or_self -> e lor t
    | Axis.Attribute -> a
    | Axis.Parent | Axis.Ancestor -> e lor d
    | Axis.Ancestor_or_self -> e lor d
    | Axis.Following_sibling | Axis.Preceding_sibling | Axis.Following | Axis.Preceding -> e lor t)
  | Attribute -> (
    match axis with
    | Axis.Self -> a
    | Axis.Descendant_or_self -> a
    | Axis.Child | Axis.Descendant | Axis.Attribute -> 0
    | Axis.Parent -> e
    | Axis.Ancestor -> e lor d
    | Axis.Ancestor_or_self -> a lor e lor d
    | Axis.Following_sibling | Axis.Preceding_sibling | Axis.Following | Axis.Preceding -> e lor t)
  | Text -> (
    match axis with
    | Axis.Self -> t
    | Axis.Descendant_or_self -> t
    | Axis.Child | Axis.Descendant | Axis.Attribute -> 0
    | Axis.Parent -> e
    | Axis.Ancestor -> e lor d
    | Axis.Ancestor_or_self -> t lor e lor d
    | Axis.Following_sibling | Axis.Preceding_sibling | Axis.Following | Axis.Preceding -> e lor t)

let axis_kinds ctx axis =
  List.fold_left (fun acc k -> acc lor axis_from_kind k axis) 0 (kind_list ctx)

(* The node test's kind filter (navigation's [test_matches]):
   name tests see elements — attributes on the attribute axis; [*]
   additionally passes the virtual document node on a bare [self::*];
   [text()] sees text nodes. *)
let test_kinds (axis : Axis.t) (test : Lp.node_test) =
  match test with
  | Lp.Name _ -> if axis = Axis.Attribute then bit Attribute else bit Element
  | Lp.Any ->
    if axis = Axis.Attribute then bit Attribute
    else bit Element lor (if axis = Axis.Self then bit Doc_node else 0)
  | Lp.Text_node -> if axis = Axis.Attribute then 0 else bit Text
  | Lp.Node ->
    if axis = Axis.Attribute then bit Attribute
    else if axis = Axis.Self then bit Element lor bit Attribute lor bit Text lor bit Doc_node
    else bit Element lor bit Text

let test_name = function
  | Lp.Name n -> n
  | Lp.Any -> "*"
  | Lp.Text_node -> "text()"
  | Lp.Node -> "node()"

let step_label (s : Lp.step) = Printf.sprintf "%s::%s" (Axis.to_string s.Lp.axis) (test_name s.Lp.test)

(* --- sort inference ----------------------------------------------------- *)

let singleton_axis = function Axis.Self | Axis.Parent -> true | _ -> false

let rec go plan ~context =
  match (plan : Lp.t) with
  | Lp.Root -> (document_context, [], 0)
  | Lp.Context -> (context, [], 0)
  | Lp.Union (a, b) ->
    let ka, da, _ = go a ~context in
    let kb, db, _ = go b ~context in
    ( ka lor kb,
      List.map (D.with_path "union left") da @ List.map (D.with_path "union right") db,
      0 )
  | Lp.Tpm (base, pg) ->
    let kb, db, nb = go base ~context in
    let path = [ Printf.sprintf "tpm after step %d" nb ] in
    let diags = ref (List.rev db) in
    let report d = diags := d :: !diags in
    if kb land elem_like = 0 && kb <> 0 then
      report
        (D.errorf ~path ~code:"sort/tpm-context"
           "pattern match applied from a context of kinds %s — tree patterns bind elements"
           (Format.asprintf "%a" pp_kinds kb));
    List.iter (fun d -> report (D.with_path (List.hd path) d)) (Pattern_check.check pg);
    (* result kinds: outputs reached over an attribute arc yield attributes,
       everything else yields elements *)
    let out =
      List.fold_left
        (fun acc v ->
          match Pg.parent pg v with
          | Some (_, Pg.Attribute) -> acc lor bit Attribute
          | _ -> acc lor bit Element)
        0 (Pg.outputs pg)
    in
    (out, List.rev !diags, nb)
  | Lp.Step (base, s) ->
    let kb, db, nb = go base ~context in
    let idx = nb + 1 in
    let path = [ Printf.sprintf "step %d (%s)" idx (step_label s) ] in
    let diags = ref (List.rev db) in
    let report d = diags := d :: !diags in
    let reached = axis_kinds kb s.Lp.axis in
    let result = reached land test_kinds s.Lp.axis s.Lp.test in
    if result = 0 && kb <> 0 then
      report
        (D.errorf ~path ~code:"sort/empty-step"
           "step can never produce a node: %s from a context of kinds %s" (step_label s)
           (Format.asprintf "%a" pp_kinds kb));
    (* predicates *)
    let value_preds =
      List.filter_map (function Lp.Value_pred p -> Some p | _ -> None) s.Lp.predicates
    in
    (match Pattern_check.contradiction value_preds with
    | None -> ()
    | Some msg ->
      let code =
        if
          List.exists
            (fun p ->
              match (p.Pg.comparison, p.Pg.literal) with Pg.Contains, Pg.Num _ -> true | _ -> false)
            value_preds
        then "sort/contains-num"
        else "sort/contradiction"
      in
      report (D.error ~path ~code msg));
    List.iteri
      (fun i p ->
        let ppath = path @ [ Printf.sprintf "predicate %d" (i + 1) ] in
        match (p : Lp.predicate) with
        | Lp.Position k ->
          if k <= 0 then
            report (D.errorf ~path:ppath ~code:"sort/position" "position predicate [%d] can never hold" k)
          else if k > 1 && singleton_axis s.Lp.axis then
            report
              (D.warningf ~path:ppath ~code:"sort/position-singleton"
                 "position [%d] on the singleton axis %s selects nothing" k
                 (Axis.to_string s.Lp.axis))
        | Lp.Value_pred _ -> ()
        | Lp.Exists sub ->
          let _, sub_diags, _ = go sub ~context:result in
          List.iter
            (fun d -> report (List.fold_right D.with_path ppath d))
            sub_diags)
      s.Lp.predicates;
    (result, List.rev !diags, idx)

let infer ?(context = any_node) plan =
  let k, diags, _ = go plan ~context in
  (Node_list k, diags)

(* --- schema-aware emptiness --------------------------------------------- *)

type nameset = Top | Names of SS.t

let names_of_list l = Names (SS.of_list l)

let union_ns a b =
  match (a, b) with Top, _ | _, Top -> Top | Names x, Names y -> Names (SS.union x y)

(* Context of the schema walk: can the context be the virtual document
   node, and if it is an element, which names can it have. *)
type sctx = { at_doc : bool; elems : nameset }

let top_ctx = { at_doc = true; elems = Top }

let parents_of (_ : Schema_info.t) ctx =
  match ctx.elems with
  | Top -> None (* unknown: everything satisfiable *)
  | Names s -> Some (SS.elements s)

let schema_step schema ctx (s : Lp.step) ~path report =
  let unknown_name n ~attr =
    let exists = if attr then Schema_info.has_attribute schema n else Schema_info.has_element schema n in
    if not exists then begin
      report
        (D.warningf ~path ~code:"schema/unknown-name" "%s %s occurs nowhere in the workload schema"
           (if attr then "attribute" else "element")
           n);
      true
    end
    else false
  in
  match (s.Lp.axis, s.Lp.test) with
  | Axis.Attribute, Lp.Name n ->
    if not (unknown_name n ~attr:true) then begin
      match parents_of schema ctx with
      | None -> ()
      | Some parents ->
        if not (Schema_info.attribute_on schema ~parents n) then
          report
            (D.warningf ~path ~code:"schema/empty"
               "attribute @%s never occurs on the possible context elements (%s)" n
               (String.concat ", " parents))
    end;
    { at_doc = false; elems = Names SS.empty }
  | Axis.Child, Lp.Name n ->
    if unknown_name n ~attr:false then { at_doc = false; elems = Top }
    else begin
      (match parents_of schema ctx with
      | None -> ()
      | Some parents ->
        let root_ok = ctx.at_doc && List.mem n (Schema_info.roots schema) in
        if not (root_ok || Schema_info.child_of schema ~parents n) then
          report
            (D.warningf ~path ~code:"schema/empty"
               "element <%s> is never a child of the possible context elements (%s)" n
               (String.concat ", " parents)));
      { at_doc = false; elems = names_of_list [ n ] }
    end
  | (Axis.Descendant | Axis.Descendant_or_self), Lp.Name n ->
    if unknown_name n ~attr:false then { at_doc = false; elems = Top }
    else begin
      (match parents_of schema ctx with
      | None -> ()
      | Some parents ->
        let self_ok =
          s.Lp.axis = Axis.Descendant_or_self
          && match ctx.elems with Top -> true | Names es -> SS.mem n es
        in
        let root_ok =
          ctx.at_doc
          && (List.mem n (Schema_info.roots schema)
             || Schema_info.descendant_of schema ~parents:(Schema_info.roots schema) n)
        in
        if not (self_ok || root_ok || Schema_info.descendant_of schema ~parents n) then
          report
            (D.warningf ~path ~code:"schema/empty"
               "element <%s> never occurs below the possible context elements (%s)" n
               (String.concat ", " parents)));
      { at_doc = false; elems = names_of_list [ n ] }
    end
  | Axis.Self, Lp.Name n ->
    (match ctx.elems with
    | Names es when not (SS.mem n es) && not ctx.at_doc && not (SS.is_empty es) ->
      report
        (D.warningf ~path ~code:"schema/empty" "self::%s cannot hold here (context is %s)" n
           (String.concat ", " (SS.elements es)))
    | _ -> ());
    { at_doc = false; elems = names_of_list [ n ] }
  | Axis.Child, Lp.Any ->
    let elems =
      match parents_of schema ctx with
      | None -> Top
      | Some parents ->
        let base = Schema_info.all_children schema ~parents in
        if ctx.at_doc then union_ns (names_of_list base) (names_of_list (Schema_info.roots schema))
        else names_of_list base
    in
    { at_doc = false; elems }
  | (Axis.Descendant | Axis.Descendant_or_self), Lp.Any ->
    let elems =
      match parents_of schema ctx with
      | None -> Top
      | Some parents ->
        let below = names_of_list (Schema_info.all_descendants schema ~parents) in
        let self = if s.Lp.axis = Axis.Descendant_or_self then ctx.elems else Names SS.empty in
        let roots =
          if ctx.at_doc then
            union_ns
              (names_of_list (Schema_info.roots schema))
              (names_of_list (Schema_info.all_descendants schema ~parents:(Schema_info.roots schema)))
          else Names SS.empty
        in
        union_ns (union_ns below self) roots
    in
    { at_doc = false; elems }
  | _ ->
    (* upward, sideways, attribute wildcards, text() — give up precision
       rather than risk a false emptiness *)
    top_ctx

let rec schema_go schema plan ~ctx report =
  match (plan : Lp.t) with
  | Lp.Root -> ({ at_doc = true; elems = Names SS.empty }, 0)
  | Lp.Context -> (ctx, 0)
  | Lp.Union (a, b) ->
    let ca, _ = schema_go schema a ~ctx (fun d -> report (D.with_path "union left" d)) in
    let cb, _ = schema_go schema b ~ctx (fun d -> report (D.with_path "union right" d)) in
    ({ at_doc = ca.at_doc || cb.at_doc; elems = union_ns ca.elems cb.elems }, 0)
  | Lp.Step (base, s) ->
    let bctx, nb = schema_go schema base ~ctx report in
    let idx = nb + 1 in
    let path = [ Printf.sprintf "step %d (%s)" idx (step_label s) ] in
    let out = schema_step schema bctx s ~path report in
    List.iteri
      (fun i p ->
        match (p : Lp.predicate) with
        | Lp.Exists sub ->
          let ppath = path @ [ Printf.sprintf "predicate %d" (i + 1) ] in
          ignore
            (schema_go schema sub ~ctx:out (fun d -> report (List.fold_right D.with_path ppath d)))
        | Lp.Value_pred _ | Lp.Position _ -> ())
      s.Lp.predicates;
    (out, idx)
  | Lp.Tpm (base, pg) ->
    let bctx, nb = schema_go schema base ~ctx report in
    let path = [ Printf.sprintf "tpm after step %d" nb ] in
    (* walk the pattern graph top-down, tracking possible names per vertex *)
    let n = Pg.vertex_count pg in
    let vertex_ctx = Array.make (max 1 n) top_ctx in
    vertex_ctx.(0) <- bctx;
    let out_ctx = ref { at_doc = false; elems = Names SS.empty } in
    List.iter
      (fun v ->
        if v <> 0 then begin
          match Pg.parent pg v with
          | None -> ()
          | Some (p, rel) ->
            let vx = Pg.vertex pg v in
            let axis =
              match rel with
              | Pg.Child -> Axis.Child
              | Pg.Descendant -> Axis.Descendant
              | Pg.Attribute -> Axis.Attribute
              | Pg.Following_sibling -> Axis.Following_sibling
            in
            let test =
              match vx.Pg.label with Pg.Tag name -> Lp.Name name | Pg.Wildcard -> Lp.Any
            in
            let vpath = path @ [ Printf.sprintf "vertex %d" v ] in
            let out =
              schema_step schema vertex_ctx.(p)
                { Lp.axis; test; predicates = [] }
                ~path:vpath report
            in
            vertex_ctx.(v) <- out;
            if vx.Pg.output then
              out_ctx := { at_doc = false; elems = union_ns !out_ctx.elems out.elems }
        end)
      (Pg.vertices_in_document_order pg);
    (!out_ctx, nb)

let check ?(context = any_node) ?schema plan =
  let _, diags = infer ~context plan in
  match schema with
  | None -> diags
  | Some schema ->
    let acc = ref [] in
    let start =
      {
        at_doc = context land bit Doc_node <> 0;
        elems = (if context land bit Element <> 0 then Top else Names SS.empty);
      }
    in
    ignore (schema_go schema plan ~ctx:start (fun d -> acc := d :: !acc));
    diags @ List.rev !acc
