module Doc = Xqp_xml.Document
module Tree = Xqp_xml.Tree
module Pg = Pattern_graph

type doc = Doc.t
type node = Doc.node

let document_context = -1

(* --- structure-based ------------------------------------------------ *)

let select_tag doc name nodes =
  List.filter
    (fun id ->
      match Doc.kind doc id with
      | Doc.Element | Doc.Attribute -> String.equal (Doc.name doc id) name
      | Doc.Text | Doc.Comment | Doc.Pi -> false)
    nodes

let descendants doc id =
  let acc = ref [] in
  Doc.iter_descendants doc id (fun d ->
      match Doc.kind doc d with Doc.Element -> acc := d :: !acc | _ -> ());
  List.rev !acc

let element_children doc id =
  List.filter (fun c -> Doc.kind doc c = Doc.Element) (Doc.children doc id)

let all_elements doc =
  let acc = ref [] in
  for id = Doc.node_count doc - 1 downto 0 do
    if Doc.kind doc id = Doc.Element then acc := id :: !acc
  done;
  !acc

let axis_nodes doc axis id =
  if id = document_context then
    (* Virtual document node: parent of the root element. *)
    match (axis : Axis.t) with
    | Self -> [ id ]
    | Child -> [ Doc.root doc ]
    | Descendant -> all_elements doc
    | Descendant_or_self -> all_elements doc
    | Parent | Ancestor | Ancestor_or_self | Attribute | Following_sibling | Preceding_sibling
    | Following | Preceding ->
      []
  else
  match (axis : Axis.t) with
  | Self -> [ id ]
  | Child -> element_children doc id
  | Attribute -> Doc.attributes doc id
  | Descendant -> descendants doc id
  | Descendant_or_self -> id :: descendants doc id
  | Parent -> ( match Doc.parent doc id with Some p -> [ p ] | None -> [])
  | Ancestor ->
    (* nearest-first = reverse document order *)
    let rec climb id acc = match Doc.parent doc id with None -> acc | Some p -> climb p (p :: acc) in
    List.rev (climb id [])
  | Ancestor_or_self ->
    let rec climb id acc = match Doc.parent doc id with None -> acc | Some p -> climb p (p :: acc) in
    id :: List.rev (climb id [])
  | Following_sibling when Doc.kind doc id = Doc.Attribute -> [] (* attributes have no siblings *)
  | Following_sibling ->
    let rec chain id acc =
      match Doc.next_sibling doc id with
      | Some s -> chain s (if Doc.kind doc s = Doc.Element then s :: acc else acc)
      | None -> List.rev acc
    in
    chain id []
  | Preceding_sibling ->
    let rec chain id acc =
      match Doc.prev_sibling doc id with
      | Some s -> chain s (if Doc.kind doc s = Doc.Element then s :: acc else acc)
      | None -> acc
    in
    List.rev (chain id []) (* nearest-first *)
  | Following ->
    (* document order after my subtree, excluding descendants and attributes *)
    let stop = Doc.subtree_end doc id in
    let acc = ref [] in
    for d = stop + 1 to Doc.node_count doc - 1 do
      if Doc.kind doc d = Doc.Element then acc := d :: !acc
    done;
    List.rev !acc
  | Preceding ->
    (* before me in document order, excluding ancestors *)
    let acc = ref [] in
    for d = 0 to id - 1 do
      if Doc.kind doc d = Doc.Element && not (Doc.is_ancestor doc d id) then acc := d :: !acc
    done;
    !acc (* nearest-first (reverse document order) *)

let navigate_axis doc axis nodes =
  Nested_list.group
    (List.map
       (fun id -> Nested_list.group (List.map Nested_list.atom (axis_nodes doc axis id)))
       nodes)

let rel_holds doc (rel : Pg.rel) a d =
  match rel with
  | Pg.Child -> Doc.is_parent doc a d && Doc.kind doc d <> Doc.Attribute
  | Pg.Descendant -> Doc.is_ancestor doc a d && Doc.kind doc d <> Doc.Attribute
  | Pg.Attribute -> Doc.is_parent doc a d && Doc.kind doc d = Doc.Attribute
  | Pg.Following_sibling ->
    Doc.parent doc a = Doc.parent doc d && a < d
    && Doc.kind doc a <> Doc.Attribute
    && Doc.kind doc d <> Doc.Attribute

let structural_join doc rel left right =
  let pairs = ref [] in
  List.iter
    (fun a -> List.iter (fun d -> if rel_holds doc rel a d then pairs := (a, d) :: !pairs) right)
    left;
  List.sort compare !pairs

(* --- value-based ---------------------------------------------------- *)

let select_value doc pred nodes = List.filter (Pg.predicate_holds doc pred) nodes

let value_join doc comparison left right =
  let compare_values a d =
    let va = Doc.typed_value doc a and vd = Doc.typed_value doc d in
    match (Pg.number_of_string va, Pg.number_of_string vd) with
    | Some x, Some y -> Float.compare x y
    | _ -> String.compare va vd
  in
  let keep c =
    match (comparison : Pg.comparison) with
    | Pg.Eq -> c = 0
    | Pg.Ne -> c <> 0
    | Pg.Lt -> c < 0
    | Pg.Le -> c <= 0
    | Pg.Gt -> c > 0
    | Pg.Ge -> c >= 0
    | Pg.Contains -> false
  in
  let pairs = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun d ->
          let ok =
            match comparison with
            | Pg.Contains ->
              Pg.predicate_holds doc
                { Pg.comparison = Pg.Contains; literal = Pg.Str (Doc.typed_value doc d) }
                a
            | _ -> keep (compare_values a d)
          in
          if ok then pairs := (a, d) :: !pairs)
        right)
    left;
  List.sort compare !pairs

(* --- tree pattern matching (reference) ------------------------------ *)

(* Candidate nodes for an arc from a matched source node. *)
let arc_candidates doc (rel : Pg.rel) source =
  if source = document_context then
    match rel with
    | Pg.Child -> [ Doc.root doc ]
    | Pg.Descendant -> all_elements doc
    | Pg.Attribute | Pg.Following_sibling -> []
  else
  match rel with
  | Pg.Child -> Doc.children doc source
  | Pg.Attribute -> Doc.attributes doc source
  | Pg.Descendant ->
    let acc = ref [] in
    Doc.iter_descendants doc source (fun d ->
        if Doc.kind doc d <> Doc.Attribute then acc := d :: !acc);
    List.rev !acc
  | Pg.Following_sibling when Doc.kind doc source = Doc.Attribute -> []
  | Pg.Following_sibling ->
    let rec chain id acc =
      match Doc.next_sibling doc id with Some s -> chain s (s :: acc) | None -> List.rev acc
    in
    chain source []

let embeddings doc pattern ~context =
  let n = Pg.vertex_count pattern in
  let results = ref [] in
  let assignment = Array.make n (-1) in
  (* Vertices in pre-order so a vertex's parent is assigned before it. *)
  let order = List.filter (fun v -> v <> 0) (Pg.vertices_in_document_order pattern) in
  let rec assign = function
    | [] -> results := Array.copy assignment :: !results
    | v :: rest ->
      let p, rel =
        match Pg.parent pattern v with Some pr -> pr | None -> assert false
      in
      List.iter
        (fun candidate ->
          if Pg.vertex_matches doc pattern v candidate then begin
            assignment.(v) <- candidate;
            assign rest;
            assignment.(v) <- -1
          end)
        (arc_candidates doc rel assignment.(p))
  in
  List.iter
    (fun ctx ->
      assignment.(0) <- ctx;
      assign order;
      assignment.(0) <- -1)
    context;
  List.rev !results

(* Existence-projected matching: for output sets we avoid enumerating all
   embeddings by a recursive subtree-satisfiability check, collecting, for
   each output vertex, the nodes that occur in at least one embedding. *)
let pattern_match doc pattern ~context =
  let outputs = Pg.outputs pattern in
  let collected = Hashtbl.create 16 in
  (* (vertex, node) -> unit for output hits *)
  (* matches v node: does the sub-pattern rooted at v embed with v -> node?
     When it does and we are *collecting* (i.e. the whole pattern embeds),
     we record output bindings: two phases to stay simple and correct —
     phase 1 computes satisfiability memoized, phase 2 walks embeddings but
     prunes with phase 1. *)
  let memo = Hashtbl.create 256 in
  let rec satisfiable v node =
    match Hashtbl.find_opt memo (v, node) with
    | Some answer -> answer
    | None ->
      let answer =
        (v = 0 || Pg.vertex_matches doc pattern v node)
        && List.for_all
             (fun (child, rel) ->
               List.exists (fun c -> satisfiable child c) (arc_candidates doc rel node))
             (Pg.children pattern v)
      in
      Hashtbl.add memo (v, node) answer;
      answer
  in
  (* Phase 2: descend only through satisfiable nodes, recording outputs. *)
  let rec collect v node =
    if (Pg.vertex pattern v).Pg.output then Hashtbl.replace collected (v, node) ();
    List.iter
      (fun (child, rel) ->
        List.iter
          (fun c -> if satisfiable child c then collect child c)
          (arc_candidates doc rel node))
      (Pg.children pattern v)
  in
  List.iter (fun ctx -> if satisfiable 0 ctx then collect 0 ctx) context;
  List.map
    (fun v ->
      let nodes =
        Hashtbl.fold (fun (v', node) () acc -> if v' = v then node :: acc else acc) collected []
      in
      (v, List.sort_uniq compare nodes))
    outputs

let pattern_match_nested doc pattern ~context =
  let per_vertex = pattern_match doc pattern ~context in
  let all = List.sort_uniq compare (List.concat_map snd per_vertex) in
  (* Group by nearest matched ancestor: since matched sets are small
     relative to the document, build the forest by a stack sweep in
     document order. *)
  let in_set = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_set id ()) all;
  let rec build nodes =
    (* [nodes] is a document-ordered list; take the first as a root of this
       level, collect its matched descendants as its group. *)
    match nodes with
    | [] -> []
    | root :: rest ->
      let stop = Doc.subtree_end doc root in
      let inside, outside = List.partition (fun id -> id <= stop) rest in
      let children = build inside in
      let entry =
        if children = [] then Nested_list.atom root
        else Nested_list.group (Nested_list.atom root :: children)
      in
      entry :: build outside
  in
  Nested_list.group (build all)

(* --- construction (γ) ------------------------------------------------ *)

let item_to_trees doc (item : Value.item) =
  match item with
  | Value.Node id -> (
    match Doc.kind doc id with
    | Doc.Attribute | Doc.Text -> [ Tree.text (Doc.content doc id) ]
    | Doc.Element | Doc.Comment | Doc.Pi -> [ Doc.to_tree doc id ])
  | Value.Frag tree -> [ tree ]
  | atomic -> [ Tree.text (Value.string_of_item doc atomic) ]

let construct doc nested schema =
  (* The current context is a nested list; [component i ctx] addresses the
     i-th element of the current group. *)
  let components ctx =
    match (ctx : Value.item Nested_list.t) with
    | Nested_list.Atom a -> [ Nested_list.Atom a ]
    | Nested_list.Group xs -> xs
  in
  let component_items ctx i =
    let comps = components ctx in
    match List.nth_opt comps i with
    | None -> []
    | Some comp -> Nested_list.flatten comp
  in
  let atomize items = String.concat "" (List.map (Value.string_of_item doc) items) in
  let rec emit ctx (schema : Schema_tree.t) =
    match schema with
    | Schema_tree.Text s -> [ Tree.text s ]
    | Schema_tree.Placeholder i -> List.concat_map (item_to_trees doc) (component_items ctx i)
    | Schema_tree.If_component (i, kids) ->
      let items = component_items ctx i in
      let truthy =
        match items with
        | [] -> false
        | [ single ] -> Value.effective_boolean doc [ single ]
        | _ :: _ -> true
      in
      if truthy then List.concat_map (emit ctx) kids else []
    | Schema_tree.For_group kids ->
      List.concat_map (fun group -> List.concat_map (emit group) kids) (components ctx)
    | Schema_tree.For_component (i, kids) -> (
      match List.nth_opt (components ctx) i with
      | None -> []
      | Some comp -> List.concat_map (fun group -> List.concat_map (emit group) kids) (components comp))
    | Schema_tree.Element e ->
      let attrs =
        List.map
          (fun (k, a) ->
            match (a : Schema_tree.attr) with
            | Schema_tree.Fixed v -> (k, v)
            | Schema_tree.From_component i -> (k, atomize (component_items ctx i)))
          e.attrs
      in
      [ Tree.elt ~attrs e.name (List.concat_map (emit ctx) e.children) ]
  in
  emit nested schema
