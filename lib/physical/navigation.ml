module Doc = Xqp_xml.Document
module Lp = Xqp_algebra.Logical_plan
module Pg = Xqp_algebra.Pattern_graph
module Ops = Xqp_algebra.Operators
module Axis = Xqp_algebra.Axis

type stats = { nodes_visited : int; steps_evaluated : int }

module M = Xqp_obs.Metrics
module Ps = Xqp_storage.Path_summary

let m_nodes_visited = M.counter M.default "engine.navigation.nodes_visited"
let m_steps_evaluated = M.counter M.default "engine.navigation.steps_evaluated"
let m_skipped_subtrees = M.counter M.default "engine.navigation.skipped_subtrees"

(* --- summary-derived skip-ahead ----------------------------------------- *)

(* For a descendant(-or-self) step, the path summary tells which element
   tags can have a matching node strictly below them; subtrees rooted at
   any other tag are jumped over wholesale ([subtree_end + 1] — the
   document-array equivalent of a find_close jump). The per-test skip set
   is materialized once as a bool array over the document's symbol ids and
   cached in the hints value. *)
type hints = {
  h_summary : Ps.t;
  h_symtab : Xqp_xml.Symtab.t;
  h_skip : (string, bool array) Hashtbl.t;
}

let make_hints doc summary =
  { h_summary = summary; h_symtab = Doc.symtab doc; h_skip = Hashtbl.create 8 }

let skip_array h (test : Lp.node_test) =
  let key =
    match test with Lp.Name n -> "n:" ^ n | Lp.Any -> "*" | Lp.Text_node -> "#" | Lp.Node -> "."
  in
  match Hashtbl.find_opt h.h_skip key with
  | Some arr -> arr
  | None ->
    let summary = h.h_summary in
    let ids p =
      List.filter p (List.init (Ps.length summary) (fun i -> i))
    in
    let targets, self =
      match test with
      | Lp.Name n -> (ids (fun i -> String.equal (Ps.label summary i) n), false)
      | Lp.Any -> (ids (fun i -> Ps.is_element_label (Ps.label summary i)), false)
      | Lp.Text_node -> (ids (fun i -> Ps.has_text summary i), true)
      | Lp.Node -> (ids (fun _ -> true), true)
    in
    let skip = Ps.skip_labels summary ~targets ~self in
    let arr =
      Array.init (Xqp_xml.Symtab.cardinal h.h_symtab) (fun s ->
          skip (Xqp_xml.Symtab.name h.h_symtab s))
    in
    Hashtbl.add h.h_skip key arr;
    arr

let axis_nodes_all doc axis id =
  if id = Ops.document_context then
    match (axis : Axis.t) with
    | Axis.Self -> [ id ]
    | Axis.Child -> [ Doc.root doc ]
    | Axis.Descendant | Axis.Descendant_or_self -> List.init (Doc.node_count doc) (fun i -> i)
    | Axis.Parent | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Attribute
    | Axis.Following_sibling | Axis.Preceding_sibling | Axis.Following | Axis.Preceding ->
      []
  else
    match (axis : Axis.t) with
    | Axis.Self -> [ id ]
    | Axis.Child -> Doc.children doc id
    | Axis.Attribute -> Doc.attributes doc id
    | Axis.Descendant ->
      let acc = ref [] in
      Doc.iter_descendants doc id (fun d ->
          if Doc.kind doc d <> Doc.Attribute then acc := d :: !acc);
      List.rev !acc
    | Axis.Descendant_or_self ->
      let acc = ref [] in
      Doc.iter_descendants doc id (fun d ->
          if Doc.kind doc d <> Doc.Attribute then acc := d :: !acc);
      id :: List.rev !acc
    | Axis.Parent -> ( match Doc.parent doc id with Some p -> [ p ] | None -> [])
    | Axis.Ancestor ->
      let rec climb i acc = match Doc.parent doc i with None -> acc | Some p -> climb p (p :: acc) in
      List.rev (climb id [])
    | Axis.Ancestor_or_self ->
      let rec climb i acc = match Doc.parent doc i with None -> acc | Some p -> climb p (p :: acc) in
      id :: List.rev (climb id [])
    | Axis.Following_sibling when Doc.kind doc id = Doc.Attribute -> [] (* attributes have no siblings *)
    | Axis.Following_sibling ->
      let rec chain i acc =
        match Doc.next_sibling doc i with Some s -> chain s (s :: acc) | None -> List.rev acc
      in
      chain id []
    | Axis.Preceding_sibling ->
      let rec chain i acc =
        match Doc.prev_sibling doc i with Some s -> chain s (s :: acc) | None -> acc
      in
      chain id []
    | Axis.Following ->
      let stop = Doc.subtree_end doc id in
      let acc = ref [] in
      for d = Doc.node_count doc - 1 downto stop + 1 do
        if Doc.kind doc d <> Doc.Attribute then acc := d :: !acc
      done;
      !acc
    | Axis.Preceding ->
      let acc = ref [] in
      for d = id - 1 downto 0 do
        if Doc.kind doc d <> Doc.Attribute && not (Doc.is_ancestor doc d id) then acc := d :: !acc
      done;
      !acc (* nearest-first *)

let test_matches doc axis test id =
  if id = Ops.document_context then
    (* the virtual document node passes only a bare wildcard or node()
       self-test *)
    (test = Lp.Any || test = Lp.Node) && axis = Axis.Self
  else
  match (test : Lp.node_test) with
  | Lp.Node -> true
  | Lp.Text_node -> Doc.kind doc id = Doc.Text
  | Lp.Any -> (
    match Doc.kind doc id with
    | Doc.Element -> axis <> Axis.Attribute
    | Doc.Attribute -> axis = Axis.Attribute
    | Doc.Text | Doc.Comment | Doc.Pi -> false)
  | Lp.Name name -> (
    match Doc.kind doc id with
    | Doc.Element -> axis <> Axis.Attribute && String.equal (Doc.name doc id) name
    | Doc.Attribute -> axis = Axis.Attribute && String.equal (Doc.name doc id) name
    | Doc.Text | Doc.Comment | Doc.Pi -> false)

(* A step checks the deadline once per this many context nodes. *)
let deadline_every = 256

(* A step whose first [k] rows from one context node are the first [k]
   candidates it keeps, in the order its axis walks them: a forward axis
   that yields document order, and no positional predicate to re-rank
   them. *)
let limitable (s : Lp.step) =
  (match s.Lp.axis with
  | Axis.Child | Axis.Descendant | Axis.Descendant_or_self | Axis.Attribute -> true
  | _ -> false)
  && List.for_all (function Lp.Position _ -> false | _ -> true) s.Lp.predicates

let eval_plan_with_stats ?hints ?limit ?deadline doc plan ~context =
  let visited = ref 0 in
  let steps = ref 0 in
  let skipped = ref 0 in
  let contexts = ref 0 in
  (* Descendant scan with summary skip-ahead: walk the pre-order id range,
     jumping over the whole subtree of any element whose tag provably has
     no matching node below it, and hand each candidate to [f] until it
     returns false. Candidate semantics match [axis_nodes_all]:
     attributes excluded, text/comment/PI included, the context node
     first under [~or_self]. *)
  let walk_descendants skip id ~or_self f =
    let lo, hi =
      if id = Ops.document_context then (0, Doc.node_count doc - 1)
      else (id + 1, Doc.subtree_end doc id)
    in
    let more = ref ((not or_self) || id = Ops.document_context || f id) in
    let i = ref lo in
    while !more && !i <= hi do
      let d = !i in
      match Doc.kind doc d with
      | Doc.Attribute -> incr i
      | Doc.Element ->
        more := f d;
        let sym = Doc.name_id doc d in
        if sym >= 0 && sym < Array.length skip && skip.(sym) then begin
          incr skipped;
          i := Doc.subtree_end doc d + 1
        end
        else incr i
      | Doc.Text | Doc.Comment | Doc.Pi ->
        more := f d;
        incr i
    done
  in
  let candidates (s : Lp.step) id =
    match (s.Lp.axis, hints) with
    | (Axis.Descendant | Axis.Descendant_or_self), Some h ->
      let acc = ref [] in
      walk_descendants (skip_array h s.Lp.test) id
        ~or_self:(s.Lp.axis = Axis.Descendant_or_self)
        (fun d ->
          acc := d :: !acc;
          true);
      List.rev !acc
    | _ -> axis_nodes_all doc s.Lp.axis id
  in
  (* The virtual document node's string value is the whole document's text
     (XPath: the string-value of the root node), so value predicates on it
     are evaluated against the document element. *)
  let predicate_holds pred id =
    Pg.predicate_holds doc pred (if id = Ops.document_context then Doc.root doc else id)
  in
  let rec go plan ctx =
    match (plan : Lp.t) with
    | Lp.Root -> [ Ops.document_context ]
    | Lp.Context -> List.sort_uniq compare ctx
    | Lp.Union (a, b) -> List.sort_uniq compare (go a ctx @ go b ctx)
    | Lp.Tpm (base, pattern) -> (
      let c = go base ctx in
      match Ops.pattern_match doc pattern ~context:c with
      | [ (_, nodes) ] -> nodes
      | several -> List.sort_uniq compare (List.concat_map snd several))
    | Lp.Step (base, s) ->
      incr steps;
      let c = go base ctx in
      let per_context id =
        if !contexts land (deadline_every - 1) = 0 then Deadline.check deadline;
        incr contexts;
        let selected =
          List.filter
            (fun cand ->
              incr visited;
              test_matches doc s.Lp.axis s.Lp.test cand)
            (candidates s id)
        in
        (* Sequential predicate filtering: each predicate sees the list
           left by the previous one, so positions re-rank. *)
        List.fold_left
          (fun current pred ->
            match (pred : Lp.predicate) with
            | Lp.Position k -> (
              match List.nth_opt current (k - 1) with Some n -> [ n ] | None -> [])
            | Lp.Value_pred p -> List.filter (predicate_holds p) current
            | Lp.Exists sub -> List.filter (fun n -> go sub [ n ] <> []) current)
          selected s.Lp.predicates
      in
      List.sort_uniq compare (List.concat_map per_context c)
  in
  (* The first [limit] rows of a lone step from one context node: the
     same candidates in the same order as the full step, each tested as
     it is reached, and the walk stops at the limit. *)
  let first_rows (s : Lp.step) id limit =
    Deadline.check deadline;
    incr steps;
    let rows = ref [] and found = ref 0 in
    let keep cand =
      incr visited;
      if
        test_matches doc s.Lp.axis s.Lp.test cand
        && List.for_all
             (fun (pred : Lp.predicate) ->
               match pred with
               | Lp.Value_pred p -> predicate_holds p cand
               | Lp.Exists sub -> go sub [ cand ] <> []
               | Lp.Position _ -> assert false)
             s.Lp.predicates
      then begin
        rows := cand :: !rows;
        incr found
      end;
      !found < limit
    in
    (match (s.Lp.axis, hints) with
    | (Axis.Descendant | Axis.Descendant_or_self), Some h ->
      walk_descendants (skip_array h s.Lp.test) id
        ~or_self:(s.Lp.axis = Axis.Descendant_or_self)
        keep
    | _ -> ignore (List.for_all keep (axis_nodes_all doc s.Lp.axis id)));
    List.rev !rows
  in
  let result =
    match (limit, plan, context) with
    | Some k, Lp.Step (Lp.Context, s), [ id ] when limitable s -> first_rows s id k
    | _ -> go plan context
  in
  M.add m_nodes_visited !visited;
  M.add m_steps_evaluated !steps;
  M.add m_skipped_subtrees !skipped;
  (result, { nodes_visited = !visited; steps_evaluated = !steps })

let eval_plan ?hints ?limit ?deadline doc plan ~context =
  fst (eval_plan_with_stats ?hints ?limit ?deadline doc plan ~context)

(* Expand a pattern back into navigational steps (used by the Navigation
   strategy so that it really is the step-at-a-time baseline): the spine is
   the root-to-output path, every off-spine subtree becomes an Exists
   predicate. *)
let axis_of_rel = function
  | Pg.Child -> Axis.Child
  | Pg.Descendant -> Axis.Descendant
  | Pg.Attribute -> Axis.Attribute
  | Pg.Following_sibling -> Axis.Following_sibling

let steps_of_pattern pattern =
  let test_of v =
    match (Pg.vertex pattern v).Pg.label with
    | Pg.Tag name -> Lp.Name name
    | Pg.Wildcard -> Lp.Any
  in
  let value_preds v = List.map (fun p -> Lp.Value_pred p) (Pg.vertex pattern v).Pg.predicates in
  (* Whole subtree at v (reached via rel) as a relative existence plan. *)
  let rec branch_plan v rel =
    let branch_preds =
      List.map (fun (c, rel') -> Lp.Exists (branch_plan c rel')) (Pg.children pattern v)
    in
    Lp.Step
      ( Lp.Context,
        { Lp.axis = axis_of_rel rel; test = test_of v; predicates = value_preds v @ branch_preds }
      )
  in
  let output = match Pg.outputs pattern with v :: _ -> v | [] -> 0 in
  let rec spine_path v =
    match Pg.parent pattern v with None -> [ v ] | Some (p, _) -> v :: spine_path p
  in
  let spine = List.rev (spine_path output) in
  (* Step navigating into spine vertex [v]; its off-spine subtrees (all of
     them when [v] is the output) become existence predicates on the step. *)
  let step_into v ~next_on_spine =
    let rel = match Pg.parent pattern v with Some (_, r) -> r | None -> Pg.Child in
    let branch_preds =
      List.filter_map
        (fun (c, rel') ->
          if Some c = next_on_spine then None else Some (Lp.Exists (branch_plan c rel')))
        (Pg.children pattern v)
    in
    { Lp.axis = axis_of_rel rel; test = test_of v; predicates = value_preds v @ branch_preds }
  in
  let rec build = function
    | v :: (next :: _ as rest) -> step_into v ~next_on_spine:(Some next) :: build rest
    | [ v ] -> [ step_into v ~next_on_spine:None ]
    | [] -> []
  in
  (* Off-spine branches of the context vertex constrain the context itself:
     a leading self::node() step carries them (the pattern binds the
     context vertex without testing its kind). *)
  let context_branches =
    List.filter_map
      (fun (c, rel') ->
        if (match spine with _ :: s1 :: _ -> c = s1 | _ -> false) then None
        else Some (Lp.Exists (branch_plan c rel')))
      (Pg.children pattern 0)
  in
  let leading =
    if context_branches = [] then []
    else [ { Lp.axis = Axis.Self; test = Lp.Node; predicates = context_branches } ]
  in
  leading @ build (List.tl spine)
