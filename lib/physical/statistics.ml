module Doc = Xqp_xml.Document
module Pg = Xqp_algebra.Pattern_graph
module Ps = Xqp_storage.Path_summary

type t = {
  doc_nodes : int;
  elements : int;
  tag_counts : (string, int) Hashtbl.t;
  pc : (string * string, int) Hashtbl.t;
  ad : (string * string, int) Hashtbl.t;
  max_depth : int;
  fanout_sum : int;
  fanout_nodes : int;
  summary : Ps.t;
  pids : int array; (* node id -> summary node (path partition), -1 for text/comment/PI *)
  leaves : int array; (* summary node -> text/comment/PI children over its instances *)
}

(* One constructor for every source (what is exact in each mode: see the
   .mli). With [doc], the summary feeds planning only after
   [Path_summary.annotate] has recounted it against the document. *)
let of_summary ?doc summary =
  let n = Ps.length summary in
  let tag_counts = Hashtbl.create 64 in
  let pc = Hashtbl.create 256 in
  let ad = Hashtbl.create 256 in
  let bump_by table key k =
    Hashtbl.replace table key (k + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  let path_nodes = ref 0 in
  let elements = ref 0 in
  let child_rows = ref 0 in
  let summary_depth = ref 0 in
  let depth = Array.make (max 1 n) 0 in
  for i = 0 to n - 1 do
    let lab = Ps.label summary i in
    let cnt = Ps.count summary i in
    let name =
      if String.length lab > 0 && lab.[0] = '@' then String.sub lab 1 (String.length lab - 1)
      else lab
    in
    path_nodes := !path_nodes + cnt;
    bump_by tag_counts name cnt;
    if Ps.is_element_label lab then elements := !elements + cnt;
    let p = Ps.parent summary i in
    depth.(i) <- (if p < 0 then 0 else depth.(p) + 1);
    let d = if Ps.has_text summary i then depth.(i) + 1 else depth.(i) in
    if d > !summary_depth then summary_depth := d;
    if p >= 0 then begin
      bump_by pc (Ps.label summary p, name) cnt;
      child_rows := !child_rows + cnt
    end;
    let rec up a =
      if a >= 0 then begin
        bump_by ad (Ps.label summary a, name) cnt;
        up (Ps.parent summary a)
      end
    in
    up p
  done;
  let doc_nodes, fanout_sum, max_depth, pids, leaves =
    match doc with
    | None -> (!path_nodes, !child_rows, !summary_depth, [||], [||])
    | Some doc ->
      let leaves = Array.make n 0 in
      let pids = Ps.annotate ~leaves summary doc in
      let nodes = Doc.node_count doc in
      let max_depth = ref 0 in
      for id = 0 to nodes - 1 do
        max_depth := max !max_depth (Doc.level doc id)
      done;
      (* every non-root node is one content child of its element parent,
         except attributes *)
      let attributes = !path_nodes - !elements in
      (nodes, max 0 (nodes - 1 - attributes), !max_depth, pids, leaves)
  in
  {
    doc_nodes;
    elements = !elements;
    tag_counts;
    pc;
    ad;
    max_depth;
    fanout_sum;
    fanout_nodes = !elements;
    summary;
    pids;
    leaves;
  }

let build doc = of_summary ~doc (Ps.of_document doc)

(* Without the document a summary only knows whether a path has text:
   one text child per instance is the guess. *)
let leaf_children t i =
  if Array.length t.leaves > 0 then float_of_int t.leaves.(i)
  else if Ps.has_text t.summary i then float_of_int (Ps.count t.summary i)
  else 0.0

let tag_count t name = Option.value ~default:0 (Hashtbl.find_opt t.tag_counts name)
let element_count t = t.elements
let node_count t = t.doc_nodes
let max_depth t = t.max_depth

let avg_fanout t =
  if t.fanout_nodes = 0 then 0.0 else float_of_int t.fanout_sum /. float_of_int t.fanout_nodes

let parent_child_count t ~parent ~child =
  Option.value ~default:0 (Hashtbl.find_opt t.pc (parent, child))

let ancestor_descendant_count t ~ancestor ~descendant =
  Option.value ~default:0 (Hashtbl.find_opt t.ad (ancestor, descendant))

let label_count t = function
  | Pg.Tag name -> float_of_int (tag_count t name)
  | Pg.Wildcard -> float_of_int t.elements

let estimate_rel t rel ~parent ~child =
  let sum_over table filter =
    Hashtbl.fold (fun key count acc -> if filter key then acc +. float_of_int count else acc) table 0.0
  in
  let table = match (rel : Pg.rel) with
    | Pg.Child | Pg.Attribute | Pg.Following_sibling -> t.pc
    | Pg.Descendant -> t.ad
  in
  let matches_label label name =
    match (label : Pg.label) with Pg.Wildcard -> true | Pg.Tag tag -> String.equal tag name
  in
  sum_over table (fun (p, c) -> matches_label parent p && matches_label child c)

let predicate_selectivity pred =
  match pred.Pg.comparison with
  | Pg.Eq -> 0.1
  | Pg.Ne -> 0.9
  | Pg.Lt | Pg.Le | Pg.Gt | Pg.Ge -> 0.33
  | Pg.Contains -> 0.5

let estimate_vertex_cardinality t pattern v =
  (* Per-arc expected fan-out from one parent node to matching children,
     including the child's own predicates. *)
  let arc_fanout p rel (child_vertex : int) =
    let vx = Pg.vertex pattern child_vertex in
    let pairs =
      if p = 0 then
        (* context = document: every node with the child label qualifies
           for descendant arcs; child arcs reach only the root. *)
        match (rel : Pg.rel) with
        | Pg.Descendant -> label_count t vx.Pg.label
        | Pg.Child | Pg.Attribute -> 1.0
        | Pg.Following_sibling -> 0.0
      else
        let parent_label = (Pg.vertex pattern p).Pg.label in
        estimate_rel t rel ~parent:parent_label ~child:vx.Pg.label
    in
    let parent_count =
      if p = 0 then 1.0 else Float.max 1.0 (label_count t (Pg.vertex pattern p).Pg.label)
    in
    let selectivity =
      List.fold_left (fun acc pred -> acc *. predicate_selectivity pred) 1.0 vx.Pg.predicates
    in
    pairs /. parent_count *. selectivity
  in
  (* Existence probability of the whole subtree below [v] for one match of
     [v]: each branch must be non-empty; P ≈ min(1, expected count). *)
  let rec branch_factor v =
    List.fold_left
      (fun acc (c, rel) -> acc *. Float.min 1.0 (arc_fanout v rel c *. branch_factor c))
      1.0 (Pg.children pattern v)
  in
  (* Top-down spine: card(context) = 1; card(c) = card(p) × fanout(p→c). *)
  let rec card v =
    if v = 0 then 1.0
    else
      match Pg.parent pattern v with
      | None -> 1.0
      | Some (p, rel) ->
        Float.min
          (label_count t (Pg.vertex pattern v).Pg.label)
          (card p *. arc_fanout p rel v)
  in
  card v *. branch_factor v

let estimate_result_stats t pattern =
  match Pg.outputs pattern with
  | v :: _ -> estimate_vertex_cardinality t pattern v
  | [] -> 0.0

(* --- path-summary synopsis ---------------------------------------------- *)

type source = Exact | Bound | Stats

let source_label = function Exact -> "exact" | Bound -> "bound" | Stats -> "stats"
let summary t = t.summary
let path_id t node = if node < 0 || node >= Array.length t.pids then -1 else t.pids.(node)

(* Project a pattern arc onto a summary step. [None] when the relation is
   not a downward one the summary can answer (following-sibling). *)
let step_of_arc (rel : Pg.rel) (label : Pg.label) =
  match (rel, label) with
  | Pg.Child, Pg.Tag n -> Some { Ps.descendant = false; selector = Ps.Label n }
  | Pg.Child, Pg.Wildcard -> Some { Ps.descendant = false; selector = Ps.Any_element }
  | Pg.Descendant, Pg.Tag n -> Some { Ps.descendant = true; selector = Ps.Label n }
  | Pg.Descendant, Pg.Wildcard -> Some { Ps.descendant = true; selector = Ps.Any_element }
  | Pg.Attribute, Pg.Tag n -> Some { Ps.descendant = false; selector = Ps.Label ("@" ^ n) }
  | Pg.Attribute, Pg.Wildcard -> Some { Ps.descendant = false; selector = Ps.Any_attribute }
  | Pg.Following_sibling, _ -> None

let steps_of_path arcs =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (rel, label) :: rest -> (
      match step_of_arc rel label with None -> None | Some s -> go (s :: acc) rest)
  in
  go [] arcs

let vertex_steps pattern v = steps_of_path (Pg.vertex_path pattern v)

let vertex_summary_nodes ?(from = [ Ps.super_root ]) t pattern v =
  Option.map (Ps.matching_from t.summary from) (vertex_steps pattern v)

let anywhere_context t =
  Ps.super_root :: List.init (Ps.length t.summary) (fun i -> i)

let pattern_certainly_empty ?(anywhere = false) t pattern =
  let from = if anywhere then anywhere_context t else [ Ps.super_root ] in
  (* Empty path set for any projectable vertex means no embedding exists,
     predicates and the rest of the twig notwithstanding. *)
  let rec any_vertex v =
    (match vertex_summary_nodes ~from t pattern v with Some [] -> true | _ -> false)
    || List.exists (fun (c, _) -> any_vertex c) (Pg.children pattern v)
  in
  any_vertex 0

let pattern_upper_bound t pattern =
  (* Every match of the output vertex lies on a root path matching its
     projection, so the summed path count is a sound upper bound —
     regardless of predicates or sibling branches. *)
  match Pg.outputs pattern with
  | [] -> Some 0.0
  | v :: _ ->
    Option.map
      (fun ids -> float_of_int (Ps.total_count t.summary ids))
      (vertex_summary_nodes t pattern v)

let estimate_result_detail t pattern =
  let fallback () = (estimate_result_stats t pattern, Stats) in
  match Pg.outputs pattern with
  | [] -> (0.0, Exact)
  | v :: _ -> (
    match vertex_summary_nodes t pattern v with
    | None -> fallback ()
    | Some [] -> (0.0, Exact)
    | Some out_ids ->
      (* Spine = context-to-output chain; everything else is an existence
         branch scaling the exact spine count down. *)
      let spine = Array.make (Pg.vertex_count pattern) false in
      let rec mark v =
        spine.(v) <- true;
        match Pg.parent pattern v with None -> () | Some (p, _) -> mark p
      in
      mark v;
      let exception Fallback in
      let exception Empty in
      let card w =
        match vertex_summary_nodes t pattern w with
        | None -> raise Fallback
        | Some [] -> raise Empty
        | Some ids -> float_of_int (Ps.total_count t.summary ids)
      in
      (* P(one node of [w] has a matching branch below [c]) ≈
         min(1, card c / card w), recursively down the branch. *)
      let rec branch_factor w =
        List.fold_left
          (fun acc (c, _) ->
            if spine.(c) then acc
            else acc *. Float.min 1.0 (card c /. Float.max 1.0 (card w) *. branch_factor c))
          1.0 (Pg.children pattern w)
      in
      let selectivity = ref 1.0 in
      let branched = ref false in
      Array.iteri
        (fun w on_spine ->
          if not on_spine then branched := true;
          List.iter
            (fun pred -> selectivity := !selectivity *. predicate_selectivity pred)
            (Pg.vertex pattern w).Pg.predicates)
        spine;
      match
        let base = float_of_int (Ps.total_count t.summary out_ids) in
        let factor =
          Array.to_list spine
          |> List.mapi (fun w on_spine -> if on_spine then branch_factor w else 1.0)
          |> List.fold_left ( *. ) 1.0
        in
        base *. factor *. !selectivity
      with
      | est -> (est, (if !branched || !selectivity < 1.0 then Bound else Exact))
      | exception Empty -> (0.0, Exact)
      | exception Fallback -> fallback ())

let estimate_result t pattern = fst (estimate_result_detail t pattern)

let pp ppf t =
  Format.fprintf ppf "nodes=%d elements=%d tags=%d max_depth=%d avg_fanout=%.2f" t.doc_nodes
    t.elements (Hashtbl.length t.tag_counts) t.max_depth (avg_fanout t)
