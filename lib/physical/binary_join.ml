module Doc = Xqp_xml.Document
module Pg = Xqp_algebra.Pattern_graph

type doc = Doc.t
type node = Doc.node

(* Semijoin reduction and ordered joins both cover every arc relation. *)
let supported (_ : Pg.t) = true

(* Keep the ids [get 0 .. get (n - 1)] that pass [keep], in one pass
   into one array. *)
let filter_ids keep n get =
  let out = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let id = get i in
    if keep id then begin
      out.(!k) <- id;
      incr k
    end
  done;
  if !k = n then out else Array.sub out 0 !k

let stream ?content_index doc pattern ~context v =
  if v = 0 then
    let nodes = Array.of_list (List.sort_uniq compare context) in
    (nodes, Array.length nodes)
  else begin
    let vx = Pg.vertex pattern v in
    let is_attribute =
      match Pg.parent pattern v with Some (_, Pg.Attribute) -> true | _ -> false
    in
    (* A covered value predicate lets the content index supply a (usually
       far smaller) starting set instead of the whole tag stream. *)
    let indexed =
      match content_index with
      | Some idx ->
        List.find_map
          (fun pred -> Content_index.candidates idx ~label:vx.Pg.label ~is_attribute pred)
          vx.Pg.predicates
      | None -> None
    in
    (* Kind filter from the incoming relation, plus value predicates. *)
    let keep id = Pg.vertex_matches doc pattern v id in
    let filter base = (filter_ids keep (Array.length base) (Array.get base), Array.length base) in
    match indexed with
    | Some nodes -> filter (Array.of_list nodes)
    | None -> (
      match vx.Pg.label with
      | Pg.Tag name -> (
        match Xqp_xml.Symtab.find_opt (Doc.symtab doc) name with
        | Some sym -> filter (Doc.nodes_by_name_array doc sym)
        | None -> ([||], 0))
      | Pg.Wildcard ->
        (* every node, kept by kind (element or attribute, from the
           incoming relation) *)
        let n = Doc.node_count doc in
        (filter_ids keep n Fun.id, n))
  end

let candidates ?content_index doc pattern ~context v =
  fst (stream ?content_index doc pattern ~context v)

(* The content index pays off only when some vertex carries an index-
   answerable string predicate; the decision is a pure pattern property,
   so it is baked into the binding at compile time. *)
let index_answerable pattern =
  let answerable v =
    let vx = Pg.vertex pattern v in
    vx.Pg.predicates <> []
    && List.exists
         (fun p ->
           match (p.Pg.comparison, p.Pg.literal) with
           | (Pg.Eq | Pg.Le | Pg.Ge), Pg.Str _ -> true
           | _ -> false)
         vx.Pg.predicates
  in
  List.exists answerable (List.init (Pg.vertex_count pattern) (fun i -> i))

type semijoin_stats = { streamed : int; scanned : int }

module M = Xqp_obs.Metrics

let m_semijoin_scanned = M.counter M.default "engine.binary.semijoin_scanned"
let m_joins = M.counter M.default "engine.binary.joins"
let m_intermediate = M.counter M.default "engine.binary.intermediate_tuples"

let match_pattern_with_stats ?content_index doc pattern ~context =
  let n = Pg.vertex_count pattern in
  let streams = Array.init n (fun v -> stream ?content_index doc pattern ~context v) in
  let cand = Array.map fst streams in
  let streamed = Array.fold_left (fun acc (_, k) -> acc + k) 0 streams in
  let scanned = ref 0 in
  (* Bottom-up: reduce each parent by each child arc (post-order). *)
  let rec reduce_up v =
    List.iter (fun (c, _) -> reduce_up c) (Pg.children pattern v);
    List.iter
      (fun (c, rel) ->
        scanned := !scanned + Array.length cand.(v) + Array.length cand.(c);
        let survivors = Structural_join.semijoin_ancestors doc rel cand.(v) cand.(c) in
        cand.(v) <- Array.of_list survivors)
      (Pg.children pattern v)
  in
  reduce_up 0;
  (* Top-down: reduce each child to nodes below a surviving parent. *)
  let rec reduce_down v =
    List.iter
      (fun (c, rel) ->
        scanned := !scanned + Array.length cand.(v) + Array.length cand.(c);
        let survivors = Structural_join.semijoin_descendants doc rel cand.(v) cand.(c) in
        cand.(c) <- Array.of_list survivors;
        reduce_down c)
      (Pg.children pattern v)
  in
  reduce_down 0;
  M.add m_semijoin_scanned !scanned;
  (List.map (fun v -> (v, Array.to_list cand.(v))) (Pg.outputs pattern), { streamed; scanned = !scanned })

let match_pattern ?content_index doc pattern ~context =
  fst (match_pattern_with_stats ?content_index doc pattern ~context)

(* --- full binary joins in a chosen order ----------------------------- *)

type order_stats = { intermediate_tuples : int; peak_tuples : int; joins : int }

module Int_set = Set.Make (Int)

let evaluate_with_order doc pattern ~context ~order =
  let arcs = Pg.arcs pattern in
  if List.length order <> List.length arcs then
    invalid_arg "Binary_join.evaluate_with_order: order must cover every arc";
  let rel_of (s, t) =
    match List.find_opt (fun (s', t', _) -> s' = s && t' = t) arcs with
    | Some (_, _, rel) -> rel
    | None -> invalid_arg "Binary_join.evaluate_with_order: unknown arc"
  in
  let n = Pg.vertex_count pattern in
  let cand = Array.init n (fun v -> candidates doc pattern ~context v) in
  (* A relation is a list of partial assignments (arrays of length n,
     -1 = unbound). *)
  let bound = ref Int_set.empty in
  let relation = ref [] in
  let intermediate = ref 0 in
  let peak = ref 0 in
  let joins = ref 0 in
  let note_size () =
    let size = List.length !relation in
    intermediate := !intermediate + size;
    if size > !peak then peak := size
  in
  List.iteri
    (fun i (s, t) ->
      let rel = rel_of (s, t) in
      let pairs = Structural_join.join doc rel cand.(s) cand.(t) in
      incr joins;
      if i = 0 then begin
        relation :=
          List.map
            (fun (a, d) ->
              let tuple = Array.make n (-1) in
              tuple.(s) <- a;
              tuple.(t) <- d;
              tuple)
            pairs;
        bound := Int_set.add s (Int_set.add t Int_set.empty)
      end
      else begin
        let s_bound = Int_set.mem s !bound and t_bound = Int_set.mem t !bound in
        if not (s_bound || t_bound) then
          invalid_arg "Binary_join.evaluate_with_order: disconnected join order";
        (* Hash the new pairs on the already-bound side, probe the relation. *)
        let table = Hashtbl.create (List.length pairs) in
        List.iter
          (fun (a, d) ->
            let key = if s_bound then a else d in
            Hashtbl.add table key (a, d))
          pairs;
        relation :=
          List.concat_map
            (fun tuple ->
              let key = if s_bound then tuple.(s) else tuple.(t) in
              List.filter_map
                (fun (a, d) ->
                  (* When both sides are bound this is a selection. *)
                  if s_bound && t_bound then
                    if tuple.(s) = a && tuple.(t) = d then Some tuple else None
                  else begin
                    let fresh = Array.copy tuple in
                    fresh.(s) <- a;
                    fresh.(t) <- d;
                    (* consistency when one side was already bound *)
                    if (s_bound && tuple.(s) <> a) || (t_bound && tuple.(t) <> d) then None
                    else Some fresh
                  end)
                (Hashtbl.find_all table key))
            !relation;
        bound := Int_set.add s (Int_set.add t !bound)
      end;
      note_size ())
    order;
  let outputs =
    List.map
      (fun v ->
        let nodes = List.map (fun tuple -> tuple.(v)) !relation in
        (v, List.sort_uniq compare nodes))
      (Pg.outputs pattern)
  in
  M.add m_joins !joins;
  M.add m_intermediate !intermediate;
  (outputs, { intermediate_tuples = !intermediate; peak_tuples = !peak; joins = !joins })

let default_order pattern =
  let rec walk v acc =
    List.fold_left (fun acc (c, _) -> walk c ((v, c) :: acc)) acc (Pg.children pattern v)
  in
  List.rev (walk 0 [])

let all_orders pattern =
  let arcs = List.map (fun (s, t, _) -> (s, t)) (Pg.arcs pattern) in
  let rec permutations chosen bound remaining acc =
    if remaining = [] then List.rev chosen :: acc
    else
      List.fold_left
        (fun acc arc ->
          let s, t = arc in
          let connected = chosen = [] || Int_set.mem s bound || Int_set.mem t bound in
          if connected then
            permutations (arc :: chosen)
              (Int_set.add s (Int_set.add t bound))
              (List.filter (fun a -> a <> arc) remaining)
              acc
          else acc)
        acc remaining
  in
  permutations [] Int_set.empty arcs []
