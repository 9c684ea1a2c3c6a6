module Pg = Pattern_graph

type t = {
  pg : Pg.t;
  spine : int list; (* vertex ids along the for-path, context excluded *)
  component_leaves : int list; (* leaf vertex of each component, in order *)
  component_roots : int list; (* first vertex of each component chain *)
}

let make ~spine ~components =
  if spine = [] then invalid_arg "Gtp.make: empty spine";
  if List.exists (fun c -> c = []) components then invalid_arg "Gtp.make: empty component";
  let vertices = ref [ { Pg.label = Pg.Wildcard; predicates = []; output = false } ] in
  let arcs = ref [] in
  let n = ref 1 in
  let add parent (rel, label, predicates) ~output =
    let v = !n in
    vertices := { Pg.label; predicates; output } :: !vertices;
    arcs := (parent, v, rel) :: !arcs;
    incr n;
    v
  in
  let spine_ids =
    List.fold_left
      (fun acc step ->
        let parent = match acc with [] -> 0 | last :: _ -> last in
        add parent step ~output:false :: acc)
      [] spine
  in
  let anchor = List.hd spine_ids in
  let spine_ids = List.rev spine_ids in
  let component_info =
    List.map
      (fun chain ->
        let ids =
          List.fold_left
            (fun acc step ->
              let parent = match acc with [] -> anchor | last :: _ -> last in
              add parent step ~output:false :: acc)
            [] chain
        in
        (List.hd ids (* leaf *), List.nth ids (List.length ids - 1) (* root = first added *)))
      components
  in
  (* mark the anchor as output so Pattern_graph.make validates; outputs are
     not otherwise used by GTP evaluation *)
  let vertex_array = Array.of_list (List.rev !vertices) in
  vertex_array.(anchor) <- { (vertex_array.(anchor)) with Pg.output = true };
  let pg = Pg.make ~vertices:vertex_array ~arcs:(List.rev !arcs) in
  {
    pg;
    spine = spine_ids;
    component_leaves = List.map fst component_info;
    component_roots = List.map snd component_info;
  }

let pattern t = t.pg
let spine_length t = List.length t.spine
let component_count t = List.length t.component_leaves

let arc_candidates = Operators.arc_candidates

let match_groups doc t ~context =
  (* All embeddings of the spine: assignments of spine vertices, enumerated
     in document order of the anchor (the innermost spine vertex). Only
     spine arcs are followed here; component subtrees do not constrain the
     skeleton (outer semantics). *)
  let rec spine_embeddings sofar source = function
    | [] -> [ List.rev sofar ]
    | v :: rest ->
      let rel = match Pg.parent t.pg v with Some (_, rel) -> rel | None -> Pg.Child in
      List.concat_map
        (fun cand ->
          if Pg.vertex_matches doc t.pg v cand then spine_embeddings (cand :: sofar) cand rest
          else [])
        (arc_candidates doc rel source)
  in
  (* matches of one component chain, anchored at [anchor_node] *)
  let component_matches root leaf anchor_node =
    let rec walk v node acc =
      if v = leaf then node :: acc
      else
        match Pg.children t.pg v with
        | [ (c, rel) ] ->
          List.fold_left
            (fun acc cand -> if Pg.vertex_matches doc t.pg c cand then walk c cand acc else acc)
            acc (arc_candidates doc rel node)
        | _ -> acc
    in
    let rel = match Pg.parent t.pg root with Some (_, rel) -> rel | None -> Pg.Child in
    let starts =
      List.filter (Pg.vertex_matches doc t.pg root) (arc_candidates doc rel anchor_node)
    in
    let nodes =
      if root = leaf then starts
      else List.concat_map (fun s -> List.rev (walk root s [])) starts
    in
    List.sort_uniq compare nodes
  in
  let groups =
    List.concat_map
      (fun ctx -> spine_embeddings [] ctx t.spine)
      (List.sort_uniq compare context)
  in
  (* document order of the anchor node *)
  let groups =
    List.sort (fun a b -> compare (List.nth a (List.length a - 1)) (List.nth b (List.length b - 1))) groups
  in
  Nested_list.group
    (List.map
       (fun assignment ->
         let anchor_node = List.nth assignment (List.length assignment - 1) in
         Nested_list.group
           (List.map2
              (fun root leaf ->
                Nested_list.group
                  (List.map (fun id -> Nested_list.atom (Value.Node id))
                     (component_matches root leaf anchor_node)))
              t.component_roots t.component_leaves))
       groups)

let pp ppf t =
  Format.fprintf ppf "gtp(spine=%d components=%d): %a" (spine_length t) (component_count t)
    Pg.pp t.pg
