module Doc = Xqp_xml.Document
module Pg = Xqp_algebra.Pattern_graph
module Ops = Xqp_algebra.Operators

type stats = { streamed : int; pushes : int; path_solutions : int; merged_solutions : int }

module M = Xqp_obs.Metrics

let m_streamed = M.counter M.default "engine.twigstack.streamed"
let m_pushes = M.counter M.default "engine.twigstack.pushes"
let m_path_solutions = M.counter M.default "engine.twigstack.path_solutions"
let m_merged_solutions = M.counter M.default "engine.twigstack.merged_solutions"

(* Growable stack of entries (node, pointer into parent's stack). *)
type stack = {
  mutable nodes : int array;
  mutable ptrs : int array;
  mutable len : int;
}

let new_stack () = { nodes = Array.make 8 0; ptrs = Array.make 8 0; len = 0 }

let push_entry st node ptr =
  if st.len = Array.length st.nodes then begin
    let cap = 2 * st.len in
    let nodes = Array.make cap 0 and ptrs = Array.make cap 0 in
    Array.blit st.nodes 0 nodes 0 st.len;
    Array.blit st.ptrs 0 ptrs 0 st.len;
    st.nodes <- nodes;
    st.ptrs <- ptrs
  end;
  st.nodes.(st.len) <- node;
  st.ptrs.(st.len) <- ptr;
  st.len <- st.len + 1

let node_end doc x = if x = Ops.document_context then max_int else Doc.subtree_end doc x
let node_level doc x = if x = Ops.document_context then -1 else Doc.level doc x

let supported pattern =
  not (List.exists (fun (_, _, rel) -> rel = Pg.Following_sibling) (Pg.arcs pattern))

let match_pattern_with_stats doc pattern ~context =
  let n = Pg.vertex_count pattern in
  if not (supported pattern) then
    invalid_arg "Twig_stack: following-sibling arcs are not supported";
  let built = Array.init n (fun v -> Binary_join.stream doc pattern ~context v) in
  let streams = Array.map fst built in
  let streamed = Array.fold_left (fun acc (_, k) -> acc + k) 0 built in
  let cursors = Array.make n 0 in
  let stacks = Array.init n (fun _ -> new_stack ()) in
  let head v = if cursors.(v) < Array.length streams.(v) then Some streams.(v).(cursors.(v)) else None in
  let children = Array.init n (fun v -> Pg.children pattern v) in
  let parent = Array.init n (fun v -> Pg.parent pattern v) in
  let is_leaf v = children.(v) = [] in
  let leaves = List.filter is_leaf (Pg.vertices_in_document_order pattern) in
  (* Root-to-vertex pattern paths, used for solutions and the merge. *)
  let vertex_path = Array.make n [] in
  let rec fill_paths v path =
    let path = path @ [ v ] in
    vertex_path.(v) <- path;
    List.iter (fun (c, _) -> fill_paths c path) children.(v)
  in
  fill_paths 0 [];
  let solutions = Array.make n [] in
  (* per leaf: list of assignments (arrays, -1 unbound) *)
  let pushes = ref 0 in
  let path_count = ref 0 in
  (* Enumerate the root chains of stack entry [i] of vertex [v], extending
     partial assignment [partial]. *)
  let rec chains v i partial acc =
    let partial = Array.copy partial in
    partial.(v) <- stacks.(v).nodes.(i);
    match parent.(v) with
    | None -> partial :: acc
    | Some (p, rel) ->
      let ptr = stacks.(v).ptrs.(i) in
      if ptr < 0 then acc
      else begin
        match rel with
        | Pg.Child | Pg.Attribute -> chains p ptr partial acc
        | Pg.Descendant ->
          let rec each j acc = if j > ptr then acc else each (j + 1) (chains p j partial acc) in
          each 0 acc
        | Pg.Following_sibling -> acc
      end
  in
  let clean_stacks before =
    Array.iter
      (fun st ->
        while st.len > 0 && node_end doc st.nodes.(st.len - 1) < before do
          st.len <- st.len - 1
        done)
      stacks
  in
  (* Parent-stack entry index compatible with pushing x at vertex v. *)
  let parent_slot v x =
    match parent.(v) with
    | None -> Some (-1)
    | Some (p, rel) ->
      let st = stacks.(p) in
      if st.len = 0 then None
      else begin
        match rel with
        | Pg.Descendant ->
          (* all entries with node < x contain x after cleaning; the top
             entry can be x itself when two vertices share a stream node *)
          let rec find i = if i < 0 then None else if st.nodes.(i) < x then Some i else find (i - 1) in
          find (st.len - 1)
        | Pg.Child | Pg.Attribute ->
          (* the unique nested entry at level(x) - 1, if present *)
          let want = node_level doc x - 1 in
          let rec find i =
            if i < 0 then None
            else if node_level doc st.nodes.(i) = want then Some i
            else if node_level doc st.nodes.(i) < want then None
            else find (i - 1)
          in
          find (st.len - 1)
        | Pg.Following_sibling -> None
      end
  in
  (* TwigStack skip test (one-level extension check, sound for both edge
     kinds): x is useless if some child's earliest remaining candidate
     starts after x's subtree ends. *)
  let has_extension v x =
    let x_end = node_end doc x in
    List.for_all
      (fun (c, _) -> match head c with Some y -> y <= x_end | None -> false)
      children.(v)
  in
  let exhausted () =
    let all = ref true in
    for v = 0 to n - 1 do
      if cursors.(v) < Array.length streams.(v) then all := false
    done;
    !all
  in
  let min_head () =
    let best = ref (-1) in
    let best_start = ref max_int in
    for v = 0 to n - 1 do
      match head v with
      | Some x when x < !best_start -> (
        best := v;
        best_start := x)
      | Some _ | None -> ()
    done;
    !best
  in
  while not (exhausted ()) do
    let q = min_head () in
    let x = match head q with Some x -> x | None -> assert false in
    clean_stacks x;
    if has_extension q x then begin
      match parent_slot q x with
      | Some ptr ->
        if is_leaf q then begin
          (* virtual push: emit path solutions immediately *)
          push_entry stacks.(q) x ptr;
          incr pushes;
          (* min_int marks unbound (the virtual document node is -1) *)
          let partial = Array.make n min_int in
          let sols = chains q (stacks.(q).len - 1) partial [] in
          path_count := !path_count + List.length sols;
          solutions.(q) <- List.rev_append sols solutions.(q);
          stacks.(q).len <- stacks.(q).len - 1
        end
        else begin
          push_entry stacks.(q) x ptr;
          incr pushes
        end
      | None -> ()
    end;
    cursors.(q) <- cursors.(q) + 1
  done;
  (* Phase 2: merge per-leaf path solutions on shared prefix vertices. All
     solutions accumulated for a leaf bind exactly the vertices on its
     root-to-leaf path, so the shared vertices of consecutive merges are
     path intersections. *)
  let merged =
    match leaves with
    | [] -> []
    | first :: rest ->
      let bound = ref vertex_path.(first) in
      List.fold_left
        (fun combined leaf ->
          let shared = List.filter (fun v -> List.mem v !bound) vertex_path.(leaf) in
          let key sol = List.map (fun v -> sol.(v)) shared in
          let table = Hashtbl.create 64 in
          List.iter (fun sol -> Hashtbl.add table (key sol) sol) solutions.(leaf);
          bound := !bound @ List.filter (fun v -> not (List.mem v !bound)) vertex_path.(leaf);
          List.concat_map
            (fun tuple ->
              List.map
                (fun sol ->
                  let fresh = Array.copy tuple in
                  List.iter (fun v -> fresh.(v) <- sol.(v)) vertex_path.(leaf);
                  fresh)
                (Hashtbl.find_all table (key tuple)))
            combined)
        solutions.(first) rest
  in
  let outputs =
    List.map
      (fun v ->
        let nodes = List.map (fun a -> a.(v)) merged in
        (v, List.sort_uniq compare nodes))
      (Pg.outputs pattern)
  in
  M.add m_streamed streamed;
  M.add m_pushes !pushes;
  M.add m_path_solutions !path_count;
  M.add m_merged_solutions (List.length merged);
  ( outputs,
    { streamed; pushes = !pushes; path_solutions = !path_count; merged_solutions = List.length merged } )

let match_pattern doc pattern ~context = fst (match_pattern_with_stats doc pattern ~context)
