module Pg = Xqp_algebra.Pattern_graph

type fragment = { root : int; members : int list; interesting : int list }
type t = { fragments : fragment list; links : (int * int) list }

let is_local (rel : Pg.rel) =
  match rel with
  | Pg.Child | Pg.Attribute | Pg.Following_sibling -> true
  | Pg.Descendant -> false

let partition pattern =
  let n = Pg.vertex_count pattern in
  (* Fragment root of a vertex: climb local arcs. *)
  let frag_root = Array.make n 0 in
  let rec root_of v =
    match Pg.parent pattern v with
    | Some (p, rel) when is_local rel -> root_of p
    | Some (_, Pg.Descendant) | None -> v
    | Some _ -> v
  in
  for v = 0 to n - 1 do
    frag_root.(v) <- root_of v
  done;
  (* Group members per root, in pattern pre-order. *)
  let order = Pg.vertices_in_document_order pattern in
  let roots = List.sort_uniq compare (Array.to_list frag_root) in
  let links = ref [] in
  List.iter
    (fun v ->
      match Pg.parent pattern v with
      | Some (p, Pg.Descendant) -> links := (p, v) :: !links
      | Some _ | None -> ())
    order;
  let links = List.rev !links in
  let outputs = Pg.outputs pattern in
  let fragments =
    List.map
      (fun r ->
        let members = List.filter (fun v -> frag_root.(v) = r) order in
        let interesting =
          List.filter
            (fun v ->
              v = r
              || List.mem v outputs
              || List.exists (fun (src, _) -> src = v) links)
            members
        in
        { root = r; members; interesting })
      (List.sort compare roots)
  in
  { fragments; links }

let pp ppf t =
  Format.fprintf ppf "fragments:";
  List.iter
    (fun f ->
      Format.fprintf ppf " {root=%d members=[%a]}" f.root
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Format.pp_print_int)
        f.members)
    t.fragments;
  Format.fprintf ppf " links:";
  List.iter (fun (s, t') -> Format.fprintf ppf " %d=>%d" s t') t.links
