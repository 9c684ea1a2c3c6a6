(* The cursor-based NoK matcher, functorized over a store's navigation
   primitives. Only the disk-resident paged store ({!Nok_paged}) still
   runs it; in memory, {!Nok} is a kernel over the document arrays. *)

module Doc = Xqp_xml.Document
module Pg = Xqp_algebra.Pattern_graph
module Ops = Xqp_algebra.Operators

type stats = { nodes_visited : int; fragment_matches : int; join_pairs : int }

(* Navigation primitives a store must provide. Cursors pair a physical
   position with the pre-order rank (= Document node id). *)
module type STORE = sig
  type t
  type cursor

  val label : string
  (** Metric namespace for this store kind: counters are registered as
      [engine.<label>.*] (e.g. ["nok"], ["nok-paged"]). *)

  val rank : cursor -> int
  val root_cursor : t -> cursor
  val cursor_of_rank : t -> int -> cursor
  val first_child_cursor : t -> cursor -> cursor option
  val next_sibling_cursor : t -> cursor -> cursor option
  val tag_at : t -> cursor -> int
  val text_content_at : t -> cursor -> string
  val find_symbol : t -> string -> int option
  val symbol_name : t -> int -> string
  val symbol_count : t -> int
end

(* An assignment binds interesting vertices to pre-order ranks. *)
type assignment = (int * int) list

let is_local (rel : Pg.rel) =
  match rel with
  | Pg.Child | Pg.Attribute | Pg.Following_sibling -> true
  | Pg.Descendant -> false

(* Per-vertex matching data, precomputed so the inner loop is an integer
   comparison: what the vertex's tag must be in the store symbol table. *)
type vertex_test =
  | Tag_sym of int           (* exact store symbol *)
  | Never                    (* tag absent from this store *)
  | Any_element
  | Any_attribute

module Make (S : STORE) = struct
  module M = Xqp_obs.Metrics

  let m_nodes_visited = M.counter M.default ("engine." ^ S.label ^ ".nodes_visited")
  let m_fragment_matches = M.counter M.default ("engine." ^ S.label ^ ".fragment_matches")
  let m_join_pairs = M.counter M.default ("engine." ^ S.label ^ ".join_pairs")
  let m_pruned = M.counter M.default ("engine." ^ S.label ^ ".pruned")

  let match_pattern_with_stats ?prune doc store pattern ~context =
  let parts = Nok_partition.partition pattern in
  let n = Pg.vertex_count pattern in
  let visited = ref 0 in
  let fragment_matches = ref 0 in
  let join_pairs = ref 0 in
  (* --- precomputation -------------------------------------------- *)
  let is_attr_vertex v =
    match Pg.parent pattern v with Some (_, Pg.Attribute) -> true | _ -> false
  in
  (* Summary-derived path-partition filter on a fragment root's candidate
     stream: drop ranks whose root-to-node path cannot embed the vertex.
     Sound, so applied before any navigation is paid for the candidate. *)
  let prune_ranks v ranks =
    match prune with
    | None -> ranks
    | Some f -> (
      match f v with
      | None -> ranks
      | Some keep ->
        let kept = List.filter keep ranks in
        M.add m_pruned (List.length ranks - List.length kept);
        kept)
  in
  let tests =
    Array.init n (fun v ->
        let vx = Pg.vertex pattern v in
        match vx.Pg.label with
        | Pg.Wildcard -> if is_attr_vertex v then Any_attribute else Any_element
        | Pg.Tag name -> (
          let key = if is_attr_vertex v then "@" ^ name else name in
          match S.find_symbol store key with
          | Some sym -> Tag_sym sym
          | None -> Never))
  in
  let predicates = Array.init n (fun v -> (Pg.vertex pattern v).Pg.predicates) in
  (* symbol kind classification for wildcards: cache per symbol *)
  let nsym = S.symbol_count store in
  let sym_is_element = Array.make nsym false in
  let sym_is_attribute = Array.make nsym false in
  for sym = 0 to nsym - 1 do
    let name = S.symbol_name store sym in
    sym_is_element.(sym) <-
      (String.length name > 0
      && match name.[0] with '@' | '#' | '?' -> false | _ -> true);
    sym_is_attribute.(sym) <- String.length name > 0 && name.[0] = '@'
  done;
  let matches_vertex v cursor =
    incr visited;
    let tag = S.tag_at store cursor in
    let tag_ok =
      match tests.(v) with
      | Tag_sym sym -> tag = sym
      | Never -> false
      | Any_element -> sym_is_element.(tag)
      | Any_attribute -> sym_is_attribute.(tag)
    in
    tag_ok
    &&
    match predicates.(v) with
    | [] -> true
    | preds ->
      let value = S.text_content_at store cursor in
      List.for_all (fun pred -> Pg.predicate_holds_on pred value) preds
  in
  (* fragment membership / interesting flags *)
  let interesting_flag = Array.make n false in
  let in_fragment = Array.make n (-1) in
  List.iteri
    (fun fi f ->
      List.iter (fun v -> in_fragment.(v) <- fi) f.Nok_partition.members;
      List.iter (fun v -> interesting_flag.(v) <- true) f.Nok_partition.interesting)
    parts.Nok_partition.fragments;
  let local_children =
    Array.init n (fun v ->
        List.filter
          (fun (c, rel) -> is_local rel && in_fragment.(c) = in_fragment.(v))
          (Pg.children pattern v))
  in
  let subtree_interesting = Array.make n false in
  let rec fill_interesting v =
    let below =
      List.fold_left
        (fun acc (c, _) ->
          fill_interesting c;
          acc || subtree_interesting.(c))
        false local_children.(v)
    in
    subtree_interesting.(v) <- interesting_flag.(v) || below
  in
  Array.iteri (fun v frag -> if frag >= 0 && (match Pg.parent pattern v with
    | None -> true
    | Some (p, rel) -> not (is_local rel) || in_fragment.(p) <> in_fragment.(v))
    then fill_interesting v) in_fragment;
  (* --- fragment embedding ----------------------------------------- *)
  (* All embeddings of the fragment subtree rooted at vertex [v] matched at
     [cursor]; assignments cover the interesting vertices at or below v. *)
  let rec embed v cursor : assignment list =
    let self_binding = if interesting_flag.(v) then [ (v, S.rank cursor) ] else [] in
    let rec per_child acc = function
      | [] -> Some (List.rev acc)
      | (cv, rel) :: rest ->
        let start =
          match (rel : Pg.rel) with
          | Pg.Child | Pg.Attribute -> S.first_child_cursor store cursor
          | Pg.Following_sibling ->
            (* attributes have no siblings *)
            if sym_is_attribute.(S.tag_at store cursor) then None
            else S.next_sibling_cursor store cursor
          | Pg.Descendant -> None
        in
        let rec collect c acc =
          match c with
          | None -> acc
          | Some cur ->
            let acc = if matches_vertex cv cur then List.rev_append (embed cv cur) acc else acc in
            collect (S.next_sibling_cursor store cur) acc
        in
        let options = collect start [] in
        if options = [] then None
        else begin
          (* existential collapse: one witness suffices below boring
             subtrees *)
          let options = if subtree_interesting.(cv) then options else [ [] ] in
          per_child (options :: acc) rest
        end
    in
    match per_child [] local_children.(v) with
    | None -> []
    | Some options_per_child ->
      List.fold_left
        (fun acc options ->
          List.concat_map (fun partial -> List.map (fun opt -> partial @ opt) options) acc)
        [ self_binding ] options_per_child
  in
  (* --- fragment roots ----------------------------------------------

     Fragments whose only interesting vertex is their root are represented
     as plain node lists (the common case for // chains); general
     fragments carry assignment tuples. *)
  let fragment_embeddings fragment =
    let r = fragment.Nok_partition.root in
    let embeddings =
      if r = 0 then
        List.concat_map
          (fun ctx ->
            if ctx = Ops.document_context then begin
              (* virtual document: children = [root]; match vertex 0's local
                 children against the single root element *)
              let self_binding = if interesting_flag.(0) then [ (0, ctx) ] else [] in
              let rec per_child acc = function
                | [] -> Some (List.rev acc)
                | (cv, rel) :: rest ->
                  let candidates =
                    match (rel : Pg.rel) with
                    | Pg.Child -> [ S.root_cursor store ]
                    | Pg.Attribute | Pg.Following_sibling | Pg.Descendant -> []
                  in
                  let options =
                    List.concat_map
                      (fun cur -> if matches_vertex cv cur then embed cv cur else [])
                      candidates
                  in
                  if options = [] then None
                  else
                    per_child ((if subtree_interesting.(cv) then options else [ [] ]) :: acc) rest
              in
              match per_child [] local_children.(0) with
              | None -> []
              | Some options_per_child ->
                List.fold_left
                  (fun acc options ->
                    List.concat_map
                      (fun partial -> List.map (fun opt -> partial @ opt) options)
                      acc)
                  [ self_binding ] options_per_child
            end
            else embed 0 (S.cursor_of_rank store ctx))
          (List.sort_uniq compare context)
      else begin
        let ranks =
          match (Pg.vertex pattern r).Pg.label with
          | Pg.Tag name -> (
            match Xqp_xml.Symtab.find_opt (Doc.symtab doc) name with
            | Some sym -> Doc.nodes_by_name doc sym
            | None -> [])
          | Pg.Wildcard -> List.init (Doc.node_count doc) (fun i -> i)
        in
        let ranks = prune_ranks r ranks in
        let want_attr = is_attr_vertex r in
        let kind_ok rank =
          match Doc.kind doc rank with
          | Doc.Attribute -> want_attr
          | Doc.Element -> not want_attr
          | Doc.Text | Doc.Comment | Doc.Pi -> false
        in
        let root_matches rank =
          (* the tag index already guarantees the label for Tag vertices *)
          incr visited;
          kind_ok rank
          && (match (Pg.vertex pattern r).Pg.label with
             | Pg.Tag _ -> true
             | Pg.Wildcard -> true)
          && List.for_all
               (fun pred -> Pg.predicate_holds doc pred rank)
               predicates.(r)
        in
        if local_children.(r) = [] then
          (* single-vertex fragment: no navigation needed at all *)
          List.filter_map
            (fun rank -> if root_matches rank then Some [ (r, rank) ] else None)
            ranks
        else
          List.concat_map
            (fun rank ->
              if root_matches rank then embed r (S.cursor_of_rank store rank) else [])
            ranks
      end
    in
    fragment_matches := !fragment_matches + List.length embeddings;
    embeddings
  in
  let root_only fragment = fragment.Nok_partition.interesting = [ fragment.Nok_partition.root ] in
  (* Specialized evaluation when only the root binding matters. *)
  let fragment_roots fragment =
    let r = fragment.Nok_partition.root in
    if r = 0 || local_children.(r) <> [] then
      (* fall back to the tuple path, projecting the root; embed already
         collapses boring subtrees so duplicates cannot arise *)
      List.map (fun a -> List.assoc r a) (fragment_embeddings fragment)
    else begin
      let ranks =
        match (Pg.vertex pattern r).Pg.label with
        | Pg.Tag name -> (
          match Xqp_xml.Symtab.find_opt (Doc.symtab doc) name with
          | Some sym -> Doc.nodes_by_name doc sym
          | None -> [])
        | Pg.Wildcard -> List.init (Doc.node_count doc) (fun i -> i)
      in
      let ranks = prune_ranks r ranks in
      let want_attr = is_attr_vertex r in
      let keep rank =
        incr visited;
        (match Doc.kind doc rank with
        | Doc.Attribute -> want_attr
        | Doc.Element -> not want_attr
        | Doc.Text | Doc.Comment | Doc.Pi -> false)
        && List.for_all (fun pred -> Pg.predicate_holds doc pred rank) predicates.(r)
      in
      let roots = List.filter keep ranks in
      fragment_matches := !fragment_matches + List.length roots;
      roots
    end
  in
  (* --- combine fragments along descendant links --------------------

     Yannakakis-style semijoin reduction at fragment granularity: a
     bottom-up pass keeps a fragment embedding only if every outgoing
     link's source node has a matching child-fragment root below it; a
     top-down pass keeps a child embedding only if its root sits below a
     surviving parent source. For tree patterns the surviving embeddings
     are exactly those participating in a full match, so outputs project
     directly and no joined tuples are ever materialized. *)
  let fragments = Array.of_list parts.Nok_partition.fragments in
  let nfrag = Array.length fragments in
  let frag_index_of_root =
    let table = Hashtbl.create 8 in
    Array.iteri (fun i f -> Hashtbl.add table f.Nok_partition.root i) fragments;
    fun root -> Hashtbl.find table root
  in
  let child_links =
    Array.init nfrag (fun i ->
        List.filter_map
          (fun (src, dst_root) ->
            if in_fragment.(src) = i then Some (src, frag_index_of_root dst_root) else None)
          parts.Nok_partition.links)
  in
  let embeds =
    Array.map
      (fun f ->
        if root_only f then `Roots (fragment_roots f) else `Tuples (fragment_embeddings f))
      fragments
  in
  let distinct_values fi v =
    match embeds.(fi) with
    | `Roots nodes -> nodes (* already distinct and in document order *)
    | `Tuples tuples -> List.sort_uniq compare (List.map (fun a -> List.assoc v a) tuples)
  in
  let member_set nodes =
    let set = Hashtbl.create (List.length nodes) in
    List.iter (fun x -> Hashtbl.replace set x ()) nodes;
    set
  in
  let restrict fi v keep =
    match embeds.(fi) with
    | `Roots nodes -> embeds.(fi) <- `Roots (List.filter (Hashtbl.mem keep) nodes)
    | `Tuples tuples ->
      embeds.(fi) <- `Tuples (List.filter (fun a -> Hashtbl.mem keep (List.assoc v a)) tuples)
  in
  (* Fragments are listed in pattern pre-order, so children follow their
     parents: reverse order is a valid bottom-up schedule. *)
  for fi = nfrag - 1 downto 0 do
    List.iter
      (fun (src, child_fi) ->
        let src_vals = distinct_values fi src in
        let child_roots = distinct_values child_fi fragments.(child_fi).Nok_partition.root in
        let survivors =
          Structural_join.semijoin_ancestors doc Pg.Descendant (Array.of_list src_vals)
            (Array.of_list child_roots)
        in
        join_pairs := !join_pairs + List.length survivors;
        restrict fi src (member_set survivors))
      child_links.(fi)
  done;
  for fi = 0 to nfrag - 1 do
    List.iter
      (fun (src, child_fi) ->
        let src_vals = distinct_values fi src in
        let root_v = fragments.(child_fi).Nok_partition.root in
        let child_roots = distinct_values child_fi root_v in
        let survivors =
          Structural_join.semijoin_descendants doc Pg.Descendant (Array.of_list src_vals)
            (Array.of_list child_roots)
        in
        join_pairs := !join_pairs + List.length survivors;
        restrict child_fi root_v (member_set survivors))
      child_links.(fi)
  done;
  let outputs =
    List.map
      (fun v ->
        let fi = in_fragment.(v) in
        let nodes =
          match embeds.(fi) with
          | `Roots nodes -> if v = fragments.(fi).Nok_partition.root then nodes else []
          | `Tuples tuples -> List.filter_map (fun a -> List.assoc_opt v a) tuples
        in
        (v, List.sort_uniq compare nodes))
      (Pg.outputs pattern)
  in
  M.add m_nodes_visited !visited;
  M.add m_fragment_matches !fragment_matches;
  M.add m_join_pairs !join_pairs;
  ( outputs,
    { nodes_visited = !visited; fragment_matches = !fragment_matches; join_pairs = !join_pairs } )

  let match_pattern ?prune doc store pattern ~context =
    fst (match_pattern_with_stats ?prune doc store pattern ~context)
end
