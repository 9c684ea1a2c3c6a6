module Doc = Xqp_xml.Document
module Pg = Xqp_algebra.Pattern_graph

type stats = { ancestors_scanned : int; descendants_scanned : int; pairs_emitted : int }

module M = Xqp_obs.Metrics

let m_ancestors = M.counter M.default "engine.structural.ancestors_scanned"
let m_descendants = M.counter M.default "engine.structural.descendants_scanned"
let m_pairs = M.counter M.default "engine.structural.pairs_emitted"

let emit_stats (s : stats) =
  M.add m_ancestors s.ancestors_scanned;
  M.add m_descendants s.descendants_scanned;
  M.add m_pairs s.pairs_emitted;
  s

(* The virtual document node (Operators.document_context = -1) may appear on
   the ancestor side: it spans the whole document one level above the root. *)
let node_end doc a =
  if a = Xqp_algebra.Operators.document_context then max_int else Doc.subtree_end doc a

let node_level doc a =
  if a = Xqp_algebra.Operators.document_context then -1 else Doc.level doc a

(* Does an (ancestor-side, descendant-side) pair satisfy the relation,
   assuming containment already holds? *)
let refine doc (rel : Pg.rel) a d =
  match rel with
  | Pg.Descendant -> Doc.kind doc d <> Doc.Attribute
  | Pg.Child -> Doc.level doc d = node_level doc a + 1 && Doc.kind doc d <> Doc.Attribute
  | Pg.Attribute -> Doc.level doc d = node_level doc a + 1 && Doc.kind doc d = Doc.Attribute
  | Pg.Following_sibling -> false (* not a containment relation *)

let sibling_join doc ancestors descendants =
  (* (a, d) with same parent and a before d; the virtual document node and
     attributes have no siblings. *)
  let pairs = ref [] in
  Array.iter
    (fun a ->
      if a <> Xqp_algebra.Operators.document_context && Doc.kind doc a <> Doc.Attribute then
      Array.iter
        (fun d ->
          if
            d > a
            && Doc.parent doc a = Doc.parent doc d
            && Doc.kind doc d <> Doc.Attribute
          then pairs := (a, d) :: !pairs)
        descendants)
    ancestors;
  List.sort compare !pairs

let join_with_stats doc rel ancestors descendants =
  if rel = Pg.Following_sibling then
    let pairs = sibling_join doc ancestors descendants in
    ( pairs,
      emit_stats
        {
          ancestors_scanned = Array.length ancestors;
          descendants_scanned = Array.length descendants;
          pairs_emitted = List.length pairs;
        } )
  else begin
    let na = Array.length ancestors and nd = Array.length descendants in
    let stack = ref [] in
    (* innermost (most recent) first *)
    let pairs = ref [] in
    let emitted = ref 0 in
    let ai = ref 0 and di = ref 0 in
    let pop_finished before =
      let rec pop () =
        match !stack with
        | top :: rest when node_end doc top < before ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ()
    in
    while !di < nd do
      let d = descendants.(!di) in
      if !ai < na && ancestors.(!ai) < d then begin
        (* next event is an ancestor-side node *)
        let a = ancestors.(!ai) in
        pop_finished a;
        stack := a :: !stack;
        incr ai
      end
      else begin
        pop_finished d;
        (* every stack entry contains d *)
        List.iter
          (fun a ->
            if a < d && refine doc rel a d then begin
              pairs := (a, d) :: !pairs;
              incr emitted
            end)
          !stack;
        incr di
      end
    done;
    ( List.sort compare !pairs,
      emit_stats { ancestors_scanned = !ai; descendants_scanned = !di; pairs_emitted = !emitted } )
  end

let join doc rel ancestors descendants = fst (join_with_stats doc rel ancestors descendants)

(* Single-pass semijoins: same merge, but each qualifying node is emitted
   once and the scan of the stack stops at the first witness. *)
let semijoin_descendants doc rel ancestors descendants =
  if rel = Pg.Following_sibling then
    List.sort_uniq compare (List.map snd (sibling_join doc ancestors descendants))
  else begin
    let na = Array.length ancestors and nd = Array.length descendants in
    let stack = ref [] in
    let out = ref [] in
    let ai = ref 0 and di = ref 0 in
    let pop_finished before =
      let rec pop () =
        match !stack with
        | top :: rest when node_end doc top < before ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ()
    in
    while !di < nd do
      let d = descendants.(!di) in
      if !ai < na && ancestors.(!ai) < d then begin
        let a = ancestors.(!ai) in
        pop_finished a;
        stack := a :: !stack;
        incr ai
      end
      else begin
        pop_finished d;
        if List.exists (fun a -> a < d && refine doc rel a d) !stack then out := d :: !out;
        incr di
      end
    done;
    List.rev !out (* already distinct and in document order *)
  end

let semijoin_ancestors doc rel ancestors descendants =
  let pairs = join doc rel ancestors descendants in
  List.sort_uniq compare (List.map fst pairs)
