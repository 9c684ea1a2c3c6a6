module Xml = Xqp_xml

type node = int
type kind = Element | Attribute | Text | Comment | Pi

type footprint = {
  structure_bytes : int;
  tag_bytes : int;
  content_bytes : int;
  index_bytes : int;
}

type t = {
  bp : Balanced_parens.t;
  symtab : Xml.Symtab.t;
  tags : Bytes.t; (* tag_width bytes per pre-order rank *)
  tag_width : int;
  has_content : Bitvector.t; (* over pre-order ranks *)
  contents : Content_store.t;
  pager : Pager.t option;
}

let tag_width_for symbols = if symbols <= 256 then 1 else 2

let read_tag t rank =
  let off = rank * t.tag_width in
  (match t.pager with
  | Some pager -> Pager.read pager ~region:Pager.region_tags ~off ~len:t.tag_width
  | None -> ());
  if t.tag_width = 1 then Char.code (Bytes.unsafe_get t.tags off)
  else Char.code (Bytes.unsafe_get t.tags off) lor (Char.code (Bytes.unsafe_get t.tags (off + 1)) lsl 8)

let write_tag tags width rank tag =
  let off = rank * width in
  Bytes.unsafe_set tags off (Char.unsafe_chr (tag land 0xFF));
  if width = 2 then Bytes.unsafe_set tags (off + 1) (Char.unsafe_chr ((tag lsr 8) land 0xFF))

(* Label strings for the store symbol table. *)
let label_of_tree = function
  | Xml.Tree.Element e -> e.name
  | Xml.Tree.Text _ -> "#text"
  | Xml.Tree.Comment _ -> "#comment"
  | Xml.Tree.Pi (target, _) -> "?" ^ target

let own_content_of_tree = function
  | Xml.Tree.Element _ -> None
  | Xml.Tree.Text s | Xml.Tree.Comment s -> Some s
  | Xml.Tree.Pi (_, body) -> Some body

let kind_of_label label =
  if String.length label = 0 then Element
  else
    match label.[0] with
    | '@' -> Attribute
    | '?' -> Pi
    | '#' -> if String.equal label "#text" then Text else Comment
    | _ -> Element

(* Flat pre-order emission shared by the two constructors: the caller
   supplies an [emit] iterator producing (label, content option, children
   thunk) in pre-order; we avoid recursion depth issues with an explicit
   stack over Tree values. *)
let build_from_tree ?pager tree =
  let symtab = Xml.Symtab.create () in
  let bits = Bitvector.builder () in
  let content_builder = Content_store.builder () in
  let has_content = Bitvector.builder () in
  let rev_tags = ref [] in
  let n = ref 0 in
  let emit_node label content =
    Bitvector.push bits true;
    rev_tags := Xml.Symtab.intern symtab label :: !rev_tags;
    (match content with
    | Some s ->
      Bitvector.push has_content true;
      ignore (Content_store.add content_builder s)
    | None -> Bitvector.push has_content false);
    incr n
  in
  (* Work items: either visit a subtree or emit a close paren. *)
  let rec walk item stack =
    match item with
    | `Close ->
      Bitvector.push bits false;
      continue stack
    | `Attr (name, value) ->
      emit_node ("@" ^ name) (Some value);
      Bitvector.push bits false;
      continue stack
    | `Tree node ->
      emit_node (label_of_tree node) (own_content_of_tree node);
      let children =
        match node with
        | Xml.Tree.Element e ->
          List.map (fun (k, v) -> `Attr (k, v)) e.attrs
          @ List.map (fun c -> `Tree c) e.children
        | Xml.Tree.Text _ | Xml.Tree.Comment _ | Xml.Tree.Pi _ -> []
      in
      continue (children @ (`Close :: stack))
  and continue = function
    | [] -> ()
    | item :: rest -> walk item rest
  in
  walk (`Tree tree) [];
  let symbols = Xml.Symtab.cardinal symtab in
  let width = tag_width_for symbols in
  let tags = Bytes.make (!n * width) '\000' in
  List.iteri
    (fun i tag -> write_tag tags width (!n - 1 - i) tag)
    !rev_tags;
  {
    bp = Balanced_parens.of_bitvector (Bitvector.build bits);
    symtab;
    tags;
    tag_width = width;
    has_content = Bitvector.build has_content;
    contents = Content_store.build content_builder;
    pager;
  }

let of_tree ?pager tree = build_from_tree ?pager tree
let of_document ?pager doc = build_from_tree ?pager (Xml.Document.to_tree doc (Xml.Document.root doc))

let node_count t = Balanced_parens.node_count t.bp
let symtab t = t.symtab
let root t = Balanced_parens.root t.bp
let pager t = t.pager

let touch_structure t pos len_bits =
  match t.pager with
  | Some pager ->
    Pager.read pager ~region:Pager.region_structure ~off:(pos / 8) ~len:(max 1 (len_bits / 8))
  | None -> ()

let first_child t pos =
  touch_structure t pos 2;
  Balanced_parens.first_child t.bp pos

let next_sibling t pos =
  let close = Balanced_parens.find_close t.bp pos in
  touch_structure t pos (close - pos + 2);
  Balanced_parens.next_sibling t.bp pos

let parent t pos =
  touch_structure t pos 2;
  Balanced_parens.enclose t.bp pos

let preorder_rank t pos = Balanced_parens.preorder_rank t.bp pos
let node_of_rank t rank = Balanced_parens.node_of_rank t.bp rank
let tag_id t pos = read_tag t (preorder_rank t pos)
let tag_name t pos = Xml.Symtab.name t.symtab (tag_id t pos)
let kind_of t pos = kind_of_label (tag_name t pos)
let subtree_size t pos = Balanced_parens.subtree_size t.bp pos
let depth t pos = Balanced_parens.depth t.bp pos

let content t pos =
  let rank = preorder_rank t pos in
  if Bitvector.get t.has_content rank then begin
    let id = Bitvector.rank1 t.has_content rank in
    let s = Content_store.get t.contents id in
    (match t.pager with
    | Some pager -> Pager.read pager ~region:Pager.region_content ~off:id ~len:(String.length s)
    | None -> ());
    s
  end
  else ""

let iter_nodes t f =
  let len = Balanced_parens.length t.bp in
  touch_structure t 0 len;
  for pos = 0 to len - 1 do
    if Balanced_parens.is_open t.bp pos then f pos
  done

type cursor = { pos : node; rank : int }

let cursor_of_rank t rank = { pos = node_of_rank t rank; rank }

let first_child_cursor t cursor =
  match first_child t cursor.pos with
  | Some pos -> Some { pos; rank = cursor.rank + 1 }
  | None -> None

let next_sibling_cursor t cursor =
  let close = Balanced_parens.find_close t.bp cursor.pos in
  touch_structure t cursor.pos (close - cursor.pos + 2);
  let after = close + 1 in
  if after < Balanced_parens.length t.bp && Balanced_parens.is_open t.bp after then
    Some { pos = after; rank = cursor.rank + ((close - cursor.pos + 1) / 2) }
  else None

let tag_at t cursor = read_tag t cursor.rank

let content_at t cursor =
  if Bitvector.get t.has_content cursor.rank then begin
    let id = Bitvector.rank1 t.has_content cursor.rank in
    Content_store.get t.contents id
  end
  else ""

let text_content t pos =
  match kind_of t pos with
  | Text | Attribute -> content t pos
  | Comment | Pi -> ""
  | Element ->
    let buffer = Buffer.create 32 in
    let stop = Balanced_parens.find_close t.bp pos in
    for p = pos + 1 to stop - 1 do
      if Balanced_parens.is_open t.bp p && kind_of t p = Text then
        Buffer.add_string buffer (content t p)
    done;
    Buffer.contents buffer

let to_tree t =
  let rec build pos =
    let label = tag_name t pos in
    match kind_of_label label with
    | Text -> Xml.Tree.Text (content t pos)
    | Comment -> Xml.Tree.Comment (content t pos)
    | Pi -> Xml.Tree.Pi (String.sub label 1 (String.length label - 1), content t pos)
    | Attribute -> invalid_arg "Succinct_store.to_tree: attribute outside element"
    | Element ->
      let rec collect child attrs kids =
        match child with
        | None -> (List.rev attrs, List.rev kids)
        | Some c -> (
          match kind_of t c with
          | Attribute ->
            let name = String.sub (tag_name t c) 1 (String.length (tag_name t c) - 1) in
            collect (Balanced_parens.next_sibling t.bp c) ((name, content t c) :: attrs) kids
          | Element | Text | Comment | Pi ->
            collect (Balanced_parens.next_sibling t.bp c) attrs (build c :: kids))
      in
      let attrs, kids = collect (Balanced_parens.first_child t.bp pos) [] [] in
      Xml.Tree.Element { name = label; attrs; children = kids }
  in
  build (root t)

(* The DOM straight from one left-to-right scan of the structure bits:
   open parens enter the next pre-order rank, close parens leave it. Tags
   and contents are read sequentially (no rank1 per node) and without
   pager accounting — materialization is not query I/O. Store symbols
   map to document symbols on first occurrence, in pre-order, so the
   document's symbol table matches {!Document.of_tree}'s. *)
let to_document t =
  let module B = Xml.Document.Builder in
  let n = node_count t in
  let b = B.create n in
  let nsym = Xml.Symtab.cardinal t.symtab in
  let labels = Array.init nsym (Xml.Symtab.name t.symtab) in
  let kinds =
    Array.map
      (fun label ->
        match kind_of_label label with
        | Element -> Xml.Document.Element
        | Attribute -> Xml.Document.Attribute
        | Text -> Xml.Document.Text
        | Comment -> Xml.Document.Comment
        | Pi -> Xml.Document.Pi)
      labels
  in
  let names = Array.make nsym (-2) in
  let name_of sym =
    let id = names.(sym) in
    if id <> -2 then id
    else begin
      let label = labels.(sym) in
      let id =
        match kinds.(sym) with
        | Xml.Document.Element -> B.intern b label
        | Xml.Document.Attribute | Xml.Document.Pi ->
          B.intern b (String.sub label 1 (String.length label - 1))
        | Xml.Document.Text | Xml.Document.Comment -> -1
      in
      names.(sym) <- id;
      id
    end
  in
  let rank = ref 0 and content_id = ref 0 in
  for pos = 0 to Balanced_parens.length t.bp - 1 do
    if Balanced_parens.is_open t.bp pos then begin
      let r = !rank in
      let off = r * t.tag_width in
      let sym =
        if t.tag_width = 1 then Char.code (Bytes.get t.tags off)
        else Char.code (Bytes.get t.tags off) lor (Char.code (Bytes.get t.tags (off + 1)) lsl 8)
      in
      let content =
        if Bitvector.get t.has_content r then begin
          let s = Content_store.get t.contents !content_id in
          incr content_id;
          s
        end
        else ""
      in
      B.open_node b kinds.(sym) ~name:(name_of sym) content;
      rank := r + 1
    end
    else B.close_node b
  done;
  B.finish b

let footprint t =
  {
    structure_bytes = Balanced_parens.size_in_bytes t.bp;
    tag_bytes = Bytes.length t.tags;
    content_bytes = Content_store.size_in_bytes t.contents;
    index_bytes = Bitvector.size_in_bytes t.has_content;
  }

let total_bytes f = f.structure_bytes + f.tag_bytes + f.content_bytes + f.index_bytes

let pp_footprint ppf f =
  Format.fprintf ppf "structure=%dB tags=%dB content=%dB index=%dB total=%dB" f.structure_bytes
    f.tag_bytes f.content_bytes f.index_bytes (total_bytes f)

(* --- Updates ------------------------------------------------------- *)

(* Rebuild helper: produce the (bits, labels, contents) triple of a fragment
   without constructing a store. *)
let linearize_fragment fragment =
  let sub = build_from_tree fragment in
  sub

let splice_range t ~first_rank ~node_count_removed ~bit_off ~bit_len fragment =
  (* fragment = None means pure deletion. *)
  let frag = Option.map linearize_fragment fragment in
  let frag_bits = match frag with Some f -> Balanced_parens.bits f.bp | None -> Bitvector.of_bools [] in
  let frag_nodes = match frag with Some f -> node_count f | None -> 0 in
  (* Structure bits: one splice, reusing directory blocks before the edit. *)
  let new_bp = Balanced_parens.splice t.bp ~off:bit_off ~removed:bit_len ~insert:frag_bits in
  (match t.pager with
  | Some pager ->
    (* The rewrite touches the spliced byte range and everything after it
       (shifted), which is the honest cost of an in-place file splice when
       lengths differ; when lengths match only the fragment range moves. *)
    let moved =
      if Bitvector.length frag_bits = bit_len then bit_len / 8
      else (Balanced_parens.length new_bp - bit_off) / 8
    in
    Pager.write pager ~region:Pager.region_structure ~off:(bit_off / 8) ~len:(max 1 moved)
  | None -> ());
  (* Tags: merge symbol tables (fragment symbols interned into ours). *)
  let n_old = node_count t in
  let n_new = n_old - node_count_removed + frag_nodes in
  let mapped_frag_tag rank =
    match frag with
    | None -> assert false
    | Some f -> Xml.Symtab.intern t.symtab (Xml.Symtab.name f.symtab (read_tag f rank))
  in
  (* Interning may overflow a 1-byte width: recompute. *)
  let frag_tags = Array.init frag_nodes (fun r -> mapped_frag_tag r) in
  let width = tag_width_for (Xml.Symtab.cardinal t.symtab) in
  let tags = Bytes.make (n_new * width) '\000' in
  let copy_tag ~src_rank ~dst_rank =
    let tag =
      let off = src_rank * t.tag_width in
      if t.tag_width = 1 then Char.code (Bytes.get t.tags off)
      else Char.code (Bytes.get t.tags off) lor (Char.code (Bytes.get t.tags (off + 1)) lsl 8)
    in
    write_tag tags width dst_rank tag
  in
  for r = 0 to first_rank - 1 do
    copy_tag ~src_rank:r ~dst_rank:r
  done;
  Array.iteri (fun i tag -> write_tag tags width (first_rank + i) tag) frag_tags;
  for r = first_rank + node_count_removed to n_old - 1 do
    copy_tag ~src_rank:r ~dst_rank:(r - node_count_removed + frag_nodes)
  done;
  (match t.pager with
  | Some pager ->
    Pager.write pager ~region:Pager.region_tags ~off:(first_rank * width)
      ~len:(max 1 ((n_new - first_rank) * width))
  | None -> ());
  (* Contents. *)
  let first_content = Bitvector.rank1 t.has_content first_rank in
  let removed_content =
    Bitvector.rank1 t.has_content (first_rank + node_count_removed) - first_content
  in
  let frag_content_list =
    match frag with
    | None -> []
    | Some f ->
      let acc = ref [] in
      Content_store.iter f.contents (fun _ s -> acc := s :: !acc);
      List.rev !acc
  in
  let contents = Content_store.splice t.contents first_content removed_content frag_content_list in
  (* has_content bitvector: three byte-blitted slices. *)
  let hc = Bitvector.builder () in
  Bitvector.append_slice hc t.has_content 0 first_rank;
  (match frag with
  | Some f -> Bitvector.append_slice hc f.has_content 0 frag_nodes
  | None -> ());
  Bitvector.append_slice hc t.has_content (first_rank + node_count_removed)
    (n_old - first_rank - node_count_removed);
  {
    bp = new_bp;
    symtab = t.symtab;
    tags;
    tag_width = width;
    has_content = Bitvector.build hc;
    contents;
    pager = t.pager;
  }

let replace_subtree t pos fragment =
  let close = Balanced_parens.find_close t.bp pos in
  splice_range t ~first_rank:(preorder_rank t pos)
    ~node_count_removed:(subtree_size t pos) ~bit_off:pos ~bit_len:(close - pos + 1)
    (Some fragment)

let delete_subtree t pos =
  if pos = root t then invalid_arg "Succinct_store.delete_subtree: root";
  let close = Balanced_parens.find_close t.bp pos in
  splice_range t ~first_rank:(preorder_rank t pos)
    ~node_count_removed:(subtree_size t pos) ~bit_off:pos ~bit_len:(close - pos + 1) None

type raw = {
  structure : Bitvector.t;
  tag_ids : int array;
  symbols : string array;
  content_flags : Bitvector.t;
  contents : string array;
}

let to_raw t =
  let n = node_count t in
  let tag_ids = Array.init n (fun rank -> read_tag t rank) in
  let symbols = Array.init (Xml.Symtab.cardinal t.symtab) (Xml.Symtab.name t.symtab) in
  let contents = Array.init (Content_store.count t.contents) (Content_store.get t.contents) in
  {
    structure = Balanced_parens.bits t.bp;
    tag_ids;
    symbols;
    content_flags = t.has_content;
    contents;
  }

let of_raw ?pager raw =
  let n = Array.length raw.tag_ids in
  if Bitvector.length raw.structure <> 2 * n then
    invalid_arg "Succinct_store.of_raw: structure/tag length mismatch";
  if Bitvector.length raw.content_flags <> n then
    invalid_arg "Succinct_store.of_raw: content-flag length mismatch";
  if Bitvector.pop_count raw.content_flags <> Array.length raw.contents then
    invalid_arg "Succinct_store.of_raw: content count mismatch";
  let symtab = Xml.Symtab.create () in
  Array.iter (fun name -> ignore (Xml.Symtab.intern symtab name)) raw.symbols;
  let nsym = Xml.Symtab.cardinal symtab in
  Array.iter
    (fun tag -> if tag < 0 || tag >= nsym then invalid_arg "Succinct_store.of_raw: bad tag id")
    raw.tag_ids;
  let width = tag_width_for nsym in
  let tags = Bytes.make (n * width) '\000' in
  Array.iteri (fun rank tag -> write_tag tags width rank tag) raw.tag_ids;
  let content_builder = Content_store.builder () in
  Array.iter (fun s -> ignore (Content_store.add content_builder s)) raw.contents;
  {
    bp = Balanced_parens.of_bitvector raw.structure;
    symtab;
    tags;
    tag_width = width;
    has_content = raw.content_flags;
    contents = Content_store.build content_builder;
    pager;
  }

let insert_before t pos fragment =
  splice_range t ~first_rank:(preorder_rank t pos) ~node_count_removed:0 ~bit_off:pos ~bit_len:0
    (Some fragment)
