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

(* Tags are 1 or 2 bytes wide, so a store holds at most 65,536 labels. *)
let max_symbols = 0x10000

let too_many_labels symbols =
  failwith
    (Printf.sprintf "Succinct_store: %d distinct labels exceed the %d-label limit" symbols
       max_symbols)

let tag_width_for symbols =
  if symbols > max_symbols then too_many_labels symbols;
  if symbols <= 256 then 1 else 2

let get_tag tags width rank =
  let off = rank * width in
  if width = 1 then Char.code (Bytes.unsafe_get tags off)
  else Char.code (Bytes.unsafe_get tags off) lor (Char.code (Bytes.unsafe_get tags (off + 1)) lsl 8)

let read_tag t rank =
  (match t.pager with
  | Some pager ->
    Pager.read pager ~region:Pager.region_tags ~off:(rank * t.tag_width) ~len:t.tag_width
  | None -> ());
  get_tag t.tags t.tag_width rank

let write_tag tags width rank tag =
  let off = rank * width in
  Bytes.unsafe_set tags off (Char.unsafe_chr (tag land 0xFF));
  if width = 2 then Bytes.unsafe_set tags (off + 1) (Char.unsafe_chr ((tag lsr 8) land 0xFF))

let kind_of_label label =
  if String.length label = 0 then Element
  else
    match label.[0] with
    | '@' -> Attribute
    | '?' -> Pi
    | '#' -> if String.equal label "#text" then Text else Comment
    | _ -> Element

(* One pre-order loop over the document arrays. Each node emits its open
   bit, tag, content flag and own content; after it, one close bit per
   subtree ending there — the node's level + 1 minus the next node's level.
   Store labels are interned on first occurrence (memoized per kind and
   document name), and the tag bytes widen to 2 once the 257th label
   appears. *)
let of_document ?pager doc =
  let module D = Xml.Document in
  let n = D.node_count doc in
  let symtab = Xml.Symtab.create () in
  let bits = Bitvector.builder () in
  let has_content = Bitvector.builder () in
  let content_builder = Content_store.builder () in
  let tags = ref (Bytes.make n '\000') and width = ref 1 in
  let memo = Array.make ((3 * Xml.Symtab.cardinal (D.symtab doc)) + 2) (-1) in
  let slot id =
    match D.kind doc id with
    | D.Text -> 0
    | D.Comment -> 1
    | D.Element -> 2 + (3 * D.name_id doc id)
    | D.Attribute -> 3 + (3 * D.name_id doc id)
    | D.Pi -> 4 + (3 * D.name_id doc id)
  in
  let label id =
    match D.kind doc id with
    | D.Element -> D.name doc id
    | D.Attribute -> "@" ^ D.name doc id
    | D.Pi -> "?" ^ D.name doc id
    | D.Text -> "#text"
    | D.Comment -> "#comment"
  in
  let symbol id =
    let s = slot id in
    if memo.(s) >= 0 then memo.(s)
    else begin
      let sym = Xml.Symtab.intern symtab (label id) in
      if sym = 256 then begin
        let wide = Bytes.make (2 * n) '\000' in
        for r = 0 to n - 1 do
          Bytes.set_uint16_le wide (2 * r) (Bytes.get_uint8 !tags r)
        done;
        tags := wide;
        width := 2
      end;
      if sym >= max_symbols then too_many_labels (sym + 1);
      memo.(s) <- sym;
      sym
    end
  in
  for id = 0 to n - 1 do
    Bitvector.push bits true;
    write_tag !tags !width id (symbol id);
    (match D.kind doc id with
    | D.Element -> Bitvector.push has_content false
    | D.Attribute | D.Text | D.Comment | D.Pi ->
      Bitvector.push has_content true;
      ignore (Content_store.add content_builder (D.content doc id)));
    let next_level = if id + 1 < n then D.level doc (id + 1) else 0 in
    Bitvector.push_many bits false (D.level doc id + 1 - next_level)
  done;
  {
    bp = Balanced_parens.of_bitvector (Bitvector.build bits);
    symtab;
    tags = !tags;
    tag_width = !width;
    has_content = Bitvector.build has_content;
    contents = Content_store.build content_builder;
    pager;
  }

let of_tree ?pager tree = of_document ?pager (Xml.Document.of_tree tree)

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

(* One left-to-right pass over the structure bits: open parens enter the
   next pre-order rank, close parens leave it. Tags are read sequentially
   and without pager accounting — materialization and serialization are
   not query I/O. *)
let scan t ~open_node ~close_node =
  let rank = ref 0 in
  for pos = 0 to Balanced_parens.length t.bp - 1 do
    if Balanced_parens.is_open t.bp pos then begin
      open_node !rank (get_tag t.tags t.tag_width !rank);
      incr rank
    end
    else close_node ()
  done

(* The DOM straight from {!scan}, contents read sequentially (no rank1 per
   node). Store symbols map to document symbols on first occurrence, in
   pre-order, so the document's symbol table matches
   {!Document.of_tree}'s. *)
let to_document t =
  let module B = Xml.Document.Builder in
  let b = B.create (node_count t) in
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
  let content_id = ref 0 in
  scan t
    ~open_node:(fun rank sym ->
      let content =
        if Bitvector.get t.has_content rank then begin
          let s = Content_store.get t.contents !content_id in
          incr content_id;
          s
        end
        else ""
      in
      B.open_node b kinds.(sym) ~name:(name_of sym) content)
    ~close_node:(fun () -> B.close_node b);
  B.finish b

let to_tree t = Xml.Document.to_tree (to_document t) 0

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

let splice_range t ~first_rank ~node_count_removed ~bit_off ~bit_len fragment =
  (* fragment = None means pure deletion. *)
  let frag = Option.map of_tree fragment in
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
    write_tag tags width dst_rank (get_tag t.tags t.tag_width src_rank)
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

let insert_before t pos fragment =
  splice_range t ~first_rank:(preorder_rank t pos) ~node_count_removed:0 ~bit_off:pos ~bit_len:0
    (Some fragment)

(* --- Sections ------------------------------------------------------ *)

let structure t = t.bp
let tag_bytes t = t.tags
let tag_width t = t.tag_width
let content_flags t = t.has_content
let contents t = t.contents

let of_sections ~pager ~structure ~symtab ~tags ~tag_width ~content_flags ~contents =
  let n = Bitvector.length content_flags in
  let nsym = Xml.Symtab.cardinal symtab in
  if tag_width <> 1 && tag_width <> 2 then invalid_arg "bad tag width";
  if nsym > 1 lsl (8 * tag_width) then invalid_arg "symbol count exceeds tag width";
  if Bitvector.length structure <> 2 * n then invalid_arg "structure/flag length mismatch";
  if Bytes.length tags <> n * tag_width then invalid_arg "tag section length mismatch";
  if Bitvector.pop_count content_flags <> Content_store.count contents then
    invalid_arg "content count mismatch";
  for rank = 0 to n - 1 do
    if get_tag tags tag_width rank >= nsym then invalid_arg "bad tag id"
  done;
  {
    bp = Balanced_parens.of_bitvector structure;
    symtab;
    tags;
    tag_width;
    has_content = content_flags;
    contents;
    pager;
  }
