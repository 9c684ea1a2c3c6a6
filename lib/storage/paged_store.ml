type cursor = { pos : int; rank : int }

type t = {
  pool : Buffer_pool.t;
  layout : Store_io.layout;
  symbols : string array;
  by_name : (string, int) Hashtbl.t;
  dir : Excess_dir.t; (* RMM excess directory; bytes faulted from the pool *)
  flag_rank : int array; (* rank1 of the flag bits before each 256-bit block *)
}

let byte_pop =
  Array.init 256 (fun b ->
      let rec count b acc = if b = 0 then acc else count (b lsr 1) (acc + (b land 1)) in
      count b 0)

(* --- raw section access ---------------------------------------------- *)

let structure_byte t i = Buffer_pool.get_byte t.pool (t.layout.Store_io.structure_off + i)

let structure_bit t i =
  structure_byte t (i lsr 3) land (1 lsl (i land 7)) <> 0

let flag_byte t i = Buffer_pool.get_byte t.pool (t.layout.Store_io.flags_off + i)
let flag_bit t i = flag_byte t (i lsr 3) land (1 lsl (i land 7)) <> 0

(* --- open -------------------------------------------------------------- *)

let open_store ?page_size ?pool_pages path =
  let pool = Buffer_pool.open_file ?page_size ?capacity:pool_pages path in
  let layout, symbols =
    try
      let layout = Store_io.read_layout pool path in
      ( layout,
        Store_io.read_symbols ~path ~read_i64:(Buffer_pool.read_i64 pool)
          ~read_string:(Buffer_pool.read_string pool) layout )
    with e ->
      Buffer_pool.close pool;
      raise e
  in
  let by_name = Hashtbl.create (Array.length symbols) in
  Array.iteri (fun i name -> Hashtbl.replace by_name name i) symbols;
  (* The per-block excess directory and the flag-rank samples are stored
     in the file (format v3): read them instead of streaming the
     structure and flag sections. Only the directory pages are touched at
     open; the payload sections stay cold until navigation faults them. *)
  let blocks =
    Store_io.read_dir_blocks
      ~get_byte:(fun off -> Buffer_pool.get_byte pool off)
      ~dir_off:layout.Store_io.dir_off ~dir_block_count:layout.Store_io.dir_block_count
  in
  let dir =
    Excess_dir.of_blocks ~len:layout.Store_io.structure_bit_len
      ~byte:(fun i -> Buffer_pool.get_byte pool (layout.Store_io.structure_off + i))
      blocks
  in
  let flag_rank =
    Array.init layout.Store_io.flag_sample_count (fun s ->
        Buffer_pool.read_i64 pool (layout.Store_io.flag_samples_off + (8 * s)))
  in
  { pool; layout; symbols; by_name; dir; flag_rank }

let close t = Buffer_pool.close t.pool
let pool t = t.pool
let node_count t = t.layout.Store_io.node_count

(* --- parentheses navigation ------------------------------------------- *)

let bit_len t = t.layout.Store_io.structure_bit_len

let find_close t pos =
  match Excess_dir.find_close t.dir pos with
  | j -> j
  | exception Invalid_argument _ -> invalid_arg "Paged_store.find_close: unbalanced"

let root_cursor (_ : t) = { pos = 0; rank = 0 }

let first_child_cursor t cursor =
  let next = cursor.pos + 1 in
  if next < bit_len t && structure_bit t next then Some { pos = next; rank = cursor.rank + 1 }
  else None

let next_sibling_cursor t cursor =
  let close = find_close t cursor.pos in
  let after = close + 1 in
  if after < bit_len t && structure_bit t after then
    Some { pos = after; rank = cursor.rank + ((close - cursor.pos + 1) / 2) }
  else None

let parent_cursor t cursor =
  match Excess_dir.enclose t.dir cursor.pos with
  | None -> None
  | Some pos ->
    (* preorder rank of an open paren = (position + excess) / 2 *)
    Some { pos; rank = (pos + Excess_dir.excess t.dir pos) / 2 }

let subtree_size t cursor = (find_close t cursor.pos - cursor.pos + 1) / 2

let cursor_of_rank t rank =
  if rank < 0 || rank >= node_count t then invalid_arg "Paged_store.cursor_of_rank";
  match Excess_dir.select_open t.dir rank with
  | pos -> { pos; rank }
  | exception Not_found -> invalid_arg "Paged_store.cursor_of_rank: out of range"

(* --- tags and content --------------------------------------------------- *)

let tag_at t cursor =
  let w = t.layout.Store_io.tag_width in
  let off = t.layout.Store_io.tags_off + (cursor.rank * w) in
  let lo = Buffer_pool.get_byte t.pool off in
  if w = 1 then lo else lo lor (Buffer_pool.get_byte t.pool (off + 1) lsl 8)

let tag_name t sym = t.symbols.(sym)
let find_symbol t name = Hashtbl.find_opt t.by_name name
let symbol_count t = Array.length t.symbols

(* rank1 of the flag bits before [rank]: nearest serialized sample plus a
   byte-stepped scan of at most one 256-bit block. *)
let flag_rank1 t rank =
  let b = rank / Excess_dir.block_bits in
  let acc = ref t.flag_rank.(b) in
  let i = ref (b * Excess_dir.block_bits) in
  while !i < rank do
    if !i land 7 = 0 && !i + 8 <= rank then begin
      acc := !acc + byte_pop.(flag_byte t (!i lsr 3));
      i := !i + 8
    end
    else begin
      if flag_bit t !i then incr acc;
      incr i
    end
  done;
  !acc

let content_at t cursor =
  if not (flag_bit t cursor.rank) then ""
  else begin
    let id = flag_rank1 t cursor.rank in
    let base = t.layout.Store_io.content_offsets_off in
    let start = Buffer_pool.read_i64 t.pool (base + (8 * id)) in
    let stop = Buffer_pool.read_i64 t.pool (base + (8 * (id + 1))) in
    Buffer_pool.read_string t.pool
      ~off:(t.layout.Store_io.content_blob_off + start)
      ~len:(stop - start)
  end

let label_kind label =
  if String.length label = 0 then `Element
  else
    match label.[0] with
    | '@' -> `Attribute
    | '?' -> `Pi
    | '#' -> if String.equal label "#text" then `Text else `Comment
    | _ -> `Element

let text_content_at t cursor =
  let label = t.symbols.(tag_at t cursor) in
  match label_kind label with
  | `Text | `Attribute -> content_at t cursor
  | `Comment | `Pi -> ""
  | `Element ->
    (* walk the subtree via cursors collecting text nodes *)
    let buffer = Buffer.create 32 in
    let rec walk c =
      (match label_kind t.symbols.(tag_at t c) with
      | `Text -> Buffer.add_string buffer (content_at t c)
      | `Attribute | `Comment | `Pi | `Element -> ());
      let rec kids child =
        match child with
        | None -> ()
        | Some k ->
          walk k;
          kids (next_sibling_cursor t k)
      in
      kids (first_child_cursor t c)
    in
    walk cursor;
    Buffer.contents buffer

let to_tree t =
  let rec build c =
    let label = t.symbols.(tag_at t c) in
    match label_kind label with
    | `Text -> Xqp_xml.Tree.Text (content_at t c)
    | `Comment -> Xqp_xml.Tree.Comment (content_at t c)
    | `Pi -> Xqp_xml.Tree.Pi (String.sub label 1 (String.length label - 1), content_at t c)
    | `Attribute -> invalid_arg "Paged_store.to_tree: attribute outside element"
    | `Element ->
      let rec collect child attrs kids =
        match child with
        | None -> (List.rev attrs, List.rev kids)
        | Some c' -> (
          let label' = t.symbols.(tag_at t c') in
          match label_kind label' with
          | `Attribute ->
            collect (next_sibling_cursor t c')
              ((String.sub label' 1 (String.length label' - 1), content_at t c') :: attrs)
              kids
          | `Element | `Text | `Comment | `Pi ->
            collect (next_sibling_cursor t c') attrs (build c' :: kids))
      in
      let attrs, kids = collect (first_child_cursor t c) [] [] in
      Xqp_xml.Tree.Element { name = label; attrs; children = kids }
  in
  build (root_cursor t)

let directory_bytes t =
  Excess_dir.size_in_bytes t.dir
  + (Array.length t.flag_rank * 8)
  + Array.fold_left (fun acc s -> acc + String.length s + 24) 0 t.symbols
