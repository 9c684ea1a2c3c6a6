let magic = "XQPSTORE"
let version = 4

(* Format v4 — fixed-size header, then sections at computable offsets so a
   paged reader can address them without scanning:

     magic (8 bytes)          "XQPSTORE"
     version                  i64
     node_count n             i64
     tag_width w              i64 (1 up to 256 symbols, else 2)
     structure_bit_len        i64 (= 2n)
     structure_byte_len       i64
     flags_bit_len            i64 (= n)
     flags_byte_len           i64
     symbol_count             i64
     symbol_blob_len          i64
     content_count            i64
     content_blob_len         i64
     dir_block_count          i64 (= ceil(structure_bit_len / 256))
     flag_sample_count        i64 (= ceil(flags_bit_len / 256) + 1)
     psum_count               i64 (path-summary nodes)
   sections, in order:
     structure bytes          structure_byte_len
     tag bytes                n * w
     has-content bytes        flags_byte_len
     symbol offsets           (symbol_count + 1) × i64 (into the blob)
     symbol blob              symbol_blob_len
     content offsets          (content_count + 1) × i64
     content blob             content_blob_len
     structure excess dir     dir_block_count × 5 × i16 (delta, fmin,
                              fmax, bmin, bmax per 256-bit block)
     flag rank samples        flag_sample_count × i64 (rank1 of the flag
                              bits at each 256-bit boundary, then total)
     path summary             psum_count × 4 × i64 (parent + 1, label
                              symbol id, exact count, flags; canonical
                              pre-order, siblings label-sorted)

   All integers little-endian; the i16 directory entries are signed
   (values lie in [-256, 256]). Serializing the navigation directories
   (v3) lets {!Paged_store} open a file without streaming the structure
   section; {!load} cross-checks them against recomputed ones, so
   corruption is detected. The path summary (v4) is the planner's
   cardinality synopsis, likewise recomputed and cross-checked at load.
   Word-level rank directories remain derived data and are rebuilt by the
   reader. *)

let header_bytes = 8 + (8 * 14)

type layout = {
  node_count : int;
  tag_width : int;
  structure_bit_len : int;
  structure_off : int;
  structure_byte_len : int;
  tags_off : int;
  flags_bit_len : int;
  flags_off : int;
  flags_byte_len : int;
  symbol_count : int;
  symbol_offsets_off : int;
  symbol_blob_off : int;
  content_count : int;
  content_offsets_off : int;
  content_blob_off : int;
  dir_block_count : int;
  dir_off : int;
  flag_sample_count : int;
  flag_samples_off : int;
  psum_count : int;
  psum_off : int;
}

let dir_blocks_for bit_len = (bit_len + Excess_dir.block_bits - 1) / Excess_dir.block_bits
let flag_samples_for bit_len = dir_blocks_for bit_len + 1
let psum_row_bytes = 32

let layout_of_fields ~node_count ~tag_width ~structure_bit_len ~structure_byte_len ~flags_bit_len
    ~flags_byte_len ~symbol_count ~symbol_blob_len ~content_count ~content_blob_len
    ~dir_block_count ~flag_sample_count ~psum_count =
  let structure_off = header_bytes in
  let tags_off = structure_off + structure_byte_len in
  let flags_off = tags_off + (node_count * tag_width) in
  let symbol_offsets_off = flags_off + flags_byte_len in
  let symbol_blob_off = symbol_offsets_off + (8 * (symbol_count + 1)) in
  let content_offsets_off = symbol_blob_off + symbol_blob_len in
  let content_blob_off = content_offsets_off + (8 * (content_count + 1)) in
  let dir_off = content_blob_off + content_blob_len in
  let flag_samples_off = dir_off + (dir_block_count * 10) in
  let psum_off = flag_samples_off + (8 * flag_sample_count) in
  {
    node_count;
    tag_width;
    structure_bit_len;
    structure_off;
    structure_byte_len;
    tags_off;
    flags_bit_len;
    flags_off;
    flags_byte_len;
    symbol_count;
    symbol_offsets_off;
    symbol_blob_off;
    content_count;
    content_offsets_off;
    content_blob_off;
    dir_block_count;
    dir_off;
    flag_sample_count;
    flag_samples_off;
    psum_count;
    psum_off;
  }

(* The path summary from one walk over the store's structure bits and
   tags, driving the builder with the store labels. Used by [to_bytes] (to
   serialize it) and by [load] (to cross-check the serialized copy, like
   the excess directory). *)
let summary_of_store store =
  let symtab = Succinct_store.symtab store in
  let labels = Array.init (Xqp_xml.Symtab.cardinal symtab) (Xqp_xml.Symtab.name symtab) in
  let b = Path_summary.Builder.create () in
  Succinct_store.scan store
    ~open_node:(fun _ tag -> Path_summary.Builder.open_node b labels.(tag))
    ~close_node:(fun () -> Path_summary.Builder.close_node b);
  Path_summary.Builder.finish b

let summary_rows store =
  let symtab = Succinct_store.symtab store in
  Path_summary.to_rows (summary_of_store store) ~label_id:(fun label ->
      match Xqp_xml.Symtab.find_opt symtab label with Some id -> id | None -> raise Not_found)

(* --- writing ----------------------------------------------------------- *)

let buf_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let packed_len bits = (Bitvector.length bits + 7) / 8

(* A string table: its offsets, then its blob. *)
let buf_table buf table =
  Array.iter (buf_i64 buf) (Content_store.offsets table);
  Buffer.add_string buf (Content_store.blob table)

let symbol_table symtab =
  let b = Content_store.builder () in
  Xqp_xml.Symtab.iter symtab (fun _ name -> ignore (Content_store.add b name));
  Content_store.build b

(* The store's own sections, written as it holds them. *)
let to_bytes store =
  let bp = Succinct_store.structure store in
  let structure = Balanced_parens.bits bp in
  let flags = Succinct_store.content_flags store in
  let tags = Succinct_store.tag_bytes store in
  let symbols = symbol_table (Succinct_store.symtab store) in
  let contents = Succinct_store.contents store in
  let blk = Excess_dir.blocks (Balanced_parens.directory bp) in
  let dir_block_count = dir_blocks_for (Bitvector.length structure) in
  let flag_sample_count = flag_samples_for (Bitvector.length flags) in
  let psum_rows = summary_rows store in
  let buf = Buffer.create (4096 + (packed_len structure * 4)) in
  Buffer.add_string buf magic;
  List.iter (buf_i64 buf)
    [
      version;
      Succinct_store.node_count store;
      Succinct_store.tag_width store;
      Bitvector.length structure;
      packed_len structure;
      Bitvector.length flags;
      packed_len flags;
      Content_store.count symbols;
      String.length (Content_store.blob symbols);
      Content_store.count contents;
      String.length (Content_store.blob contents);
      dir_block_count;
      flag_sample_count;
      Array.length psum_rows;
    ];
  Buffer.add_subbytes buf (Bitvector.raw_bytes structure) 0 (packed_len structure);
  Buffer.add_bytes buf tags;
  Buffer.add_subbytes buf (Bitvector.raw_bytes flags) 0 (packed_len flags);
  buf_table buf symbols;
  buf_table buf contents;
  for b = 0 to dir_block_count - 1 do
    Buffer.add_int16_le buf blk.Excess_dir.delta.(b);
    Buffer.add_int16_le buf blk.Excess_dir.fmin.(b);
    Buffer.add_int16_le buf blk.Excess_dir.fmax.(b);
    Buffer.add_int16_le buf blk.Excess_dir.bmin.(b);
    Buffer.add_int16_le buf blk.Excess_dir.bmax.(b)
  done;
  for s = 0 to flag_sample_count - 1 do
    buf_i64 buf (Bitvector.rank1 flags (min (Bitvector.length flags) (s * Excess_dir.block_bits)))
  done;
  Array.iter
    (fun r ->
      buf_i64 buf r.Path_summary.r_parent;
      buf_i64 buf r.Path_summary.r_label;
      buf_i64 buf r.Path_summary.r_count;
      buf_i64 buf r.Path_summary.r_flags)
    psum_rows;
  Buffer.contents buf

let save store path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_bytes store))

(* --- reading the header ------------------------------------------------ *)

let corrupt path what = failwith (Printf.sprintf "%s: corrupt store file (%s)" path what)

(* Layout straight from the header fields, with no consistency checks:
   the fsck pass wants to address sections of a possibly-corrupt file and
   report every inconsistency itself rather than fail on the first. *)
let layout_of_header ~read_i64 =
  layout_of_fields ~node_count:(read_i64 16) ~tag_width:(read_i64 24)
    ~structure_bit_len:(read_i64 32) ~structure_byte_len:(read_i64 40)
    ~flags_bit_len:(read_i64 48) ~flags_byte_len:(read_i64 56) ~symbol_count:(read_i64 64)
    ~symbol_blob_len:(read_i64 72) ~content_count:(read_i64 80) ~content_blob_len:(read_i64 88)
    ~dir_block_count:(read_i64 96) ~flag_sample_count:(read_i64 104) ~psum_count:(read_i64 112)

(* Magic, version and the header's layout, checked: afterwards every
   section lies inside the file. The blob lengths are recovered exactly
   from the offsets, even if the sums wrapped. *)
let checked_layout ~path ~total_size ~read_i64 ~read_string =
  if total_size < header_bytes then corrupt path "too small";
  if not (String.equal (read_string ~off:0 ~len:8) magic) then corrupt path "bad magic";
  let file_version = read_i64 8 in
  if file_version <> version then
    failwith
      (Printf.sprintf "%s: unsupported store version %d (expected %d)" path file_version version);
  let l = layout_of_header ~read_i64 in
  let symbol_blob_len = l.content_offsets_off - l.symbol_blob_off in
  let content_blob_len = l.dir_off - l.content_blob_off in
  if l.node_count < 0 || l.symbol_count < 0 || l.content_count < 0 then
    corrupt path "negative count";
  if symbol_blob_len < 0 || content_blob_len < 0 then corrupt path "negative blob length";
  (* No field can exceed the file, and bounding them first keeps the
     offset sums from overflowing. *)
  if
    List.exists (fun v -> v > total_size)
      [ l.node_count; l.symbol_count; l.content_count; symbol_blob_len; content_blob_len ]
  then corrupt path "size mismatch";
  if l.tag_width <> 1 && l.tag_width <> 2 then corrupt path "bad tag width";
  if l.symbol_count > 1 lsl (8 * l.tag_width) then corrupt path "symbol count exceeds tag width";
  if l.structure_bit_len <> 2 * l.node_count then corrupt path "structure length";
  if l.structure_byte_len <> (l.structure_bit_len + 7) / 8 then
    corrupt path "structure byte length";
  if l.flags_bit_len <> l.node_count then corrupt path "flag length";
  if l.flags_byte_len <> (l.flags_bit_len + 7) / 8 then corrupt path "flag byte length";
  if l.dir_block_count <> dir_blocks_for l.structure_bit_len then corrupt path "directory size";
  if l.flag_sample_count <> flag_samples_for l.flags_bit_len then
    corrupt path "flag sample count";
  if l.psum_count < 0 || l.psum_count > l.node_count then corrupt path "summary count";
  if l.psum_off + (psum_row_bytes * l.psum_count) <> total_size then corrupt path "size mismatch";
  l

let sign16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

(* Decode the serialized per-block excess directory through an arbitrary
   byte reader (string for [load], buffer pool for [Paged_store]). *)
let read_dir_blocks ~get_byte ~dir_off ~dir_block_count =
  let u16 off = get_byte off lor (get_byte (off + 1) lsl 8) in
  let field k = Array.init (max 1 dir_block_count) (fun b ->
      if b < dir_block_count then sign16 (u16 (dir_off + (b * 10) + (2 * k))) else 0)
  in
  {
    Excess_dir.delta = field 0;
    fmin = field 1;
    fmax = field 2;
    bmin = field 3;
    bmax = field 4;
  }

(* --- whole-file load (in-memory store) --------------------------------- *)

let substring image ~off ~len = String.sub image off len

let read_header ~path image =
  let read_i64 off = Int64.to_int (String.get_int64_le image off) in
  ( checked_layout ~path ~total_size:(String.length image) ~read_i64
      ~read_string:(substring image),
    read_i64 )

(* A string table adopted with one copy of its blob; its offsets must
   stay inside that blob, not merely inside the file. *)
let read_table ~path ~what ~read_i64 ~read_string ~offsets_off ~blob_off ~blob_end ~count =
  let offsets = Array.init (count + 1) (fun i -> read_i64 (offsets_off + (8 * i))) in
  let blob = read_string ~off:blob_off ~len:(blob_end - blob_off) in
  match Content_store.of_sections ~blob ~offsets with
  | table -> table
  | exception Invalid_argument reason -> corrupt path (what ^ " table: " ^ reason)

let read_symbols ~path ~read_i64 ~read_string layout =
  let table =
    read_table ~path ~what:"symbol" ~read_i64 ~read_string ~offsets_off:layout.symbol_offsets_off
      ~blob_off:layout.symbol_blob_off ~blob_end:layout.content_offsets_off
      ~count:layout.symbol_count
  in
  Array.init layout.symbol_count (Content_store.get table)

let read_summary_rows layout read_i64 =
  Array.init layout.psum_count (fun i ->
      let base = layout.psum_off + (psum_row_bytes * i) in
      {
        Path_summary.r_parent = read_i64 base;
        r_label = read_i64 (base + 8);
        r_count = read_i64 (base + 16);
        r_flags = read_i64 (base + 24);
      })

(* The O(doc) recompute-and-compare cross-checks (excess directory, path
   summary) used to run on every open, which multiplies painfully across a
   corpus of shards. Opens now trust the packed sections by default; the
   full cross-check lives in fsck and can be forced per-process with
   XQP_VERIFY_PLANS=1 or per-call with [~verify:true]. *)
let verify_default () =
  match Sys.getenv_opt "XQP_VERIFY_PLANS" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

(* Each section adopted with one copy: structure and flag bytes into bit
   vectors, tag bytes as they are, the content blob and its offsets into a
   content store. *)
let load_bytes ?pager ?verify ~path image =
  let verify = match verify with Some v -> v | None -> verify_default () in
  let layout, read_i64 = read_header ~path image in
  let structure =
    Bitvector.of_packed_string image ~off:layout.structure_off ~len:layout.structure_bit_len
  in
  (* Cross-check the serialized directories against freshly computed
     ones when verifying: a corrupted directory would misnavigate a
     paged reader. fsck always runs this check. *)
  if verify then begin
    let stored =
      read_dir_blocks
        ~get_byte:(fun off -> Char.code image.[off])
        ~dir_off:layout.dir_off ~dir_block_count:layout.dir_block_count
    in
    let fresh =
      Excess_dir.blocks
        (Excess_dir.create ~len:layout.structure_bit_len ~byte:(Bitvector.byte structure))
    in
    if
      not
        (stored.Excess_dir.delta = fresh.Excess_dir.delta
        && stored.Excess_dir.fmin = fresh.Excess_dir.fmin
        && stored.Excess_dir.fmax = fresh.Excess_dir.fmax
        && stored.Excess_dir.bmin = fresh.Excess_dir.bmin
        && stored.Excess_dir.bmax = fresh.Excess_dir.bmax)
    then corrupt path "excess directory mismatch"
  end;
  let tags = Bytes.create (layout.node_count * layout.tag_width) in
  Bytes.blit_string image layout.tags_off tags 0 (Bytes.length tags);
  let content_flags =
    Bitvector.of_packed_string image ~off:layout.flags_off ~len:layout.flags_bit_len
  in
  for s = 0 to layout.flag_sample_count - 1 do
    let boundary = min layout.flags_bit_len (s * Excess_dir.block_bits) in
    if read_i64 (layout.flag_samples_off + (8 * s)) <> Bitvector.rank1 content_flags boundary
    then corrupt path "flag rank sample mismatch"
  done;
  let read_string = substring image in
  let symtab = Xqp_xml.Symtab.create () in
  Array.iter
    (fun name -> ignore (Xqp_xml.Symtab.intern symtab name))
    (read_symbols ~path ~read_i64 ~read_string layout);
  if Xqp_xml.Symtab.cardinal symtab <> layout.symbol_count then corrupt path "duplicate symbol";
  let contents =
    read_table ~path ~what:"content" ~read_i64 ~read_string ~offsets_off:layout.content_offsets_off
      ~blob_off:layout.content_blob_off ~blob_end:layout.dir_off ~count:layout.content_count
  in
  let store =
    match
      Succinct_store.of_sections ~pager ~structure ~symtab ~tags ~tag_width:layout.tag_width
        ~content_flags ~contents
    with
    | store -> store
    | exception Invalid_argument reason -> corrupt path reason
  in
  (* When verifying, cross-check the serialized path summary against a
     recomputed one, like the excess directory: a stale or corrupted
     synopsis must not silently feed the planner wrong cardinalities. *)
  if verify then begin
    let fresh_rows =
      match summary_rows store with
      | rows -> rows
      | exception Failure _ | exception Not_found -> corrupt path "path summary rebuild"
    in
    if read_summary_rows layout read_i64 <> fresh_rows then corrupt path "path summary mismatch"
  end;
  store

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let total_size = in_channel_length ic in
      try really_input_string ic total_size with End_of_file -> corrupt path "truncated")

let load ?pager ?verify path = load_bytes ?pager ?verify ~path (read_file path)

(* Parse just the header, symbol table and path-summary rows of a store
   image — the per-shard synopsis a catalog needs, without materializing
   (or even fully validating) the store. O(symbols + summary). *)
let packed_summary ~path image =
  let layout, read_i64 = read_header ~path image in
  let symbols = read_symbols ~path ~read_i64 ~read_string:(substring image) layout in
  let label_of id =
    if id < 0 || id >= layout.symbol_count then corrupt path "summary label id" else symbols.(id)
  in
  match Path_summary.of_rows (read_summary_rows layout read_i64) ~label_of with
  | summary -> summary
  | exception Failure _ -> corrupt path "path summary table"

(* --- header access for the paged reader -------------------------------- *)

let read_layout pool path =
  checked_layout ~path ~total_size:(Buffer_pool.file_size pool)
    ~read_i64:(Buffer_pool.read_i64 pool) ~read_string:(Buffer_pool.read_string pool)
