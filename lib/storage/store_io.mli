(** Binary persistence for the succinct store.

    The on-disk layout mirrors the in-memory separation (§4.2): one
    section per sequence — structure bits, tag sequence, has-content bits,
    symbol table, content table — at offsets computed from a fixed header,
    so {!Paged_store} faults sections in independently. {!to_bytes} writes
    each section as the store holds it (tags at the store's width, the
    content store's own blob and offsets), and {!load_bytes} adopts each
    with one copy. Integers are 64-bit little-endian; the file starts with
    a magic string and a format version.

    Every load checks what it adopts: a consistent header (a tag width
    that addresses every symbol, byte lengths that pack the bit lengths,
    sections that exactly fill the file), string-table offsets bounded by
    their own blob (first 0, non-decreasing, last = blob length), distinct
    symbols, the flag rank samples, 2 structure bits per node, a flag
    popcount equal to the content count, and tag ids below the symbol
    count. Any violation is a [Failure "<path>: corrupt store file (…)"].

    Since v3 the per-block excess directory of the structure bits and
    rank1 samples of the has-content bits are serialized too (trailing
    sections), so {!Paged_store} can open a file without streaming the
    structure. {!load} cross-checks them against recomputed directories
    and fails on mismatch. Word-level rank directories remain derived
    data, rebuilt at load time.

    Since v4 the {!Path_summary} of the document — every distinct
    root-to-node label path with its exact count — is serialized as a
    trailing section (4 × i64 per summary node), so the planner's
    cardinality synopsis rides with the data.

    {!load} trusts the packed directory and summary sections by default:
    recomputing them from the structure bits and comparing is O(doc) per
    open, which multiplies across a corpus of shards. That full
    cross-check runs in fsck, and {!load} re-enables it with
    [~verify:true] or [XQP_VERIFY_PLANS=1]. The summary is not taken on
    faith for planning, though: [Executor.of_packed], the open path of
    sessions and corpus shards, reads it with {!packed_summary} and
    recounts every path, count and text flag against the document it
    builds, failing the open on any disagreement. *)

val magic : string
val version : int

val save : Succinct_store.t -> string -> unit
(** [save store path] writes the store. @raise Sys_error on I/O failure. *)

val to_bytes : Succinct_store.t -> string
(** The exact byte image {!save} writes — what catalog shard containers
    embed. *)

val load : ?pager:Pager.t -> ?verify:bool -> string -> Succinct_store.t
(** [load path] reads a store written by {!save}. [verify] (default: set
    iff [XQP_VERIFY_PLANS] is a non-empty value other than ["0"]) turns
    the O(doc) excess-directory and path-summary recompute-and-compare
    cross-checks back on.
    @raise Sys_error on I/O failure.
    @raise Failure on a bad magic or version, or any corruption listed
    above. *)

val load_bytes :
  ?pager:Pager.t -> ?verify:bool -> path:string -> string -> Succinct_store.t
(** {!load} from an in-memory image ([path] labels error messages) — how
    catalog shards address embedded per-document store images. *)

val read_file : string -> string
(** Whole-file read used by {!load} (and by catalog/fsck callers that
    slice the image themselves). @raise Sys_error / Failure. *)

val packed_summary : path:string -> string -> Path_summary.t
(** Decode just the path-summary section (plus the symbol table it
    references) of a store image, without materializing the store —
    O(symbols + summary), not O(doc). @raise Failure on malformed
    header/table. *)

(** {2 Section directory} — used by {!Paged_store} to address sections of
    the file without reading it wholesale. All offsets are absolute file
    positions. *)

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
  dir_block_count : int;   (** 256-bit structure blocks *)
  dir_off : int;           (** 5 × i16 per block: delta, fmin, fmax, bmin, bmax *)
  flag_sample_count : int;
  flag_samples_off : int;  (** i64 rank1 sample per 256-bit flag boundary *)
  psum_count : int;        (** path-summary nodes *)
  psum_off : int;          (** 4 × i64 per node: parent + 1, label sym, count, flags *)
}

val header_bytes : int
val psum_row_bytes : int

val summary_of_store : Succinct_store.t -> Path_summary.t
(** Recompute the path summary in one walk over the store's structure
    bits and tags ({!Succinct_store.scan}). This is what [save]
    serializes and what [load] checks the serialized section against. *)

val layout_of_header : read_i64:(int -> int) -> layout
(** Compute the section directory straight from the 13 header fields
    ([read_i64] takes an absolute file offset), with {e no} consistency
    checks — for readers like the fsck pass that report inconsistencies
    themselves instead of failing on the first. *)

val read_dir_blocks :
  get_byte:(int -> int) -> dir_off:int -> dir_block_count:int -> Excess_dir.blocks
(** Decode the serialized structure excess directory through an arbitrary
    byte reader (used with a {!Buffer_pool} by {!Paged_store}). *)

val read_symbols :
  path:string ->
  read_i64:(int -> int) ->
  read_string:(off:int -> len:int -> string) ->
  layout ->
  string array
(** The symbol table, read through arbitrary accessors (absolute file
    offsets; a {!Buffer_pool} for {!Paged_store}).
    @raise Failure (corrupt store file) unless its offsets stay inside
    its own blob. *)

val read_layout : Buffer_pool.t -> string -> layout
(** Validate the header through the pool and return the directory.
    @raise Failure on a bad magic, version or inconsistent sizes. *)
