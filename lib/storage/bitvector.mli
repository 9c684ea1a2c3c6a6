(** Static bit vectors with constant-time [rank] and logarithmic [select],
    the base layer of the succinct storage scheme (§4.2, [6]).

    Bits are packed LSB-first into bytes padded to 64-bit words. Rank uses
    a two-level directory — absolute counts per 512-bit superblock plus a
    16-bit delta per 64-bit word — so [rank1] is two directory reads and
    one masked word popcount (SWAR, branchless). Select binary-searches
    the superblock directory, steps over at most eight word popcounts, and
    finishes with a select-in-byte table. *)

type t

type builder
(** Append-only construction buffer. *)

val builder : unit -> builder
val push : builder -> bool -> unit
(** Append one bit. *)

val push_many : builder -> bool -> int -> unit
(** [push_many b bit k] appends [k] copies of [bit]. *)

val build : builder -> t
(** Freeze the builder and compute the rank directory. *)

val append_slice : builder -> t -> int -> int -> unit
(** [append_slice b bv off len] appends bits [[off, off+len)] of [bv],
    processing a byte at a time (the splice fast path). *)

val of_bools : bool list -> t
val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool
(** [get bv i] is bit [i].
    @raise Invalid_argument if [i] is out of bounds. *)

val byte : t -> int -> int
(** [byte bv i] is payload byte [i] (bits [8i .. 8i+7], LSB-first); bits
    beyond [length bv] read as zero. The raw feed for {!Excess_dir}.
    @raise Invalid_argument if [i] is outside the padded payload. *)

val unsafe_byte : t -> int -> int
(** {!byte} without the bounds check — for hot scan loops whose index is
    already proven in range ({!Balanced_parens} navigation). *)

val raw_bytes : t -> Bytes.t
(** The padded payload itself, NOT a copy: read-only by contract, for
    scan kernels that must avoid per-byte call overhead (the compiler
    inlines [Bytes.unsafe_get] but not cross-module accessors). Mutating
    it breaks the directory invariants. *)

val rank1 : t -> int -> int
(** [rank1 bv i] is the number of set bits in positions [[0, i)].
    [rank1 bv (length bv)] is the total population count. *)

val rank0 : t -> int -> int
(** Number of clear bits before position [i]. *)

val select1 : t -> int -> int
(** [select1 bv k] is the position of the [k]-th set bit (0-based).
    @raise Not_found if there are fewer than [k+1] set bits. *)

val select0 : t -> int -> int
(** Position of the [k]-th clear bit. @raise Not_found if absent. *)

val pop_count : t -> int
(** Total number of set bits. *)

val size_in_bytes : t -> int
(** Heap footprint: payload bits plus the rank directory. *)

val concat : t list -> t
(** Concatenate bit vectors (used by the update splice). *)

val sub : t -> int -> int -> t
(** [sub bv off len] copies the bit range [[off, off+len)]. *)

val equal : t -> t -> bool

val of_packed_string : string -> off:int -> len:int -> t
(** [of_packed_string s ~off ~len] reads [len] bits from the LSB-first
    payload bytes of [s] starting at byte [off] — the serialization form —
    with one copy (rank directory recomputed).
    @raise Invalid_argument if the bytes run past the end of [s]. *)
