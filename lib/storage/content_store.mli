(** Content storage, separated from structure (§4.2).

    The paper's scheme stores element contents apart from the tree shape so
    that (a) the structure stays regular and compact and (b) content indexes
    can be built over values alone. A content store is an append-only string
    arena addressed by dense content ids (assigned in pre-order to the
    content-bearing nodes: texts, attributes, comments, PIs). *)

type t

type builder

val builder : unit -> builder
val add : builder -> string -> int
(** Append a string; returns its content id (dense, starting at 0). *)

val build : builder -> t

val of_sections : blob:string -> offsets:int array -> t
(** Adopt a serialized table as is: [offsets] holds [count + 1] entries,
    entry [i] to [i + 1] delimiting id [i] in [blob].
    @raise Invalid_argument (naming the fault) unless the first offset is
    0, offsets never decrease and the last one is the blob length. *)

val blob : t -> string
val offsets : t -> int array
(** The table's own sections ({!of_sections}' inverse), shared: do not
    mutate. *)

val get : t -> int -> string
(** @raise Invalid_argument on an unknown id. *)

val count : t -> int
val size_in_bytes : t -> int
(** Blob bytes plus the offset directory. *)

val splice : t -> int -> int -> string list -> t
(** [splice store first n replacement] replaces content ids
    [[first, first+n)] with [replacement] (ids above shift). Used by the
    subtree update path. *)

val iter : t -> (int -> string -> unit) -> unit
