(** A growable byte sink — what every reply and serialization is written
    into.

    Unlike [Buffer.t] it can keep free room at its head: a prefix that is
    only known once the contents are written (an HTTP header carrying
    the body's length) is placed in front of them with {!prepend}, and
    the whole range leaves with one {!send}, with no copy of the body. A
    sink is meant to be kept and {!clear}ed between uses, so a warm
    writer allocates nothing. *)

type t

val create : ?head:int -> int -> t
(** [create ~head n]: room for [n] bytes of contents (at least 16), with
    [head] bytes (default 0) kept free in front of them for {!prepend}. *)

val length : t -> int
(** Bytes of contents, any prefix included. *)

val capacity : t -> int
(** Bytes of room after the head: [n] as created, doubling as the sink
    grows. *)

val clear : t -> unit
(** Empty the sink and keep its storage. *)

val reset : t -> unit
(** Empty the sink and drop its storage for a fresh one of the size it
    was created with. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit
val add_substring : t -> string -> int -> int -> unit
(** [add_substring s str off n] appends [n] bytes of [str] from [off]. *)

val prepend : t -> string -> unit
(** Put the string in front of the contents: into the head room when it
    fits, otherwise after moving the contents up. *)

val contents : t -> string

val send : t -> (Bytes.t -> int -> int -> int) -> unit
(** [send s write] hands the contents to [write bytes pos len] (which
    returns how many bytes it took, as [Unix.write] does) until all are
    taken or it takes none. *)
