(** Sets of document nodes as sorted, duplicate-free [int] arrays.

    Node ids are pre-order ranks ({!Document.node}), so a sorted array is
    a node sequence in document order. Producers append into a {!Buffer}
    and freeze it; consumers read the array directly. *)

type t = private int array
(** Strictly increasing node ids. *)

val length : t -> int

val of_list : int list -> t
(** Sorts and drops duplicates. *)

val to_list : t -> int list

val filter_sorted : int array -> (int -> bool) -> t
(** [filter_sorted src keep]: the elements of [src], which must be
    strictly increasing and never mutated afterwards (a document's tag
    stream, another set), for which [keep] holds. [keep] sees each
    element once, in order. Nothing is allocated before the first
    element is dropped, and when none is, the result is [src] itself. *)

val seek : t -> int -> int -> int
(** [seek s i lo] is the index of the first element of [s] above [lo]
    ([length s] if none), searched from [i], a previous answer: O(1)
    when [lo] has not passed an element since, logarithmic in the
    distance moved otherwise. Any [i] in [0, length s] is valid. *)

(** A growable append buffer that freezes into a set. Appending in
    increasing order is the cheap case; any other order is sorted (and
    duplicates dropped) once, when the buffer is frozen. *)
module Buffer : sig
  type set := t
  type t

  val create : unit -> t

  val add : t -> int -> unit
  val length : t -> int

  val get : t -> int -> int
  (** The [i]-th appended element, [0 <= i < length]. *)

  val truncate : t -> int -> unit
  (** [truncate b n] forgets everything appended after the first [n]
      elements. *)

  val contents : t -> set
  (** The appended elements as a set; the buffer is unchanged. *)
end
