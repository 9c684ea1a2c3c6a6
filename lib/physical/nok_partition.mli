(** Partitioning a pattern graph into next-of-kin (NoK) fragments (§4.2).

    A NoK pattern contains only local structural relationships (parent-
    child, attribute, following-sibling). A general pattern decomposes into
    maximal NoK fragments connected by ancestor-descendant arcs; each
    fragment is evaluated by the navigational NoK matcher and the fragment
    results are then combined with structural joins — the paper's hybrid
    of navigational and join-based processing. *)

type fragment = {
  root : int;          (** fragment root vertex (in the original pattern) *)
  members : int list;  (** all vertices of the fragment, pattern pre-order *)
  interesting : int list;
      (** vertices whose bindings must be materialized: the root, output
          vertices, and sources of outgoing descendant arcs *)
}

type t = {
  fragments : fragment list;  (** in pattern pre-order of their roots *)
  links : (int * int) list;
      (** descendant arcs between fragments: (source vertex, target
          fragment root) *)
}

val partition : Xqp_algebra.Pattern_graph.t -> t
(** Split a pattern into maximal NoK fragments. A pattern that
    {!Xqp_algebra.Pattern_graph.is_nok} yields a single fragment (plus the
    context-vertex handling: the context vertex starts its own fragment
    when its outgoing arcs are descendant arcs). *)

val pp : Format.formatter -> t -> unit
