(** Array-packed documents: the query-side representation.

    A document is the pre-order linearization of a labeled ordered tree into
    parallel arrays. A node is identified by its pre-order rank (an [int]),
    so document order is integer order, and the interval encoding of
    DeHann et al. [1] — [(start, end, level)] with [start = pre-order rank]
    and [end = start + subtree_size - 1] — falls out of the layout for free.
    Structural joins, tag indexes and statistics all work over these ids.

    Attribute nodes are materialized as children of their owner element,
    placed before the element's content children; their {!kind} keeps the
    child axis from seeing them. *)

type kind = Element | Attribute | Text | Comment | Pi

type node = int
(** Pre-order rank of a node; the root is [0]. *)

type t

val of_tree : Tree.t -> t
(** [of_tree tree] packs [tree]. The symbol table interns element and
    attribute names in pre-order of first occurrence. *)

(** Pre-order construction into preallocated arrays — what {!of_tree}
    packs through, and what a packed store's walk feeds directly, with no
    intermediate {!Tree.t}. Attributes are opened (and closed) right
    after their owner, before its content children. *)
module Builder : sig
  type builder

  val create : int -> builder
  (** A builder for exactly this many nodes. *)

  val intern : builder -> string -> int
  (** Symbol id of an element/attribute name or PI target. Intern in
      pre-order of first occurrence to match {!of_tree}'s table. *)

  val open_node : builder -> kind -> name:int -> string -> unit
  (** Enter the next node in pre-order: its kind, name id ([-1] for text
      and comments) and own content. @raise Invalid_argument past the
      declared count. *)

  val close_node : builder -> unit
  val finish : builder -> t
  (** @raise Invalid_argument unless exactly the declared number of nodes
      were opened and all closed. *)
end

val to_tree : t -> node -> Tree.t
(** [to_tree doc node] rebuilds the algebraic subtree rooted at [node]. *)

val add_item : json:bool -> Sink.t -> t -> node -> unit
(** [add_item ~json sink doc node] appends a query result row: an
    attribute as [@name="value"] and a text node as its content, both
    unescaped as XML; an element, comment or PI as the XML of its
    subtree — the bytes [Serializer.to_string (to_tree doc node)]
    renders — in one linear walk over the subtree's pre-order range,
    with no intermediate tree or string. Tags come from per-symbol
    strings built with the document, and a node's content is scanned
    for escapes only the first time it is written. With [~json:true]
    the same bytes are escaped for the inside of a JSON string in the
    same pass ({!Entity.json}); the quotes around the string are the
    caller's. *)

val of_string : ?strip:bool -> string -> t
(** [of_string s] is [of_tree (Xml_parser.parse_string s)]; [~strip:true]
    drops whitespace-only text nodes first. *)

val root : t -> node
(** The document element (always [0]). *)

val node_count : t -> int
(** Total number of nodes. *)

val symtab : t -> Symtab.t
(** The document's symbol table. *)

val kind : t -> node -> kind
val name_id : t -> node -> int
(** Symbol id of an element/attribute name; [-1] for text/comment nodes. *)

val name : t -> node -> string
(** Element/attribute name; ["#text"], ["#comment"], ["#pi"] otherwise. *)

val content : t -> node -> string
(** Own content: text-node characters, attribute value, comment body, PI
    body; [""] for elements. *)

val parent : t -> node -> node option
val first_child : t -> node -> node option
(** First child {e including} attribute nodes; see {!first_content_child}. *)

val first_content_child : t -> node -> node option
(** First non-attribute child. *)

val next_sibling : t -> node -> node option

(** The structure arrays, indexed by node id, for kernels that scan
    pre-order ranges without a call per node. They are the document's
    own: never mutate them. *)
type arrays = {
  kinds : kind array;
  names : int array;  (** {!name_id} *)
  sizes : int array;  (** {!subtree_size} *)
  next_siblings : int array;  (** {!next_sibling}, [-1] for none *)
}

val arrays : t -> arrays

val prev_sibling : t -> node -> node option
val level : t -> node -> int
(** Depth; the root has level 0. Attribute nodes are one below their owner. *)

val subtree_size : t -> node -> int
(** Number of nodes in the subtree rooted at [node], including itself. *)

val subtree_end : t -> node -> node
(** Largest pre-order id in the subtree: [node + subtree_size - 1]. *)

val postorder : t -> node -> int
(** Post-order rank of [node]. *)

val is_ancestor : t -> node -> node -> bool
(** [is_ancestor doc a d]: is [a] a proper ancestor of [d]? O(1) via the
    interval encoding. *)

val is_parent : t -> node -> node -> bool
(** [is_parent doc p c]: is [p] the parent of [c]? *)

val children : t -> node -> node list
(** Content children (attributes excluded), in document order. *)

val attributes : t -> node -> node list
(** Attribute nodes of an element, in document order. *)

val attribute_value : t -> node -> string -> string option
(** [attribute_value doc element key] looks an attribute up by name. *)

val iter_children : t -> node -> (node -> unit) -> unit
(** Iterate over content children in document order. *)

val iter_descendants : t -> node -> (node -> unit) -> unit
(** Iterate over proper descendants (attributes included) in document
    order. *)

val fold_descendants : t -> node -> ('a -> node -> 'a) -> 'a -> 'a
val text_content : t -> node -> string
(** Concatenated descendant-or-self text, in document order (attribute
    value for attribute nodes). An element whose only content is one text
    node returns that node's string, with no copy. *)

val typed_value : t -> node -> string
(** The string value used by value predicates: {!text_content}. *)

val nodes_by_name : t -> int -> node list
(** [nodes_by_name doc sym] is every element/attribute node whose name id is
    [sym], in document order. Precomputed at pack time — this is the tag
    index the join-based operators scan. *)

val nodes_by_name_array : t -> int -> node array
(** Array view of {!nodes_by_name} (shared; do not mutate). *)

val element_count : t -> int
(** Number of element nodes. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: node counts by kind, depth, distinct tags. *)
