(** The paper's succinct physical storage scheme (§4.2, [6]).

    Structure and content are stored separately:

    - the tree shape is a balanced-parentheses bit string in pre-order
      ({!Balanced_parens});
    - node labels are a dense tag sequence aligned to pre-order ranks (1 or
      2 bytes per node, from a store-local symbol table);
    - node contents (text characters, attribute values, comment/PI bodies)
      live in a {!Content_store} addressed through a has-content bit vector.

    Pre-order linearization clusters each subtree into a contiguous
    substring of all three sequences, which is what makes navigation
    cache/page friendly, updates local ({!replace_subtree}), and lets the
    NoK matcher run in a single scan — including over streaming input,
    whose arrival order is exactly this pre-order.

    Naming conventions in the store symbol table: attribute nodes are
    labeled ["@name"], text nodes ["#text"], comments ["#comment"],
    processing instructions ["?target"]. Element names are stored
    verbatim. *)

type t

type node = int
(** A node is the position of its open parenthesis in the structure bits. *)

type kind = Element | Attribute | Text | Comment | Pi

type footprint = {
  structure_bytes : int;  (** parentheses bits + excess directory *)
  tag_bytes : int;        (** tag sequence *)
  content_bytes : int;    (** content blob + offsets *)
  index_bytes : int;      (** has-content bit vector + rank directory *)
}

val of_document : ?pager:Pager.t -> Xqp_xml.Document.t -> t
(** Linearize a packed document in one pre-order loop over its arrays.
    When [pager] is given, every subsequent navigation and content access
    is run through it for I/O accounting.
    @raise Failure if the document needs more than 65,536 distinct store
    labels (the reach of a 2-byte tag). *)

val of_tree : ?pager:Pager.t -> Xqp_xml.Tree.t -> t
(** [of_document (Document.of_tree tree)]. *)

val to_document : t -> Xqp_xml.Document.t
(** The packed document, built straight from one pre-order scan of the
    store through {!Xqp_xml.Document.Builder} (no pager accounting). The
    encoding is lossless: [to_document (of_document d)] has [d]'s nodes,
    names and contents. *)

val to_tree : t -> Xqp_xml.Tree.t
(** [Document.to_tree (to_document t)] at the root. *)

val node_count : t -> int
val symtab : t -> Xqp_xml.Symtab.t
(** Store-local symbol table (see naming conventions above). *)

val root : t -> node
val first_child : t -> node -> node option
(** First child, attributes included (they precede content children). *)

val next_sibling : t -> node -> node option
val parent : t -> node -> node option
val kind_of : t -> node -> kind
val tag_id : t -> node -> int
(** Symbol id of the node's label in {!symtab}. *)

val tag_name : t -> node -> string
val content : t -> node -> string
(** Own content ([""] for elements). *)

val text_content : t -> node -> string
(** Concatenated descendant-or-self text (attribute value for attributes). *)

val subtree_size : t -> node -> int
val preorder_rank : t -> node -> int
val node_of_rank : t -> int -> node
val depth : t -> node -> int

val iter_nodes : t -> (node -> unit) -> unit
(** Visit every node in pre-order (a single left-to-right scan). *)

val footprint : t -> footprint
val total_bytes : footprint -> int
val pp_footprint : Format.formatter -> footprint -> unit

val replace_subtree : t -> node -> Xqp_xml.Tree.t -> t
(** [replace_subtree store node fragment] splices [fragment] over the
    subtree rooted at [node]: only the affected substring of each sequence
    is rewritten (plus directory rebuild), the paper's cheap-update
    argument. The result is a new store; pager write counters record the
    touched byte ranges. *)

val delete_subtree : t -> node -> t
(** Remove the subtree at [node] (must not be the root). *)

val insert_before : t -> node -> Xqp_xml.Tree.t -> t
(** Insert [fragment] as the sibling immediately preceding [node]. *)

val pager : t -> Pager.t option

(** {2 Sections}

    The sequences of the scheme as the store holds them — what
    {!Store_io} writes and adopts. Shared, not copied: do not mutate. *)

val structure : t -> Balanced_parens.t
(** Balanced parentheses in pre-order, with their excess directory. *)

val tag_bytes : t -> Bytes.t
(** {!tag_width} little-endian bytes per pre-order rank. *)

val tag_width : t -> int
(** 1 up to 256 labels, else 2. *)

val content_flags : t -> Bitvector.t
(** Has-content bit per pre-order rank. *)

val contents : t -> Content_store.t
(** Own contents of the flagged nodes, in pre-order. *)

val scan : t -> open_node:(int -> int -> unit) -> close_node:(unit -> unit) -> unit
(** One left-to-right pass over the structure bits: [open_node rank tag]
    per open parenthesis, [close_node ()] per close. No pager
    accounting. *)

val of_sections :
  pager:Pager.t option ->
  structure:Bitvector.t ->
  symtab:Xqp_xml.Symtab.t ->
  tags:Bytes.t ->
  tag_width:int ->
  content_flags:Bitvector.t ->
  contents:Content_store.t ->
  t
(** Adopt the sections (the excess directory is rebuilt).
    @raise Invalid_argument (naming the fault) unless the tag width is 1
    or 2 and addresses every symbol, the structure holds 2 bits and the
    tags [tag_width] bytes per flag bit, the flags' popcount is the
    content count, and every tag id is below the symbol count. *)
