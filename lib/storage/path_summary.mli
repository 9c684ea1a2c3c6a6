(** DataGuide-style path summary: every distinct root-to-node label path with
    its exact occurrence count.

    The summary of a document is a tree whose nodes are the distinct
    root-to-element (and root-to-attribute) label paths; each summary node
    carries the exact number of document nodes reachable by its path, plus a
    flag recording whether any of those nodes has a text child. Text, comment
    and PI nodes never become summary nodes — they only feed the text flag of
    their parent path.

    On tree-shaped data the summary is tiny (one node per distinct path) and
    answers three planner questions exactly:

    - the cardinality of any downward linear path ([/] steps), including
      descendant ([//]) steps — the sum of counts over matching summary
      nodes is exact, not a bound, because every document node lies on
      exactly one root path;
    - emptiness of a pattern's projected path set (no matching summary node
      means no document node can match, predicates notwithstanding);
    - "no match below this tag" sets that let navigation jump over whole
      subtrees.

    Labels follow the store symbol conventions: element names verbatim,
    attributes ["@name"]. Labels starting with ['#'] or ['?'] (text,
    comment, PI markers) are accepted by the builder but never create
    summary nodes. Canonical form is pre-order with siblings sorted by
    label, so [parent i < i] for every non-root node and the serialized
    table is fsck-checkable. *)

type t

(** {2 Construction} *)

(** Event-driven construction — one pass over a SAX-shaped stream of
    open/close events in document order. *)
module Builder : sig
  type builder

  val create : unit -> builder

  val open_node : builder -> string -> unit
  (** [open_node b label] enters a node. Element and ["@name"] labels extend
      the current path (creating or counting a summary node); ["#text"] sets
      the text flag of the enclosing element path; other ['#']/['?'] labels
      are structural no-ops. Every [open_node] must be matched by a
      {!close_node}. *)

  val close_node : builder -> unit
  val finish : builder -> t
  (** Canonicalize into pre-order with label-sorted siblings. The builder
      must be balanced (every open closed). *)
end

val of_document : Xqp_xml.Document.t -> t
(** One pre-order pass over a packed document. *)

val merge : t list -> t
(** Union of the inputs' path sets with per-path counts summed and text
    flags or'd — the summary [of_document] would build over the inputs'
    documents laid side by side. This is the corpus-catalog merged
    summary: exactness of linear-path cardinalities is preserved because
    every document node still lies on exactly one root path. O(total
    summary nodes). *)

val equal : t -> t -> bool
(** Structural equality (labels, parents, counts, text flags). Both sides
    being canonical, this is plain array equality. *)

(** {2 Structure access} *)

val length : t -> int
val label : t -> int -> string
val parent : t -> int -> int
(** Parent summary node, [-1] for root-level paths. *)

val count : t -> int -> int
(** Exact number of document nodes on this path. *)

val has_text : t -> int -> bool
(** Does any document node on this path have a text-node child? *)

val children : t -> int -> int list
(** Children in label-sorted order. *)

val roots : t -> int list
val node_path : t -> int -> string list
(** Root-to-node label path, for diagnostics. *)

val pp : Format.formatter -> t -> unit

(** {2 Path matching} *)

val super_root : int
(** Virtual node above the root-level paths; the starting point of absolute
    path evaluation ([matching_from t [super_root] steps]). *)

type selector =
  | Label of string  (** exact label: element name or ["@name"] *)
  | Any_element
  | Any_attribute

type step = { descendant : bool; selector : selector }
(** One downward step: direct children when [descendant] is false, proper
    descendants otherwise, filtered by [selector]. *)

val matching_from : t -> int list -> step list -> int list
(** Evaluate a step list over the summary from a set of summary nodes
    (which may include {!super_root}). Result is sorted and duplicate-free. *)

val matching : t -> step list -> int list
(** [matching t steps] is [matching_from t [super_root] steps]. *)

val total_count : t -> int list -> int
(** Sum of {!count} over a node set ({!super_root} counts as 1). *)

val descendant_or_self_set : t -> int list -> bool array
(** Membership array (length {!length}) of the descendant-or-self closure
    of a node set; [super_root] marks everything. *)

val skip_labels : t -> targets:int list -> self:bool -> string -> bool
(** [skip_labels t ~targets ~self label] is [true] when no target node is a
    proper descendant ([self = false]) or descendant-or-self ([self = true])
    of any summary node with that label — i.e. the whole subtree below any
    document node labeled [label] can be skipped when searching for the
    targets. Labels absent from the summary are skippable. *)

val is_element_label : string -> bool
(** Classifies by leading character: not ['@'], ['#'] or ['?']. *)

(** {2 Per-node path ids (path partitioning)} *)

val annotate : ?leaves:int array -> t -> Xqp_xml.Document.t -> int array
(** [annotate t doc] maps every document node to its summary node id ([-1]
    for text/comment/PI nodes) in one pre-order pass, which also checks
    [t] against [doc]: every path present, every count and text flag
    equal. @raise Failure naming the first disagreeing path, so a packed
    summary that does not describe its document never reaches a
    planner. [leaves] (length {!length}, zeroed) receives per summary node
    the number of text, comment and PI children over its instances. *)

(** {2 Serialization (used by Store_io)} *)

type row = { r_parent : int; r_label : int; r_count : int; r_flags : int }
(** One canonical-order node: [r_parent] is parent + 1 (0 = root level) so
    the encoding stays non-negative, [r_label] a caller-chosen symbol id,
    [r_flags] bit 0 = has_text. *)

val flag_text : int

val to_rows : t -> label_id:(string -> int) -> row array
val of_rows : row array -> label_of:(int -> string) -> t
(** Rebuild from serialized rows. @raise Failure on a malformed table
    (parent order, duplicate or unsorted siblings, bad flags). *)
