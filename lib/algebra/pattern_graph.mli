(** The [PatternGraph] sort (Definition 1): Σ, V, A, R, O.

    A pattern graph captures the structural and value constraints of one or
    more path expressions. Vertices carry a label (a tag or the wildcard)
    and a list of value predicates [(op, literal)]; arcs carry a binary
    structural relation; O marks the output vertices whose matches the τ
    operator returns.

    The patterns produced by the XPath compiler are tree-shaped (twigs);
    {!make} enforces that, since all the physical pattern-matching engines
    evaluate twigs. Vertex 0 is the {e context vertex} (the vertex the
    paper labels "root"): it binds to the evaluation context node — the
    document root for absolute paths — and is never an output. *)

type rel = Child | Descendant | Attribute | Following_sibling

type comparison = Eq | Ne | Lt | Le | Gt | Ge | Contains

type literal = Num of float | Str of string

type predicate = { comparison : comparison; literal : literal }
(** A value constraint on the matched node's typed (text) value. *)

type label = Wildcard | Tag of string

type vertex = { label : label; predicates : predicate list; output : bool }

type t

val make : vertices:vertex array -> arcs:(int * int * rel) list -> t
(** [make ~vertices ~arcs] builds a pattern rooted at vertex 0.
    @raise Invalid_argument if the arcs do not form a tree on the
    vertices (see {!validate}). *)

val vertex_count : t -> int
val vertex : t -> int -> vertex
val children : t -> int -> (int * rel) list
(** Outgoing arcs of a vertex, in insertion order. *)

val parent : t -> int -> (int * rel) option
(** Incoming arc; [None] for the root. *)

val root : t -> int
(** Always 0. *)

val outputs : t -> int list
(** Output vertices in vertex order; every pattern has at least one. *)

val arcs : t -> (int * int * rel) list

val is_nok : t -> bool
(** True when every arc is a local relation (Child, Attribute,
    Following_sibling) — a next-of-kin pattern evaluable in one
    navigational scan (§4.2). *)

val vertices_in_document_order : t -> int list
(** Pre-order traversal of the pattern tree. *)

val vertex_path : t -> int -> (rel * label) list
(** [vertex_path t v] is the arc relation and vertex label along the
    unique context-to-[v] path (patterns are trees), outermost first and
    empty for the context vertex. This is the pattern's projection onto a
    linear path — what a structural summary can answer about [v] while
    ignoring predicates and sibling branches. *)

val label_matches :
  Xqp_xml.Document.t -> label -> Xqp_xml.Document.node -> bool
(** Does a document node's name satisfy a label? (Wildcards match any
    element or attribute.) *)

val number_of_string : string -> float option
(** The number a node's text denotes: [float_of_string_opt (String.trim
    s)], bit for bit. Digits with at most one inner point (and blanks
    around them) are read without calling [strtod] — exactly, as one
    integer below 2^53 divided by a power of ten up to 10^22; every other
    string goes to [float_of_string_opt]. *)

val predicate_holds :
  Xqp_xml.Document.t -> predicate -> Xqp_xml.Document.node -> bool
(** Evaluate a value predicate against a node's typed value. A numeric
    literal compares with the number the value denotes
    ({!number_of_string}; a value that is no number satisfies only [!=],
    and never [contains]); a string literal compares as a string;
    [Contains] is substring search. Allocates nothing when the value is in
    {!number_of_string}'s fast grammar. *)

val predicate_holds_on : predicate -> string -> bool
(** {!predicate_holds} on a value already read. *)

val vertex_matches : Xqp_xml.Document.t -> t -> int -> Xqp_xml.Document.node -> bool
(** Label, node-kind (attribute vertices match attribute nodes) and all
    predicates. *)

val path : (rel * label * predicate list) list -> t
(** [path steps] chains [steps] into a linear pattern below the context
    vertex; the last vertex is the output. A leading
    [(Child, Tag "a", [])] therefore means [/a].
    @raise Invalid_argument on an empty step list. *)

val pp : Format.formatter -> t -> unit
(** XPath-like rendering, e.g. [/a//b[c][d = "5"]] with the output
    vertices marked. *)

val equal : t -> t -> bool

val fingerprint : t -> string
(** Stable injective serialization of the pattern's structure: two
    patterns have the same fingerprint exactly when {!equal} holds (up to
    the textual representation of float literals). Used for plan-cache
    keys and stable plan comparison — unlike {!pp}, which elides
    structure for readability. *)
