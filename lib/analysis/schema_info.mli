(** Element-structure summaries for schema-aware emptiness analysis.

    A summary records which element names occur, which parent→child element
    edges exist, which attributes each element carries, and which element
    names can be the document root. {!Plan_check} propagates sets of
    possible context names through a plan against a summary and flags name
    tests that are unsatisfiable — the static counterpart of the paper's
    schema-tree-guided construction (§3.2).

    Summaries come from document instances (the workload generators'
    output), merged, and are exact. The queries below answer [None] for an
    {e open} element, one whose content is not statically known, so the
    analysis never reports a false emptiness; no document summary has
    one. *)

type t

val empty : t

val of_document : Xqp_xml.Document.t -> t
(** Summarize a document instance (exact: no open elements). *)

val merge : t -> t -> t
(** Union of two summaries (e.g. the auction and bib workload shapes). *)

val has_element : t -> string -> bool
val has_attribute : t -> string -> bool
(** The attribute name occurs on some element. *)

val roots : t -> string list

val children_of : t -> string -> string list option
(** Child element names of the given element; [None] when the element is
    open (statically unknown content). *)

val descendant_of : t -> parents:string list -> string -> bool
(** Can an element with the given name appear strictly below {e some}
    element in [parents]? Openness propagates: below an open element
    everything is reachable. *)

val child_of : t -> parents:string list -> string -> bool
val attribute_on : t -> parents:string list -> string -> bool

val all_children : t -> parents:string list -> string list option
(** All possible child element names below [parents]; [None] = unbounded. *)

val all_descendants : t -> parents:string list -> string list option

val element_count : t -> int
val pp : Format.formatter -> t -> unit
