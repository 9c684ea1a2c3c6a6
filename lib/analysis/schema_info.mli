(** Element-structure summaries for schema-aware emptiness analysis.

    A summary records which element names occur, which parent→child element
    edges exist, which attributes each element carries, and which element
    names can be the document root. {!Plan_check} propagates sets of
    possible context names through a plan against a summary and flags name
    tests that are unsatisfiable — the static counterpart of the paper's
    schema-tree-guided construction (§3.2).

    Summaries come from document instances (the workload generators'
    output), merged, and are exact. *)

type t

val empty : t

val of_document : Xqp_xml.Document.t -> t
(** Summarize a document instance. *)

val merge : t -> t -> t
(** Union of two summaries (e.g. the auction and bib workload shapes). *)

val has_element : t -> string -> bool
val has_attribute : t -> string -> bool
(** The attribute name occurs on some element. *)

val roots : t -> string list

val descendant_of : t -> parents:string list -> string -> bool
(** Can an element with the given name appear strictly below {e some}
    element in [parents]? *)

val child_of : t -> parents:string list -> string -> bool
val attribute_on : t -> parents:string list -> string -> bool

val all_children : t -> parents:string list -> string list
(** All possible child element names below [parents]. *)

val all_descendants : t -> parents:string list -> string list

val element_count : t -> int
val pp : Format.formatter -> t -> unit
