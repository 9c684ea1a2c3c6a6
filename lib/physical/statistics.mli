(** Document statistics for cardinality estimation (§2's cost-model
    prerequisite, implemented here as the paper's planned extension).

    Everything derives from the document's {!Xqp_storage.Path_summary}:
    per-tag node counts, parent-child and ancestor-descendant tag-pair
    counts (exact — every node lies on exactly one root path), plus depth
    and fan-out. A packed store carries its summary, so opening one
    derives statistics without any per-node tag scan. *)

type t

val of_summary : ?doc:Xqp_xml.Document.t -> Xqp_storage.Path_summary.t -> t
(** The one constructor. Tag, parent/child and ancestor/descendant counts
    are exact for elements and attributes in both modes.

    With [doc] (the summary's own document — a packed store's summary on
    open): [node_count], [avg_fanout] (content children per element: n − 1
    − attributes over the element count), [max_depth] and per-node
    [path_id]s are exact, and the pass that assigns the path ids checks
    the summary against [doc] — @raise Failure on a missing path or a
    differing count or text flag ({!Xqp_storage.Path_summary.annotate}).

    Without [doc] (a corpus planning off its catalog's merged summary):
    text/comment/PI populations are invisible to a summary, so
    [node_count] undercounts them (it is the element + attribute count),
    fan-out counts attribute rows rather than text children, [max_depth]
    ignores comments and PIs, and [path_id] is [-1] for every node — the
    instance plans, it never executes. *)

val build : Xqp_xml.Document.t -> t
(** Statistics of parsed XML: [of_summary ~doc (Path_summary.of_document
    doc)]. *)

val tag_count : t -> string -> int
(** Number of element/attribute nodes with a tag. *)

val element_count : t -> int
val node_count : t -> int
val max_depth : t -> int
val avg_fanout : t -> float

val parent_child_count : t -> parent:string -> child:string -> int
(** Number of (parent, child) element pairs with these tags (children
    include attributes). *)

val ancestor_descendant_count : t -> ancestor:string -> descendant:string -> int

val estimate_rel :
  t -> Xqp_algebra.Pattern_graph.rel -> parent:Xqp_algebra.Pattern_graph.label ->
  child:Xqp_algebra.Pattern_graph.label -> float
(** Estimated number of pairs standing in the relation (wildcards sum over
    tags). *)

val predicate_selectivity : Xqp_algebra.Pattern_graph.predicate -> float
(** Heuristic selectivity of a value predicate (equality 0.1, ranges 0.33,
    inequality 0.9, contains 0.5). *)

val estimate_vertex_cardinality :
  t -> Xqp_algebra.Pattern_graph.t -> int -> float
(** Estimated number of distinct document nodes matching a pattern vertex
    within some embedding: top-down product of per-arc selectivities under
    independence, capped by the vertex's tag count. The context vertex
    estimates to 1. *)

(** {2 Path-summary synopsis}

    With a document, statistics also carry the per-node path partition
    (node → summary node). Downward linear
    paths are answered {e exactly} from the summary; twigs get an exact
    spine count scaled by branch-existence factors, still bounded above by
    the spine count. *)

type source =
  | Exact  (** summed path counts, no approximation *)
  | Bound  (** summary spine count scaled by branch/predicate factors *)
  | Stats  (** legacy tag-pair estimator (summary not applicable) *)

val source_label : source -> string
val summary : t -> Xqp_storage.Path_summary.t
val leaf_children : t -> int -> float
(** Text, comment and PI children summed over every instance of a summary
    node — exact with the document, one per instance of a path with text
    without it. *)

val path_id : t -> Xqp_xml.Document.node -> int
(** Summary node of a document node ([-1] for text/comment/PI). *)

val vertex_steps :
  Xqp_algebra.Pattern_graph.t -> int -> Xqp_storage.Path_summary.step list option
(** Projection of a pattern vertex's context-to-vertex path onto summary
    steps; [None] when an arc is not downward (following-sibling). *)

val vertex_summary_nodes :
  ?from:int list -> t -> Xqp_algebra.Pattern_graph.t -> int -> int list option
(** Summary nodes matching a vertex's projected path, from the document
    context by default. *)

val pattern_certainly_empty : ?anywhere:bool -> t -> Xqp_algebra.Pattern_graph.t -> bool
(** No document node can match some vertex's projected path, so the
    pattern's result is empty whatever the predicates say. [~anywhere:true]
    evaluates from every summary node instead of the document root — the
    sound test when the evaluation context is not the root. *)

val pattern_upper_bound : t -> Xqp_algebra.Pattern_graph.t -> float option
(** Sound upper bound on the result cardinality: the output vertex's
    summed path count ignores predicates and branches, both of which only
    filter. [None] when the output path is not projectable. *)

val estimate_result_detail : t -> Xqp_algebra.Pattern_graph.t -> float * source
val estimate_result : t -> Xqp_algebra.Pattern_graph.t -> float
(** Estimated output-vertex cardinality (the first output vertex):
    summary-based when the output path projects onto the summary, the
    legacy estimator otherwise. *)

val estimate_result_stats : t -> Xqp_algebra.Pattern_graph.t -> float
(** The pre-summary estimator ({!estimate_vertex_cardinality} of the
    output), kept for before/after comparison. *)

val pp : Format.formatter -> t -> unit
