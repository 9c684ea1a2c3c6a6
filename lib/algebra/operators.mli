(** Reference implementations of the algebra's operators (Table 1).

    These are the executable {e specification}: straightforward,
    obviously-correct definitions over the packed document. The physical
    layer provides the fast implementations (tag-index scans, stack-tree
    structural joins, holistic twig joins, NoK navigation); every physical
    engine is differential-tested against this module. *)

type doc = Xqp_xml.Document.t
type node = Xqp_xml.Document.node

val document_context : node
(** The virtual document node ([-1]): the parent of the root element, used
    as the context of absolute paths so that [/bib] means "a child of the
    document named bib". Accepted as a context by {!axis_nodes},
    {!pattern_match} and friends; never returned as a result. *)

(** {1 Structure-based operators} *)

val select_tag : doc -> string -> node list -> node list
(** σs: keep the nodes whose tag name equals the given name. *)

val navigate_axis : doc -> Axis.t -> node list -> node Nested_list.t
(** πs: tree navigation along an axis. The result is a nested list with one
    group per input node (the per-context grouping that makes πs return
    [NestedList] rather than [List] in Table 1). *)

val axis_nodes : doc -> Axis.t -> node -> node list
(** Nodes reachable from one context node along an axis, in axis order
    (document order for forward axes, reverse for backward ones). *)

val structural_join : doc -> Pattern_graph.rel -> node list -> node list -> (node * node) list
(** ⋈s: all pairs [(a, d)] from the two lists standing in the given
    structural relation, by nested loops; output sorted by (left, right)
    document order. *)

(** {1 Value-based operators} *)

val select_value : doc -> Pattern_graph.predicate -> node list -> node list
(** σv: keep the nodes whose typed value satisfies the predicate. *)

val value_join :
  doc -> Pattern_graph.comparison -> node list -> node list -> (node * node) list
(** ⋈v: pairs whose typed values compare as requested. *)

(** {1 Hybrid operators} *)

val arc_candidates : doc -> Pattern_graph.rel -> node -> node list
(** The nodes one pattern arc reaches from a bound node, in document
    order: children (content only), attributes, descendants (no
    attributes) or following siblings — none from an attribute, which has
    no siblings. From {!document_context}: the root element, or every
    element. *)

val pattern_match : doc -> Pattern_graph.t -> context:node list -> (int * node list) list
(** τ, projected per output vertex: for each output vertex of the pattern,
    the distinct document-ordered list of nodes for which {e some} full
    embedding of the pattern exists with the context vertex bound to one
    of [context]. This per-vertex node-set view is the common currency of
    all pattern-matching engines. *)

val pattern_match_nested : doc -> Pattern_graph.t -> context:node list -> node Nested_list.t
(** τ with the paper's full output: matched output nodes grouped by their
    structural relationships in the input tree — two nodes are immediately
    nested iff one is the nearest matched ancestor of the other. *)

val embeddings : doc -> Pattern_graph.t -> context:node list -> node array list
(** All embeddings (vertex → node assignments satisfying every arc, label
    and predicate), index [v] holding vertex [v]'s image. Exponential in
    the worst case; meant for tests and small inputs. *)

val construct :
  doc -> Value.item Nested_list.t -> Schema_tree.t -> Xqp_xml.Tree.t list
(** γ: fold a schema tree over a nested list of items, producing output
    trees. [For_group] iterates the groups of the current level;
    [Placeholder i] deep-copies component [i] of the current group (a node
    becomes its subtree; an atomic becomes text). *)
