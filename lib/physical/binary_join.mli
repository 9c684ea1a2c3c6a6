(** Join-based twig evaluation: decompose a pattern graph into binary
    structural joins over tag-index streams (the extended-relational
    baseline of §5, [11–13], and the substrate of the join-order selection
    study [5]).

    Two evaluation modes:

    - {!match_pattern} — semijoin reduction: a bottom-up pass shrinks each
      vertex's candidate list to nodes whose subtree satisfies the pattern
      below, then a top-down pass removes nodes without a valid ancestor
      chain. For tree patterns the surviving candidates are exactly the
      nodes participating in at least one embedding, so output projection
      is direct and intermediate results stay linear.
    - {!evaluate_with_order} — full binary joins in a caller-chosen arc
      order, materializing intermediate tuple relations. This is the mode
      whose cost depends heavily on the join order (experiment E5). *)

type doc = Xqp_xml.Document.t
type node = Xqp_xml.Document.node

val supported : Xqp_algebra.Pattern_graph.t -> bool
(** Always true: every arc relation has a binary structural join. The
    planner's capability predicate for this engine. *)

val candidates :
  ?content_index:Content_index.t ->
  doc -> Xqp_algebra.Pattern_graph.t -> context:node list -> int -> node array
(** Initial candidate stream for a vertex: tag-index nodes satisfying label
    and value predicates (document order); the supplied context for
    vertex 0. With [?content_index], a vertex carrying a covered value
    predicate starts from the index lookup instead of the tag stream. *)

val stream :
  ?content_index:Content_index.t ->
  doc -> Xqp_algebra.Pattern_graph.t -> context:node list -> int -> node array * int
(** {!candidates} plus the number of elements examined to build the
    stream (the tag stream, index hits or every node, before filtering) —
    the stream-building work unit of the cost model. *)

val match_pattern :
  ?content_index:Content_index.t ->
  doc -> Xqp_algebra.Pattern_graph.t -> context:node list -> (int * node list) list
(** Per-output-vertex match sets (same contract as
    {!Xqp_algebra.Operators.pattern_match}). *)

val index_answerable : Xqp_algebra.Pattern_graph.t -> bool
(** Some vertex carries a string predicate the content index answers
    ([=], [<=], [>=] against a string literal): the planner binds the
    semijoin engine with the index exactly then. *)

type semijoin_stats = {
  streamed : int;  (** elements examined to build the candidate streams *)
  scanned : int;   (** Σ input-list lengths over all semijoin passes *)
}

val match_pattern_with_stats :
  ?content_index:Content_index.t ->
  doc ->
  Xqp_algebra.Pattern_graph.t ->
  context:node list ->
  (int * node list) list * semijoin_stats

type order_stats = {
  intermediate_tuples : int;  (** sum of relation sizes after each join *)
  peak_tuples : int;
  joins : int;
}

val evaluate_with_order :
  doc ->
  Xqp_algebra.Pattern_graph.t ->
  context:node list ->
  order:(int * int) list ->
  (int * node list) list * order_stats
(** [evaluate_with_order doc pg ~context ~order] runs the binary joins in
    [order] (a permutation of the pattern's arcs as (source, target) pairs;
    each arc after the first must share a vertex with those already
    joined).
    @raise Invalid_argument on a disconnected or incomplete order. *)

val default_order : Xqp_algebra.Pattern_graph.t -> (int * int) list
(** The pattern's arcs in pre-order (a valid connected order). *)

val all_orders : Xqp_algebra.Pattern_graph.t -> (int * int) list list
(** Every connected permutation of the arcs (for the join-order study;
    exponential — use on small patterns). *)
