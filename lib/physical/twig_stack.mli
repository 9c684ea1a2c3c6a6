(** TwigStack — the holistic twig join of Bruno, Koudas and
    Srivastava [13], the strongest join-based baseline (§5).

    Phase 1 streams every pattern vertex's candidate list in document order
    through a set of linked stacks; [get_next] only pushes nodes that head
    a root-to-leaf solution, which bounds intermediate results for
    all-descendant twigs. Each leaf push emits the root-to-leaf path
    solutions encoded by the stacks. Phase 2 merge-joins the per-leaf path
    solutions on their shared branch vertices to assemble full twig
    matches, projected onto the pattern's output vertices.

    The context vertex participates as an ordinary stream (the sorted
    context nodes; the virtual document node spans everything), so both
    absolute and relative patterns run through the same machinery. *)

type stats = {
  streamed : int;         (** elements examined to build the candidate streams *)
  pushes : int;           (** stack pushes across all vertices *)
  path_solutions : int;   (** root-to-leaf solutions emitted by phase 1 *)
  merged_solutions : int; (** full twig matches after phase 2 *)
}

val supported : Xqp_algebra.Pattern_graph.t -> bool
(** No sibling arcs: the linked-stack encoding covers ancestor/descendant
    (and child/attribute) containment only. The planner's capability
    predicate for this engine. *)

val match_pattern :
  Xqp_xml.Document.t ->
  Xqp_algebra.Pattern_graph.t ->
  context:Xqp_xml.Document.node list ->
  (int * Xqp_xml.Document.node list) list
(** Per-output-vertex match sets (same contract as
    {!Xqp_algebra.Operators.pattern_match}).
    @raise Invalid_argument when the pattern is not {!supported}. *)

val match_pattern_with_stats :
  Xqp_xml.Document.t ->
  Xqp_algebra.Pattern_graph.t ->
  context:Xqp_xml.Document.node list ->
  (int * Xqp_xml.Document.node list) list * stats
