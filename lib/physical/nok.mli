(** NoK pattern matching — the paper's navigational physical operator
    (§4.2), compiled into a kernel over the {!Xqp_xml.Document} arrays.

    A general pattern is partitioned ({!Nok_partition}) into NoK
    fragments (only local relationships: child, attribute,
    following-sibling) joined by ancestor-descendant links. Per call,
    each vertex test is resolved once to a symbol id (or a wildcard) and
    a node kind. A fragment root's candidates are read from the
    document's tag stream ({!Xqp_xml.Document.nodes_by_name_array}),
    after the optional summary prune; a candidate is kept when its local
    twig embeds below it, checked by scanning pre-order ranges, with each
    existence branch stopping at its first witness. Links are joined over
    sorted int arrays, the hybrid of navigational and join-based
    evaluation the paper proposes. Outputs are appended in document order
    to {!Xqp_xml.Node_set} buffers; no per-node step allocates.

    {!Nok_paged} runs the older cursor-based matcher ({!Nok_engine}) over
    the disk-resident store. *)

type stats = {
  nodes_visited : int;
      (** fragment-root candidates read from the tag streams (or the
          context), plus every node a local arc scan looked at *)
  fragment_matches : int;  (** fragment-root candidates whose twig embeds *)
  join_pairs : int;  (** link targets the top-down link joins kept *)
}

val supported : Xqp_algebra.Pattern_graph.t -> bool
(** Always true: the partitioner splits any twig into NoK fragments and
    the link joins recombine them. The planner's capability predicate for
    this engine. *)

val match_pattern :
  ?prune:(int -> (Xqp_xml.Document.node -> bool) option) ->
  ?deadline:float ->
  ?limit:int ->
  Xqp_xml.Document.t ->
  Xqp_algebra.Pattern_graph.t ->
  context:Xqp_xml.Document.node list ->
  (int * Xqp_xml.Node_set.t) list
(** Per-output-vertex match sets (the contract of
    {!Xqp_algebra.Operators.pattern_match}, as node sets). [?prune] maps
    a pattern vertex to an optional node filter (path-partition
    membership from the path summary); fragment-root candidate streams
    drop nodes failing it before any scan. Filters must be sound —
    rejecting only nodes that cannot occur in any embedding. [?deadline]
    (an absolute [Unix.gettimeofday] instant) is checked once per 256
    fragment-root candidates, the first included.

    [?limit] ([>= 1]) cuts a single-output pattern's set to its first
    [limit] bindings, and stops the kernel once no later work can
    precede them. That happens when the output's fragment is the
    document fragment, or hangs off vertex 0 while [context] is the
    document node: the fragment then stops taking root candidates once
    the output holds [limit] bindings that all precede the next
    candidate, and, when every vertex from its root down to the output
    has a single binding arc (child or attribute), stops a root's scans
    after [limit] of that root's bindings. [exists]/[first] on
    [/site/people/person] or [//item[quantity > 1]] touch a handful of
    nodes. Any other shape runs to completion before the cut.
    @raise Deadline.Exceeded (= [Executor.Deadline_exceeded]) past it.
    @raise Invalid_argument when [limit < 1]. *)

val match_pattern_with_stats :
  ?prune:(int -> (Xqp_xml.Document.node -> bool) option) ->
  ?deadline:float ->
  ?limit:int ->
  Xqp_xml.Document.t ->
  Xqp_algebra.Pattern_graph.t ->
  context:Xqp_xml.Document.node list ->
  (int * Xqp_xml.Node_set.t) list * stats
(** {!match_pattern} and the kernel's counts, which are also added to the
    [engine.nok.*] counters once per call. *)
