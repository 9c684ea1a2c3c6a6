(** Navigational plan evaluation — the paper's navigational baseline
    ([10], Galax-style) and the executor's fallback for steps that no
    pattern-matching engine covers (upward axes, [text()] tests,
    positional predicates).

    Each step materializes its full result (sorted, deduplicated for
    forward axes) before the next step runs; predicates are evaluated per
    context node with XPath's sequential-filter semantics, so positional
    predicates see the list order of the axis. *)

type stats = { nodes_visited : int; steps_evaluated : int }

type hints
(** Summary-derived skip-ahead sets for descendant steps: subtrees rooted
    at a tag the {!Xqp_storage.Path_summary} proves cannot contain a
    matching node are jumped over ([subtree_end + 1]) instead of walked.
    Per-test skip sets are materialized lazily and cached inside the
    value, so reuse it across evaluations (the executor keeps one per
    statistics version). Results are identical with or without hints;
    only [engine.navigation.nodes_visited] shrinks (and
    [engine.navigation.skipped_subtrees] counts the jumps). *)

val make_hints : Xqp_xml.Document.t -> Xqp_storage.Path_summary.t -> hints
(** The summary must describe the given document. *)

val eval_plan :
  ?hints:hints ->
  Xqp_xml.Document.t ->
  Xqp_algebra.Logical_plan.t ->
  context:Xqp_xml.Document.node list ->
  Xqp_xml.Document.node list
(** Evaluate a plan. [Root] denotes the virtual document node; it never
    appears in results (a plan consisting only of [Root] yields the
    document element). [Tpm] nodes are evaluated with the reference τ
    (callers wanting a specific engine go through {!Executor}). *)

val eval_plan_with_stats :
  ?hints:hints ->
  Xqp_xml.Document.t ->
  Xqp_algebra.Logical_plan.t ->
  context:Xqp_xml.Document.node list ->
  Xqp_xml.Document.node list * stats

val test_matches :
  Xqp_xml.Document.t -> Xqp_algebra.Axis.t -> Xqp_algebra.Logical_plan.node_test ->
  Xqp_xml.Document.node -> bool
(** Node-test semantics shared with the pipelined evaluator: name tests see
    elements (attributes on the attribute axis), [text()] sees text nodes;
    the virtual document node passes only a bare [self::*]. *)

val axis_nodes_all :
  Xqp_xml.Document.t -> Xqp_algebra.Axis.t -> Xqp_xml.Document.node ->
  Xqp_xml.Document.node list
(** Like {!Xqp_algebra.Operators.axis_nodes} but including text, comment
    and PI nodes (needed by [text()] node tests). Accepts the virtual
    document node. *)

val steps_of_pattern :
  Xqp_algebra.Pattern_graph.t -> Xqp_algebra.Logical_plan.step list
(** Expand a pattern into navigational steps (spine to the first output;
    off-spine subtrees become existence predicates) — the Navigation
    strategy's compile-time expansion, and the plan the cost model
    simulates to predict {!stats.nodes_visited}. *)
