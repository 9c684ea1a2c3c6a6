(** Operator cost model — the basis for choosing among physical
    implementations of τ (§2: "a cost model is also needed as a basis of
    choosing the optimal physical query plan").

    Costs are estimated time. Each engine is costed in the work units its
    own [*_with_stats] counts ({!unit_names}), predicted from the path
    summary ({!estimate_units}); per-unit nanosecond weights fitted by
    least squares against measured engine time ([xqp calibrate --cost],
    checked in as {!Cost_weights}) turn the units into nanoseconds.
    [Auto] binds the engine with the least estimated time. *)

type engine =
  | Naive_nav      (** step-at-a-time navigation over the DOM *)
  | Nok_navigation (** NoK fragments over the document arrays + link joins *)
  | Twig_join      (** holistic twig join over tag streams *)
  | Binary_joins   (** binary structural semijoins *)

val all_engines : engine list
val engine_name : engine -> string

val supports : Xqp_algebra.Pattern_graph.t -> engine -> bool
(** TwigStack rejects sibling arcs; the others accept any pattern. *)

val unit_names : engine -> string array
(** The engine's work units, in the order of {!estimate_units} and of
    the fitted weights in {!Cost_weights}: navigation [nodes_visited]; NoK [nodes_visited],
    [join_pairs]; TwigStack [streamed] (elements examined to build the
    candidate streams), [pushes], [path_solutions]; binary [streamed],
    [scanned]. *)

val estimate_units :
  Statistics.t -> Xqp_algebra.Pattern_graph.t -> engine -> float array
(** Predicted work units for evaluating the pattern from the document
    root. Navigation simulates its step plan over the path summary,
    skip-ahead included, so downward chains are exact. *)

val cost_of_units : engine -> float array -> float
(** Fitted weights · units: nanoseconds. Applied to counted units
    ([Executor.count_units]) it is the fitted model's reading of a run. *)

val estimate : Statistics.t -> Xqp_algebra.Pattern_graph.t -> engine -> float
(** Estimated nanoseconds: {!cost_of_units} of {!estimate_units}. *)

val costs : Statistics.t -> Xqp_algebra.Pattern_graph.t -> (engine * float) list
(** {!estimate} of every engine that supports the pattern. *)

val choose : Statistics.t -> Xqp_algebra.Pattern_graph.t -> engine
(** Least {!estimate} among the engines that support the pattern: what
    [Auto] binds. *)

val estimate_plan :
  Statistics.t -> ?context_card:float -> ?use_summary:bool ->
  Xqp_algebra.Logical_plan.t -> float
(** Estimated output {e cardinality} (not cost) of a plan's top operator.
    While the chain from [Root] stays within downward axes, the path
    summary answers each operator exactly (summed path counts); predicates
    degrade the estimate to an upper bound; unprojectable axes or unknown
    contexts fall back to the legacy tag-pair statistics scaled by
    predicate selectivities ([Context] estimates to [context_card],
    default 1). [~use_summary:false] forces the legacy estimator
    throughout (the PSUM before/after comparison). The "est" column of
    [xqp explain] and the baseline of [xqp calibrate]'s q-error. *)

val estimate_plan_detail :
  Statistics.t -> ?context_card:float -> ?use_summary:bool ->
  Xqp_algebra.Logical_plan.t -> float * Statistics.source
(** {!estimate_plan} plus the estimate's provenance. *)

val plan_certainly_empty : Statistics.t -> Xqp_algebra.Logical_plan.t -> bool
(** The summary proves the plan's result empty (estimate 0 with [Exact]
    provenance) — the planner's licence to compile an [Empty] operator. *)

val estimate_join_order :
  Statistics.t -> Xqp_algebra.Pattern_graph.t -> (int * int) list -> float
(** Estimated cost of a specific binary-join order: Σ per join of (left
    stream + right stream + estimated intermediate tuples), the objective
    of join-order selection [5]. *)

val best_join_order :
  Statistics.t -> Xqp_algebra.Pattern_graph.t -> (int * int) list
(** Connected order minimizing {!estimate_join_order} (exhaustive over
    {!Binary_join.all_orders}; patterns are small). *)
