(** The physical planner: logical plan → {!Physical_plan.t}.

    [compile] resolves every τ to a concrete engine — [Auto] through the
    cost model, explicit strategies through the capability fallback chain
    (PathStack → TwigStack → binary semijoin) — bakes in the decisions
    that used to be made at run time (Navigation step expansion,
    binary-join order, content-index use) and annotates every operator
    with its estimated output cardinality. Compilation is deterministic:
    the same statistics and plan always produce {!Physical_plan.equal}
    results. *)

val supports : Physical_plan.strategy -> Xqp_algebra.Pattern_graph.t -> bool
(** One capability predicate per engine, delegating to the engine
    modules' own [supported] ({!Path_stack.supported},
    {!Twig_stack.supported}, …) — the same predicates
    {!Cost_model.supports} consults. [Reference], [Navigation] and [Auto]
    accept any pattern. *)

val compile_tau :
  ?choose:(Xqp_algebra.Pattern_graph.t -> Cost_model.engine) ->
  Statistics.t ->
  Physical_plan.strategy ->
  Xqp_algebra.Pattern_graph.t ->
  Physical_plan.tau
(** Bind one pattern to the engine that will actually run it — [Auto]
    resolved through [choose], then the fallback chain for patterns the
    requested engine cannot evaluate — with baked-in join order / step
    expansion / index decision and cost-model estimate. [choose] defaults
    to [Cost_model.choose stats] (executors pass their memoized chooser). *)

val compile :
  ?strategy:Physical_plan.strategy ->
  ?context_card:float ->
  ?choose:(Xqp_algebra.Pattern_graph.t -> Cost_model.engine) ->
  Statistics.t ->
  Xqp_algebra.Logical_plan.t ->
  Physical_plan.t
(** Compile a whole plan (default strategy [Auto]; [context_card] seeds
    the cardinality of [Context], default 1). *)
