(** Per-operator execution profiles: the machinery behind
    [xqp explain --analyze].

    A profile is a list of {!row}s, one per plan operator, in execution
    order (an operator's base precedes it). {!rows_of_physical} produces
    the static half — operator labels, bound engines and the planner's
    estimated cardinalities; {!analyze} runs the plan under the default tracer and
    joins the recorded spans onto those rows by operator path, adding
    actual cardinality, wall-clock time and the I/O counter deltas. *)

type row = {
  path : string;  (** position in the plan tree: "0" is the whole plan,
                      children at ["<path>.<i>"] — the same scheme the
                      executor writes into span [path] attributes *)
  depth : int;    (** nesting depth (number of dots in [path]) *)
  op : string;    (** {!Xqp_algebra.Logical_plan.op_label} of the operator *)
  engine : string option;  (** for τ operators: the engine that ran it *)
  est_rows : float;        (** cost-model estimate of the output cardinality *)
  actual_rows : int option;   (** measured output cardinality ({!analyze} only) *)
  time_ms : float option;     (** inclusive wall-clock time ({!analyze} only) *)
  io : (string * int) list;   (** nonzero storage-counter deltas, e.g.
                                  [("pager.logical_reads", 410)] *)
}

val rows_of_physical : Physical_plan.t -> row list
(** Static rows read off a compiled plan: [engine] is the τ's bound
    engine and [est_rows] the planner's annotation — nothing is
    re-derived through the cost model. *)

val analyze_physical :
  Executor.t ->
  Physical_plan.t ->
  context:Xqp_xml.Document.node list ->
  Xqp_xml.Document.node list * row list
(** Run a compiled plan with tracing enabled on [Xqp_obs.Trace.default]
    and return the result nodes plus fully-populated rows. The tracer is
    cleared first (events recorded earlier are discarded) and its enabled
    flag restored afterwards; the run's events stay on the tracer until
    the next clear, so callers can still export them. *)

val analyze :
  Executor.t ->
  ?strategy:Executor.strategy ->
  Xqp_algebra.Logical_plan.t ->
  context:Xqp_xml.Document.node list ->
  Xqp_xml.Document.node list * row list
(** {!Executor.compile} (with [context_card] from the context length)
    followed by {!analyze_physical}. *)

type explain = {
  rendered : string;  (** the human-readable report *)
  cache : Executor.cache_status;
      (** whether {e this} compilation hit the shared plan cache *)
  estimate : float option;       (** estimated result rows (single-pattern plans) *)
  estimate_source : string option;  (** provenance: ["exact"]/["bound"]/["stats"] *)
  chosen : string;               (** cost-model engine choice, or ["navigation"] *)
  physical : Physical_plan.t;    (** the plan a query with the same options executes *)
}

val explain :
  Executor.t -> ?strategy:Executor.strategy -> ?optimize:bool -> ?use_cache:bool ->
  ?rewrites:bool -> string -> explain
(** The one explain report, behind [xqp explain] and [Session.explain]:
    parsed and optimized plans (plus each rewrite rule that fired, when
    [rewrites] is set), pattern graph, NoK partition, estimated rows
    with provenance, per-engine costs and the chosen engine, then this
    call's plan-cache outcome and the physical plan, compiled through
    {!Executor.prepare} with the same options a query takes ([optimize]
    default true).
    @raise Xqp_xpath.Parser.Parse_error on malformed input. *)

val pp_table : Format.formatter -> row list -> unit
(** Render rows as an aligned table (est/actual/time/IO columns are shown
    only when some row has them). *)
