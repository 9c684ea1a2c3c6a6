(** Per-operator execution profiles: the machinery behind
    [xqp explain --analyze], [xqp query --request-trace], slow-query
    captures and the QMET bench.

    A profile is a list of {!row}s, one per plan operator, in execution
    order (an operator's base precedes it). {!rows_of_physical} produces
    the static half — operator labels, bound engines and the planner's
    estimated cardinalities; {!rows_of_spans} joins the operator spans one
    run recorded ({!Executor.run_physical}, DESIGN.md §7) onto those rows
    by operator path, adding actual cardinality, wall-clock time and
    q-error. The spans are the only per-operator
    record; every measured row comes out of {!rows_of_spans}. *)

type row = Xqp_obs.Op_row.t = {
  path : string;
  depth : int;
  op : string;
  engine : string option;
  est_rows : float;
  actual_rows : int option;
  time_ms : float option;
  q_error : float option;
}
(** {!Xqp_obs.Op_row.t}, which documents the fields and renders rows
    ({!Xqp_obs.Op_row.pp_table}, {!Xqp_obs.Op_row.to_json}). *)

val rows_of_physical : Physical_plan.t -> row list
(** Static rows read off a compiled plan: [engine] is the τ's bound
    engine and [est_rows] the planner's annotation — nothing is
    re-derived through the cost model. *)

val rows_of_spans : Physical_plan.t -> Xqp_obs.Trace.event list -> row list
(** {!rows_of_physical} with each row's measured half read off the span
    whose [path] attribute matches (the latest one, if several runs share
    the events): [actual_rows] from [out], [time_ms] from the span's
    duration, [engine] from [engine], and [q_error] for τ and Step
    rows. Rows with no matching span
    stay static. *)

val analyze_physical :
  Executor.t ->
  Physical_plan.t ->
  context:Xqp_xml.Document.node list ->
  Xqp_xml.Document.node list * row list * Xqp_obs.Trace.event list
(** Run a compiled plan under a fresh tracer of its own and return the
    result nodes, the measured rows and the recorded spans (for export).
    No other tracer — {!Xqp_obs.Trace.default} included — is touched. *)

val analyze :
  Executor.t ->
  ?strategy:Executor.strategy ->
  Xqp_algebra.Logical_plan.t ->
  context:Xqp_xml.Document.node list ->
  Xqp_xml.Document.node list * row list
(** {!Executor.compile} (with [context_card] from the context length)
    followed by {!analyze_physical}, without the spans. *)

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
