(** Plan execution: a thin driver over compiled {!Physical_plan}s.

    An executor bundles a packed document with the lazily-built artifacts
    around it (the succinct store, statistics for the cost model, the
    content index, navigation hints). It is safe to share across
    domains: each artifact is a {!Once} cell, built at most once by the
    first domain that asks and read with one atomic load after that
    (DESIGN.md §11). All planning — engine selection, join
    orders, fallbacks, estimates — happens once in {!compile} (via
    {!Planner}); {!run_physical} just interprets the resulting IR, never
    consulting the cost model or resolving [Auto]. {!prepare} is the one
    cached compile: it memoizes compiled plans in a process-wide
    {!Plan_cache}, so repeated queries skip parsing, rewriting and
    costing entirely; {!execute} runs what it returns. *)

type t

type strategy = Physical_plan.strategy =
  | Reference   (** the algebra's executable specification *)
  | Navigation  (** naive navigational evaluation (τ expanded to steps) *)
  | Nok         (** the NoK kernel over the document arrays *)
  | Pathstack   (** holistic path join on chains; TwigStack fallback *)
  | Twigstack
  | Binary_default (** binary structural joins, arcs in pattern order *)
  | Binary_best    (** binary joins in the cost-model-chosen order *)
  | Auto           (** cost-model choice per pattern, resolved at compile time *)

val create : ?pager:Xqp_storage.Pager.t -> Xqp_xml.Document.t -> t
(** Store and statistics are built lazily on first use. When [pager] is
    given, the succinct store charges its accesses to it ([pager.*] in
    [Xqp_obs.Metrics.default]). No τ engine reads the succinct store —
    NoK and the others run on the document — so query execution itself
    counts no pager I/O; the paged store ({!Nok_paged}) is where page
    I/O is measured. *)

val of_packed : path:string -> string -> t
(** Open a packed store image ({!Xqp_storage.Store_io.to_bytes}; [path]
    labels errors) — the one open path behind [Session.open_db], corpus
    shards and the CLI. The document is built straight from the loaded
    store ({!Xqp_storage.Succinct_store.to_document}); {!statistics}
    derive from the packed path summary ({!Statistics.of_summary}
    [~doc]), recounted against the document before anything plans off
    it. Queries run on the document, so the loaded store is not kept:
    {!store} rebuilds it from the document on first use, byte-identical
    to the image's store.
    @raise Failure on a corrupt image, including a summary whose paths,
    counts or text flags disagree with the document. *)

val create_planner : ?stats_version:int -> Statistics.t -> t
(** A planning-only executor with injected statistics (typically
    {!Statistics.of_summary} over a catalog's merged summary) and a
    placeholder document: compile against it, never execute on it —
    corpus sessions run the compiled plan on per-document executors.
    [stats_version] (default 0; every other executor keeps 0, since its
    document never changes) becomes the plan-cache key component, so a
    repacked catalog with a new merged stats version misses the cache as
    it must. *)

val id : t -> int
(** Process-unique identity of this executor (and hence its document) —
    the [doc_id] component of {!Plan_cache.key}s. *)

val verify_plans : bool Atomic.t
(** Debug gate: when set, {!run_physical} checks every compiled plan with
    {!Xqp_analysis.Lint.check_physical} (sort inference over the logical
    erasure against the actual context-node kinds, plus per-τ binding
    invariants) and raises {!Ill_sorted} instead of executing an
    ill-formed plan. Initialized from the [XQP_VERIFY_PLANS] environment
    variable ([1]/[true]/[yes]). *)

exception Ill_sorted of string
(** Raised under {!verify_plans}; the message is the rendered diagnostic
    report. *)

exception Deadline_exceeded
(** Raised by {!run_physical} (and everything layered on it) when the
    [?deadline] passes: the drive loop checks cooperatively before every
    operator, navigation ({!Navigation.eval_plan}: [Step]s and the
    [Navigation_steps] τ) once per 256 context nodes of a step, and the
    NoK kernel once per 256 fragment-root candidates, so a runaway query
    surfaces as this exception rather than holding its domain
    indefinitely. The other τ engines are not interrupted mid-match. *)

val check_deadline : float option -> unit
(** [check_deadline (Some d)] raises {!Deadline_exceeded} when
    [Unix.gettimeofday () > d]; [None] is free. Exposed so cooperative
    layers above the executor (the XQuery interpreter, the server) share
    one clock and one exception. *)

val engine_cache_length : t -> int
val engine_cache_capacity : t -> int
(** The memo of [Auto]'s engine choice per distinct pattern is an LRU
    bounded at the shared plan cache's capacity. *)

val doc : t -> Xqp_xml.Document.t
val store : t -> Xqp_storage.Succinct_store.t
val statistics : t -> Statistics.t

val content_index : t -> Content_index.t
(** The value index over attribute and simple-element content (built
    lazily; the binary-join engine consults it for covered string
    predicates). *)

val compile :
  t -> ?strategy:strategy -> ?context_card:float -> Xqp_algebra.Logical_plan.t ->
  Physical_plan.t
(** Compile a logical plan as given (no rewriting, no caching):
    {!Planner.compile} with this executor's statistics and memoized
    engine chooser. *)

type cache_status = Cache_hit | Cache_miss | Cache_bypassed
(** How a compiled plan was obtained, observed on the call's own cache
    lookup (never inferred from the global counters, so concurrent
    domains cannot mis-attribute). *)

val cache_status_label : cache_status -> string
(** ["hit"] / ["miss"] / ["bypassed"] — the strings the JSON response
    schema and [explain] print. *)

type source =
  | Query of string  (** XPath text *)
  | Plan of Xqp_algebra.Logical_plan.t  (** a logical plan value *)

type compiled = {
  physical : Physical_plan.t;
  fingerprint : string;
      (** {!Xqp_algebra.Logical_plan.fingerprint} of the plan that was
          compiled — the flight recorder's aggregation key. Computed once
          at compile time and stored in the plan cache, so on the cache
          hits that dominate a warm server it costs a projection, not a
          plan render (DESIGN.md §13). *)
  cache : cache_status;  (** this call's own cache outcome *)
}

val prepare :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool -> source -> compiled
(** The one cached compile. [Query] text is parsed, rewritten
    ([optimize], default true: R0+R1/R2; otherwise R0 only) and keyed by
    the text. A [Plan] compiles as given unless [optimize] is set
    (default false) and is keyed by its fingerprint, so a hit also skips
    the rewriting. [use_cache] (default true) set to false compiles
    afresh and reports [Cache_bypassed]. *)

val compile_query_info :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool -> string ->
  Physical_plan.t * cache_status
(** [prepare (Query text)] projected to its plan and cache status — the
    compile probe of [perfbench/xbench.ml]; other callers use {!prepare}. *)

val run_physical :
  t -> ?deadline:float -> ?limit:int -> ?trace:Xqp_obs.Trace.t ->
  Physical_plan.t -> context:Xqp_xml.Document.node list ->
  Xqp_xml.Document.node list
(** Interpret a compiled plan: each operator gets a span (when [trace] —
    default {!Xqp_obs.Trace.default} — is enabled) carrying its tree
    [path], the IR's [est] annotation, input/output cardinalities and
    the bound [engine] for τ. Passing a request-scoped [trace] keeps
    concurrent requests' span trees isolated (DESIGN.md §13). These
    spans are the only per-operator record: {!Profile.rows_of_spans}
    reads the profile rows off them. Dispatch reads the baked-in
    bindings only — no cost model, no [Auto], no fallback decisions at
    run time. [deadline] is an absolute [Unix.gettimeofday] instant; past
    it the run raises {!Deadline_exceeded} at the next cooperative
    check.

    [limit] ([>= 1]) returns only the first [limit] nodes of the result.
    A plan that is one τ from the document root bound to the NoK kernel
    passes it to {!Nok.match_pattern}, which stops as soon as no later
    work can precede those nodes, and a plan that is one navigational
    step from the document root passes it to {!Navigation.eval_plan};
    any other plan runs in full and is cut. [Session.first]/[exists] run with [limit = 1]. *)

val run_pattern :
  t -> strategy -> Xqp_algebra.Pattern_graph.t ->
  context:Xqp_xml.Document.node list -> (int * Xqp_xml.Document.node list) list
(** Evaluate τ with a specific engine (per-output-vertex sets): binds the
    pattern with {!Planner.compile_tau} and dispatches. *)

val count_units : t -> Cost_model.engine -> Xqp_algebra.Pattern_graph.t -> float array
(** Run the engine [Auto] binds for this cost-model engine on the pattern
    from the document root and return the work units it counted, in
    {!Cost_model.unit_names} order — the truth {!Cost_model.estimate_units}
    predicts and [xqp calibrate --cost] fits time to.
    @raise Invalid_argument when the engine does not support the pattern. *)

val counted_costs : t -> Xqp_algebra.Pattern_graph.t -> (Cost_model.engine * float) list
(** {!Cost_model.cost_of_units} of {!count_units} for every engine that
    supports the pattern: the fitted model's nanoseconds for what each
    engine really did. Deterministic (counts, not clocks). *)

val execute :
  t -> ?strategy:strategy -> ?optimize:bool -> ?use_cache:bool -> ?deadline:float ->
  ?context:Xqp_xml.Document.node list -> source -> Xqp_xml.Document.node list
(** {!run_physical} ∘ {!prepare}, from [context] (default: the document
    root). The result is the document-ordered distinct node list of the
    plan's final operator. *)

val strategy_name : strategy -> string

val all_strategies : strategy list
(** The concrete engines (everything except [Reference] and [Auto]). *)

val strategy_of_string : string -> (strategy, string) result
(** Inverse of {!strategy_name} (see {!Physical_plan.strategy_of_string});
    the error message lists the valid names. *)
