(** A server-grade session over one open database.

    The query surface of xqp: explicit constructors (no extension
    sniffing), a structured [('a, Error.t) result] surface
    instead of bare exceptions, and one set of optional parameters
    ([?engine ?optimize ?use_cache ?deadline_ms]) shared by the query
    entry points — the CLI, the tests and {!Server} all drive this exact
    code path.

    A session is cheap to create and safe to share across domains for
    read-only querying: the underlying executor's artifacts (succinct
    store, statistics, content index) build at most once — an opened
    store brings its statistics with it (DESIGN.md §15) — the
    shared plan cache is mutex-sharded, and metrics are atomic
    (DESIGN.md §11). *)

type t
type node = Xqp_xml.Document.node
type engine = Xqp_physical.Executor.strategy

(** {1 Constructors} *)

val of_document : Xqp_xml.Document.t -> t
val of_tree : Xqp_xml.Tree.t -> t

val of_string : string -> (t, Error.t) result
(** Parse an XML string (whitespace-only text stripped);
    [Error (Parse _)] on malformed input. *)

val open_db : ?domains:int -> string -> (t, Error.t) result
(** Open a packed [.xqdb] store saved by {!save}, or a [.xqdbc] corpus
    catalog written by [xqp pack --corpus]. A corpus session plans once
    against the catalog's merged path summary and scatter-gathers
    execution across shards on [domains] worker domains (default 1 =
    inline; ignored for single stores); result node ids are tagged with
    their document's ordinal, and every entry point below works
    unchanged. A single store opens through
    {!Xqp_physical.Executor.of_packed}: its DOM is built straight from
    the loaded store, which is then dropped, and its statistics read off
    the packed path summary after a recount against the document.
    [Error (Bad_request _)] if the path ends in neither suffix;
    [Error (Io _)] on missing or corrupt files, including a packed
    summary whose counts disagree with the document — for a corpus, from
    the first query that materializes the corrupt document. *)

val parse_file : string -> (t, Error.t) result
(** Parse an XML file. Refuses [.xqdb]/[.xqdbc] paths (use {!open_db}) —
    the old [of_file] silently switched behavior on the extension. *)

val document : t -> Xqp_xml.Document.t
val executor : t -> Xqp_physical.Executor.t

val close : t -> unit
(** Join a corpus session's worker-domain pool (no-op otherwise).
    Domains are a bounded OS resource — close corpus sessions you are
    done with; queries after [close] must not be issued. *)

val save : t -> string -> unit
(** Persist the succinct store ([.xqdb]). @raise Failure on corpus
    sessions (corpora are packed with [xqp pack]). *)

(** {1 Queries} *)

type query_result = {
  nodes : node list;  (** document order, duplicate-free *)
  engine : string;
      (** labels of the τ engines bound in the executed plan
          (["+"]-joined when mixed), or ["navigation"] *)
  cache : Xqp_physical.Executor.cache_status;
  time_ms : float;    (** wall time of compile+execute for this call *)
}

val run :
  ?engine:engine -> ?optimize:bool -> ?use_cache:bool -> ?deadline_ms:int ->
  t -> string -> (query_result, Error.t) result
(** Run an XPath query from the document root with full result metadata —
    what the JSON response schema is built from. [deadline_ms] bounds
    wall time; past it the result is [Error (Timeout _)]. *)

val query :
  ?engine:engine -> ?optimize:bool -> ?use_cache:bool -> ?deadline_ms:int ->
  t -> string -> (node list, Error.t) result
(** {!run} projected to its node list. *)

val first : t -> string -> (node option, Error.t) result
(** The first result in document order: the plan {!query} runs (plan
    cache, [Auto]), run with a limit of one row
    ({!Xqp_physical.Executor.run_physical} [~limit:1]; a corpus session
    through {!Xqp_physical.Scatter_gather.run}, answering an
    ordinal-tagged id). A top-level τ bound to the NoK kernel stops at
    its first witness where the kernel's stop rule allows; any other
    plan runs in full. Not fed to the flight recorder. *)

val exists : t -> string -> (bool, Error.t) result
(** Whether the query has any result: {!first} is [Some _]. *)

type profiled = {
  result : query_result;
  fingerprint : string;
      (** fingerprint of the executed plan's logical erasure — the
          flight-recorder store key *)
  physical : Xqp_physical.Physical_plan.t;
  ops : Xqp_physical.Profile.row list;
      (** per-operator rows in execution order, read off the operator
          spans ({!Xqp_physical.Profile.rows_of_spans}) — summed across
          documents for a corpus session; empty unless a trace is enabled *)
  worst_q_error : float;
      (** max per-operator q-error when traced, else the plan-level
          (root) q-error when the recorder is on, else [1.0] *)
  pages_read : int;
      (** pager logical reads during this call (global-counter delta:
          approximate under concurrent domains) *)
}

val run_profiled :
  ?engine:engine -> ?optimize:bool -> ?use_cache:bool -> ?deadline_ms:int ->
  ?trace:Xqp_obs.Trace.t -> ?recorder:Xqp_obs.Flight_recorder.t ->
  t -> string -> (profiled, Error.t) result
(** {!run} plus the observability side channels (DESIGN.md §13): when
    [recorder] (default {!Xqp_obs.Flight_recorder.default}) is enabled,
    every outcome that compiled a plan — including timeouts — is folded
    into it as one plan-level sample (fingerprint off the plan cache,
    rows, pages, root q-error) cheap enough for the always-on OBSREC
    gate. An enabled [trace] wraps the run in a ["query"] span with one
    child span per operator (a corpus run adds one span per shard
    instead), isolated from every other request's tracer, and [ops] is
    read off those spans. Each successful query feeds its worst q-error
    to the [executor.q_error] histogram and, past 4×, the
    [executor.misestimates] counter in {!Xqp_obs.Metrics.default} — once
    per query, when recorded or traced. With the recorder disabled and
    no trace enabled, the executor runs the unobserved fast path. {!run}
    delegates here. *)

type xquery_result = { value : Xqp_algebra.Value.t; time_ms : float }

val run_xquery :
  ?engine:engine -> ?deadline_ms:int -> t -> string ->
  (xquery_result, Error.t) result

val run_xquery_profiled :
  ?engine:engine -> ?deadline_ms:int -> ?trace:Xqp_obs.Trace.t ->
  ?recorder:Xqp_obs.Flight_recorder.t -> t -> string ->
  (xquery_result, Error.t) result
(** {!run_xquery} with recorder/trace plumbing. XQuery plans carry no
    logical fingerprint, so the recorder keys them by source text
    (["xquery:<source>"]); the request trace gets one query-level span. *)

val xquery :
  ?engine:engine -> ?deadline_ms:int -> t -> string ->
  (Xqp_algebra.Value.t, Error.t) result

val xquery_string :
  ?engine:engine -> ?deadline_ms:int -> t -> string -> (string, Error.t) result
(** {!xquery} followed by XML serialization of the result sequence. *)

(** {1 Results} *)

val add_node : ?json:bool -> t -> Xqp_xml.Sink.t -> node -> unit
(** Append one result node the way results travel on the wire: an
    element (or comment, PI) as the XML of its subtree, an attribute as
    [@name="value"], a text node as its content — the value and the text
    unescaped. Written straight from the owning document's pre-order
    arrays by {!Xqp_xml.Document.add_item}; with [~json:true],
    JSON-string-escaped in the same pass (the surrounding quotes are the
    caller's). Corpus ids resolve to their shard's document. A warm sink
    allocates nothing per node. *)

val node_string : t -> node -> string
(** {!add_node} of one node, as a string. *)

val to_xml : t -> node list -> string
(** {!add_node} of each node, concatenated. *)

val text : t -> node -> string

val xquery_result_strings : t -> Xqp_algebra.Value.t -> string list
(** One serialized string per result item (the XQuery analogue of
    {!node_string} over a node list). *)

(** {1 Explain} *)

type explain = Xqp_physical.Profile.explain = {
  rendered : string;
  cache : Xqp_physical.Executor.cache_status;
  estimate : float option;
  estimate_source : string option;
  chosen : string;
  physical : Xqp_physical.Physical_plan.t;
}
(** The report of {!Xqp_physical.Profile.explain}, with its fields. *)

val explain :
  ?engine:engine -> ?optimize:bool -> ?use_cache:bool -> t -> string ->
  (explain, Error.t) result
(** {!Xqp_physical.Profile.explain} on this session's executor: compiles
    through the same cached path as {!query} and reports the plan, this
    call's cache outcome, and the estimate with provenance. A corpus
    session explains against its merged-summary planner. *)
