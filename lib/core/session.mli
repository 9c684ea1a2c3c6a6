(** A server-grade session over one open database.

    The query surface of xqp: explicit constructors (no extension
    sniffing), a structured [('a, Error.t) result] surface
    instead of bare exceptions, and one set of optional parameters
    ([?engine ?optimize ?use_cache ?deadline_ms]) shared by the query
    entry points — the CLI, the tests and {!Server} all drive this exact
    code path.

    Every session is a corpus ({!Xqp_physical.Scatter_gather}): a
    single document — parsed, or opened from a [.xqdb] — is a corpus of
    one materialized document with no pool, planned by its own executor,
    so documents and catalogs run one execution path and one row-id
    scheme (DESIGN.md §14).

    A session is cheap to create and safe to share across domains for
    read-only querying: each executor artifact (succinct store,
    statistics, content index, navigation hints) and each corpus
    document builds at most once, under a lock of its own, and is read
    without one afterwards — an opened store brings its statistics with
    it (DESIGN.md §15) — the shared plan cache is mutex-sharded, and
    metrics are atomic (DESIGN.md §11). *)

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
    catalog written by [xqp pack --corpus]. A catalog session plans once
    against the catalog's merged path summary and scatter-gathers
    execution across shards on [domains] worker domains (default 1 =
    inline; ignored for single stores); result node ids carry their
    document's ordinal ({!Xqp_physical.Scatter_gather.encode}; the first
    document's ids are plain), and every entry point below works
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
(** The planner's document: a single document's own, a catalog's
    placeholder. *)

val executor : t -> Xqp_physical.Executor.t
(** The executor every query compiles against
    ({!Xqp_physical.Scatter_gather.planner}): a single document's own. *)

val close : t -> unit
(** Join a catalog session's worker-domain pool (no-op otherwise).
    Domains are a bounded OS resource — close catalog sessions you are
    done with; queries after [close] must not be issued. *)

val save : t -> string -> unit
(** Persist the succinct store ([.xqdb]) of the session's one document.
    @raise Failure when the session holds several documents (those are
    packed with [xqp pack]). *)

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
    through {!Xqp_physical.Scatter_gather.run}, which passes it to every
    document's {!Xqp_physical.Executor.run_physical}). A top-level τ bound to the NoK kernel stops at
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
          documents; empty unless a trace is enabled *)
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
    gate. An enabled [trace] wraps the run in a ["query"] span holding
    one ["shard"] span per shard, each over its documents' operator
    spans, isolated from every other request's tracer; [ops] is read off
    the operator spans and summed across documents. Each successful query feeds its worst q-error
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

val add_nodes : ?json:bool -> ?sep:string -> t -> Xqp_xml.Sink.t -> node list -> unit
(** Append result nodes the way results travel on the wire, [sep]
    (default empty) between them: an element (or comment, PI) as the
    XML of its subtree, an attribute as [@name="value"], a text node as
    its content — the value and the text unescaped. Written straight from
    the owning document's pre-order arrays by
    {!Xqp_xml.Document.add_item}; with [~json:true], JSON-string-escaped
    in the same pass (quotes around each row are the caller's, which
    [sep] can close and reopen). A row id resolves to its document by
    ordinal, once per run of rows from one document and taking no lock;
    a document node (what [/] answers) is written as the document's root
    element. A warm sink allocates nothing per node. *)

val node_string : t -> node -> string
(** {!add_nodes} of one node, as a string. *)

val to_xml : t -> node list -> string
(** {!add_nodes} of the nodes, as a string. *)

val text : t -> node -> string
(** The typed value of a row (a document node's is its root element's). *)

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
    call's cache outcome, and the estimate with provenance. A catalog
    session explains against its merged-summary planner. *)
