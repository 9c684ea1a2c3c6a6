(** Scatter-gather execution over a corpus: a packed catalog, or a single
    document as a corpus of one.

    One physical plan — compiled once via {!planner} — fans out across
    the corpus's documents and merges back in global document order. The
    moving parts:

    - {b One document.} {!of_executor} makes a corpus of one materialized
      document with no pool, whose planner is the document's own
      executor: plan-cache keys, plans and explain output are the
      document's, and a one-task batch runs inline.
    - {b Pruning.} Before dispatch, every shard's plan is tested with
      {!Cost_model.plan_certainly_empty} against statistics derived from
      that shard's own summary (stored in the catalog). A provably-empty
      shard is never dispatched: its container file is never opened, no
      store is built, no pager is touched. A plan the planner already
      compiled to [Empty] prunes every shard, and a lone shard is not
      tested: its summary is the one the plan was compiled against.
    - {b Ownership.} Executors are safe to share across domains (each
      artifact is built once, {!Once}), so a document's executor is a
      {!Once} cell too: its lock covers materialization (store image →
      document → executor) only, and queries on a built document run on
      any domain at once. Worker domains are a persistent pool created at
      {!open_catalog} and joined by {!close}; the coordinator also drains
      the task queue while it waits, so a pool never idles its caller.
      [domains = 1] runs documents inline on the caller — the serial
      baseline the CORPUS bench compares against.
    - {b Row ids.} A row id carries its document's global ordinal in the
      high bits ({!encode}, {!ordinal_of}, {!node_of}); ordinal 0 is
      plain, so a document's ids are its pre-order ids. The merged stream
      is strictly increasing across (catalog order × within-document
      order) — still sorted, still duplicate-free.
    - {b Observability.} [corpus.*] metrics (shards dispatched/pruned,
      docs materialized, per-shard rows/latency) and one shard-tagged
      span per shard in the request trace, emitted from the coordinating
      domain after the join with its documents' operator spans grafted
      beneath it. *)

type t

val open_catalog : ?domains:int -> Xqp_storage.Catalog.t -> t
(** [domains] (default 1) is the requested worker-pool size; [1] means
    no pool — documents execute inline on the calling domain. The actual
    pool is capped at [Domain.recommended_domain_count ()]: past the
    hardware, extra domains only add context-switch thrash, so a 4-domain
    open on a 1-core box degrades gracefully to inline execution. *)

val of_executor : Executor.t -> t
(** A corpus of one document, already materialized: [exec] is both its
    planner and its one document's executor; no pool. *)

val close : t -> unit
(** Join the worker pool (idempotent for pool-less instances). Domains
    are a bounded OS resource: close corpus handles you are done with. *)

val planner : t -> Executor.t
(** The executor every query compiles against (plan cache included). For
    a catalog, a planning-only executor carrying {!Statistics.of_summary}
    of the merged summary and the catalog's merged stats version — never
    execute on it; for {!of_executor}, the document's executor. *)

val doc_count : t -> int

val encode : ordinal:int -> Xqp_xml.Document.node -> Xqp_xml.Document.node
(** [encode ~ordinal node = (ordinal lsl 40) + node]: a within-document
    id as a global row id. Ordinal 0 is plain, and a document's node
    (-1) becomes [(ordinal lsl 40) - 1], just before that document's
    nodes. *)

val ordinal_of : Xqp_xml.Document.node -> int
(** The global ordinal of a row id: [(id + 1) asr 40]. *)

val node_of : Xqp_xml.Document.node -> Xqp_xml.Document.node
(** The within-document id of a row id ([-1] for a document node). *)

exception Shard_error of string
(** A shard document could not be materialized: its container is
    unreadable or its image corrupt — including a packed path summary
    that disagrees with the document ({!Executor.of_packed}). Raised from
    the first query that touches the document; the session layer reports
    it as an I/O error. *)

val with_doc_executor : t -> ordinal:int -> (Executor.t -> 'a) -> 'a
(** Run [f] on the executor of the document at a global ordinal,
    materializing it on first use — the corpus XQuery path evaluates per
    document through this. No lock is held while [f] runs.
    @raise Invalid_argument on an ordinal outside the corpus. *)

val document : t -> ordinal:int -> Xqp_xml.Document.t
(** The document at a global ordinal (materializing on first use). Once
    it is built, this takes no lock and allocates nothing. *)

type shard_report = {
  shard : int;
  pruned : bool;
  docs : int;
  rows : int;
  ms : float;
}

type run_result = {
  nodes : Xqp_xml.Document.node list;
      (** global row ids, global document order *)
  ops : Profile.row list;
      (** when [trace] is enabled: one row per plan operator, read off
          each document's operator spans ({!Profile.rows_of_spans}) and
          summed across documents — actual rows and time — with the
          q-error taken against the plan's corpus-wide estimate; [[]]
          otherwise, or when every shard was pruned *)
  reports : shard_report list;  (** one per shard, catalog order *)
}

val run :
  t ->
  ?deadline:float ->
  ?limit:int ->
  ?trace:Xqp_obs.Trace.t ->
  Physical_plan.t ->
  run_result
(** Fan a compiled plan across the unpruned shards' documents and merge.
    The deadline applies to every per-document run; a worker's exception
    (including {!Executor.Deadline_exceeded}) is re-raised on the
    coordinating domain after the batch joins. [limit] ([>= 1]) reaches
    every per-document run ({!Executor.run_physical}) and cuts the merged
    [nodes] to their first [limit]. An enabled [trace] receives one
    ["shard"] span per shard, each over its documents' operator spans:
    every document task traces into a plan-sized tracer of its own, and
    the coordinator grafts those spans in after the join
    ({!Xqp_obs.Trace.graft}), so workers never touch [trace]. *)
