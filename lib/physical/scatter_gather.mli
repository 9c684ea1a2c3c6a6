(** Scatter-gather execution over a packed corpus catalog.

    One physical plan — compiled once against the catalog's {e merged}
    path summary via {!planner} — fans out across the catalog's shards
    and merges back in global document order. The moving parts:

    - {b Pruning.} Before dispatch, every shard's plan is tested with
      {!Cost_model.plan_certainly_empty} against statistics derived from
      that shard's own summary (stored in the catalog). A provably-empty
      shard is never dispatched: its container file is never opened, no
      store is built, no pager is touched.
    - {b Ownership.} Each document slot owns its executor behind a
      mutex: materialization (store image → document → executor) and
      every query on that executor run under the slot lock, so lazy
      artifacts are forced by exactly one domain at a time and mutaudit/
      Dsan stay clean. Worker domains are a persistent pool created at
      {!open_catalog} and joined by {!close}; the coordinator also
      drains the task queue while it waits, so a pool never idles its
      caller. [domains = 1] runs shards inline on the caller — the
      serial baseline the CORPUS bench compares against.
    - {b Merge.} Result node ids are tagged with their document's global
      ordinal in the high bits ({!encode}, {!ordinal_of}, {!node_of}), making the merged
      stream strictly increasing across (catalog order × within-shard
      order) — still sorted, still duplicate-free.
    - {b Observability.} [corpus.*] metrics (shards dispatched/pruned,
      docs materialized, per-shard rows/latency) and one shard-tagged
      span per shard in the request trace, emitted from the coordinating
      domain after the join. *)

type t

val open_catalog : ?domains:int -> Xqp_storage.Catalog.t -> t
(** [domains] (default 1) is the requested worker-pool size; [1] means
    no pool — shards execute inline on the calling domain. The actual
    pool is capped at [Domain.recommended_domain_count ()]: past the
    hardware, extra domains only add context-switch thrash, so a 4-domain
    open on a 1-core box degrades gracefully to inline execution.
    {!domains} still reports the requested degree. *)

val close : t -> unit
(** Join the worker pool (idempotent for pool-less instances). Domains
    are a bounded OS resource: close corpus handles you are done with. *)

val catalog : t -> Xqp_storage.Catalog.t

val planner : t -> Executor.t
(** Planning-only executor carrying {!Statistics.of_summary} of the
    merged summary and the catalog's merged stats version: compile
    against it (plan cache included), never execute on it. *)

val domains : t -> int
val doc_count : t -> int
val shard_count : t -> int

val encode : ordinal:int -> Xqp_xml.Document.node -> Xqp_xml.Document.node
(** Tag a within-document node id with its global document ordinal
    (stored [+1] in bits 40+, so untagged ids decode to ordinal [-1]). *)

val ordinal_of : Xqp_xml.Document.node -> int
(** The global ordinal of a tagged id; [-1] for an untagged one. *)

val node_of : Xqp_xml.Document.node -> Xqp_xml.Document.node
(** The within-document id of a tagged id. *)

exception Shard_error of string
(** A shard document could not be materialized: its container is
    unreadable or its image corrupt — including a packed path summary
    that disagrees with the document ({!Executor.of_packed}). Raised from
    the first query that touches the document; the session layer reports
    it as an I/O error. *)

val with_doc_executor : t -> ordinal:int -> (Executor.t -> 'a) -> 'a
(** Run [f] on the executor of the document at a global ordinal, under
    its slot lock (materializing it on first use) — the corpus XQuery
    path evaluates per document through this. *)

val document : t -> ordinal:int -> Xqp_xml.Document.t
(** The document at a global ordinal (materializing on first use). *)

type shard_report = {
  shard : int;
  pruned : bool;
  docs : int;
  rows : int;
  ms : float;
}

type run_result = {
  nodes : Xqp_xml.Document.node list;
      (** ordinal-tagged, global document order *)
  ops : Profile.row list;
      (** when [trace] is enabled: one row per plan operator, read off
          each document's operator spans ({!Profile.rows_of_spans}) and
          summed across documents — actual rows, time and I/O — with the
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
(** Fan a compiled plan across the unpruned shards and merge. The
    deadline applies to every per-document run; a worker's exception
    (including {!Executor.Deadline_exceeded}) is re-raised on the
    coordinating domain after the batch joins. [limit] ([>= 1]) reaches
    every per-document run ({!Executor.run_physical}) and cuts the merged
    [nodes] to their first [limit]. [trace] receives the
    shard-tagged spans (coordinator-side; workers never touch it: each
    document runs as a task of its own and traces its operators into a
    tracer of its own). *)
