(** Query flight recorder: always-on, allocation-light accounting of
    every query a server (or embedded session) runs, keyed by plan
    fingerprint, plus a bounded ring of full captures for slow queries.

    Two data structures, both bounded:

    - the {e query store}: a mutex-sharded table from plan fingerprint
      to a per-plan accumulator (count, log2 latency histogram, rows
      out, pages read, cache hits, deadline misses, worst per-operator
      q-error). Recording locks only the fingerprint's shard, so
      concurrent worker domains running distinct plans rarely contend.
      Each shard admits a bounded number of distinct fingerprints;
      admissions past the cap are counted in {!dropped} rather than
      growing without bound.
    - the {e slow ring}: a fixed-size ring of {!capture} values — full
      physical plan rendering, per-operator actual-vs-estimated rows,
      and the request's trace events — overwriting oldest-first.

    Domain safety (DESIGN.md §11, §13): the enable flag is an
    [Atomic.t]; the store is guarded per shard and the ring by its own
    guard, both via {!Dsan.guard} so the sanitizer can verify the
    discipline. *)

type t

(** One finished query, as reported by the session layer. *)
type sample = {
  fingerprint : string;  (** plan fingerprint ({!Logical_plan.fingerprint}) *)
  query : string;        (** representative source text *)
  mode : string;         (** ["xpath"] or ["xquery"] *)
  latency_ms : float;
  rows : int;            (** result rows/items produced *)
  pages_read : int;      (** pager logical reads attributed to the query *)
  cache_hit : bool;      (** plan-cache hit *)
  deadline_missed : bool;
  failed : bool;         (** any error outcome (including deadline) *)
  worst_q_error : float; (** worst per-operator q-error; [1.0] if unknown *)
}

(** Aggregate per-fingerprint statistics (a snapshot of one store entry). *)
type stat = {
  st_fingerprint : string;
  st_query : string;
  st_mode : string;
  st_count : int;
  st_errors : int;
  st_total_ms : float;
  st_max_ms : float;
  st_p50_ms : float;  (** approximate (log2-bucket upper bound) *)
  st_p99_ms : float;  (** approximate (log2-bucket upper bound) *)
  st_rows : int;
  st_pages_read : int;
  st_cache_hits : int;
  st_deadline_misses : int;
  st_worst_q_error : float;
}

(** A fully captured slow query. *)
type capture = {
  cap_request_id : string;
  cap_sample : sample;
  cap_plan : string;  (** pretty-printed physical plan *)
  cap_ops : Op_row.t list;  (** per-operator rows, read off the request's spans *)
  cap_events : Trace.event list;  (** the request's trace, if traced *)
  cap_wall : float;  (** Unix time of capture *)
}

val create : ?shards:int -> ?capacity:int -> ?slow_capacity:int -> unit -> t
(** [shards] store shards (default 8); [capacity] max distinct
    fingerprints {e per shard} (default 512); [slow_capacity] slow-ring
    size (default 64). *)

val default : t
(** The process-wide recorder the serve path feeds. *)

val set_enabled : t -> bool -> unit
(** Recorders start enabled; disabling turns {!record} and {!capture}
    into a single atomic load and branch. *)

val enabled : t -> bool

val record : t -> sample -> unit
(** Fold one finished query into the store (locks one shard). *)

val capture : t -> capture -> unit
(** Push a slow-query capture onto the ring (oldest overwritten). *)

val stats : t -> stat list
(** Snapshot of every store entry, unordered. *)

val top : ?k:int -> by:[ `Total_ms | `Count | `Max_ms | `Q_error ] -> t -> stat list
(** Top [k] (default 20) entries, descending by the given key. *)

val by_of_string : string -> [ `Total_ms | `Count | `Max_ms | `Q_error ] option
(** Parse a sort key: ["total_ms"], ["count"], ["max_ms"], ["q_error"]. *)

val slow : t -> capture list
(** Captured slow queries, most recent first. *)

val dropped : t -> int
(** Distinct fingerprints refused because their shard was full. *)

val reset : t -> unit
(** Empty the store, ring and dropped counter. *)

(** {2 JSON renderings} (for the [/debug/*] endpoints) *)

val stat_to_json : stat -> Json.t
val capture_to_json : capture -> Json.t
(** Plan and per-operator profile included; trace events summarized as
    a span count (full traces are served per request id). *)
