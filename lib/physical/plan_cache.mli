(** Bounded, mutex-sharded LRU cache for compiled physical plans.

    Keyed by everything that determines the compiled artifact: the query
    (or plan fingerprint), the optimize flag, the requested strategy, the
    document's identity and the version of the statistics the planner
    consulted — so a statistics rebuild or a different document can never
    serve a stale plan. A hit skips parsing, rewriting and costing
    entirely.

    Domain safety (DESIGN.md §11): entries are spread over independent
    shards by the hash of the key, each shard behind its own mutex
    ({!Xqp_obs.Dsan.guard}), so concurrent domains compiling different
    hot queries do not contend on one lock. Recency and eviction are
    per-shard; with a single shard (the default for small capacities)
    this is exactly a global LRU.

    Lookups and inserts bump [plan_cache.{hits,misses,evictions}] and the
    [plan_cache.size] gauge in {!Xqp_obs.Metrics.default} (shared by all
    instances). *)

type key = {
  query : string;      (** query text, or ["plan:" ^ fingerprint] for
                           pre-built logical plans *)
  optimize : bool;
  strategy : string;   (** {!Physical_plan.strategy_name} of the request *)
  doc_id : int;        (** {!Executor.id} — per-executor identity *)
  stats_version : int;
      (** a corpus planner's merged catalog stats version; 0 otherwise *)
}

type 'a t

val create : ?capacity:int -> ?shards:int -> unit -> 'a t
(** Default capacity 128 entries. [shards] defaults to
    [max 1 (min 8 (capacity / 32))] and is clamped to [capacity]; each
    shard holds [capacity / shards] entries.
    @raise Invalid_argument when [capacity < 1] or [shards < 1]. *)

val find : 'a t -> key -> 'a option
(** Counts a hit or a miss; a hit refreshes the entry's recency. *)

val add : 'a t -> key -> 'a -> unit
(** Insert (or overwrite) an entry, evicting the least recently used
    entry of the key's shard when that shard is full. *)

val length : 'a t -> int
(** Total entries across shards (unlocked read: exact once concurrent
    writers have quiesced). *)

val capacity : 'a t -> int
(** Total capacity across shards ([shards × per-shard capacity]). *)

val shard_count : 'a t -> int
val clear : 'a t -> unit
