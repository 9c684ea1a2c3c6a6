(** Unified metrics: named counters, gauges and histograms in a registry.

    This replaces the scattered per-module stats records ([Pager.stats],
    [Buffer_pool.stats], the [*_with_stats] engine variants) behind one
    interface: each layer registers its metrics by name in
    {!default} and bumps them unconditionally — an [Atomic.fetch_and_add],
    cheap enough to stay always-on — and consumers (the
    [--analyze] profiler, the bench harness, [xqp explain]) read values or
    take whole snapshots.

    Naming convention (documented in DESIGN.md §7):
    [<layer>.<component>.<quantity>], e.g. [pager.logical_reads],
    [pool.page_faults], [engine.nok.nodes_visited].

    Domain safety (DESIGN.md §11): counters and gauges are [Atomic.t]
    values — increments from concurrent domains are never lost;
    histograms serialize observations behind their own mutex; the
    registry table itself is guarded, so get-or-create races return the
    same handle. Snapshots are sorted by name and therefore
    deterministic regardless of registration order. *)

type t
(** A registry. *)

val create : unit -> t
val default : t
(** The process-wide registry every built-in layer emits into. *)

(** {2 Counters} — monotone ints, resettable. *)

type counter

val counter : t -> string -> counter
(** Get or create. @raise Invalid_argument if the name is already
    registered as a different metric kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {2 Gauges} — last-write-wins floats. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms} — log2-bucketed distributions. *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** Record one sample (negative samples land in the first bucket). *)

type histogram_summary = {
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
  buckets : (float * int) list;
      (** Non-empty buckets as (inclusive upper bound, count). *)
}

val summary : histogram -> histogram_summary

(** {2 Registry-wide views} *)

type reading =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram_summary

val snapshot : t -> (string * reading) list
(** Every registered metric, sorted by name. *)

val find : t -> string -> reading option

val reset : t -> unit
(** Zero every metric; registrations (and handles) stay valid. *)

val pp : Format.formatter -> t -> unit
(** One line per metric, sorted by name. *)

val to_tsv : t -> string
(** [name<TAB>kind<TAB>value] lines (histograms report
    count/sum/min/max). *)
