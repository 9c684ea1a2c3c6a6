(** [xqp serve] — a multicore query server over one shared session.

    One acceptor domain admits connections onto a bounded, mutex-guarded
    work queue; [config.domains] worker domains pop jobs and answer them
    against a single read-only {!Session.t} (safe to share: the plan
    cache is sharded, executor artifacts and corpus documents build
    once under their own locks, metrics are atomic — DESIGN.md
    §11/§12). Admission control rejects instantly
    with 503 when the queue is full, so saturation degrades into fast
    failures rather than unbounded latency.

    Connections are persistent (HTTP/1.1 keep-alive): a worker serves
    requests back to back on one connection until the client sends
    [Connection: close] (the HTTP/1.0 default), the socket idles past
    the receive timeout, or the server starts draining — then the
    response carries [Connection: close] and the socket shuts.

    Endpoints:
    - [GET /query?q=…&mode=xpath|xquery&engine=…&deadline_ms=…&no_cache=1]
      (or POST with the same fields as a JSON body) → a {!Response}
      body carrying [request_id] and [queue_ms]; the id is also echoed
      as the [X-Request-Id] header. The deadline clock starts at
      {e enqueue}: time spent waiting in the queue counts against it.
    - [GET /health] → canary query probe (200/500).
    - [GET /metrics] → Prometheus text exposition of
      {!Xqp_obs.Metrics.default}, including the [serve.*] family
      (accepted/rejected/requests/errors/timeouts/slow_captures
      counters, queue_depth gauge, latency_ms and queue_wait_ms
      histograms, per-domain requests and busy_us).
    - [GET /debug/queries?k=20&by=total_ms|count|max_ms|q_error] →
      top-K flight-recorder fingerprints as JSON
      ({!Xqp_obs.Flight_recorder.top}), plus the store's drop count.
    - [GET /debug/slow] → captured slow queries (full plan, per-operator
      actual-vs-estimated rows, span count), most recent first.
    - [GET /debug/requests/<id>] → that request's span tree as Chrome
      trace JSON, while it remains in the bounded request log (256
      entries; evicted traces 404).

    Every served query runs under a request-scoped tracer — its
    worker's own, cleared per request (DESIGN.md §13) — so concurrent
    domains never share an open-span stack, and is folded into
    {!Xqp_obs.Flight_recorder.default}.

    No toplevel mutable state: everything lives in the handle returned
    by {!start}, so [xqp lint --domains] stays clean. *)

type config = {
  host : string;      (** bind address (default loopback) *)
  port : int;         (** 0 picks an ephemeral port; read it back with {!port} *)
  domains : int;      (** worker domains (≥ 1) *)
  queue_depth : int;  (** admission bound; beyond it requests get 503 *)
  default_deadline_ms : int option;
      (** applied when a request names no [deadline_ms]; [None] = unbounded *)
  canary : string;    (** the [/health] probe query *)
  slow_ms : float option;
      (** capture queries at or over this latency into the slow ring;
          [None] disables capture *)
  log_path : string option;
      (** structured JSONL query log (rotation-safe append); [None] = off *)
}

val default_config : config
(** loopback, ephemeral port, 2 domains, queue 64, no default deadline,
    canary [/*], no slow capture, no query log. *)

type t
(** A running server (acceptor + workers). *)

val start : ?config:config -> Session.t -> t
(** Bind, validate the canary (which also warms what it touches),
    spawn the domain pool.
    @raise Invalid_argument on a bad config or failing canary;
    @raise Unix.Unix_error if the port cannot be bound. *)

val port : t -> int
(** The bound port (the ephemeral one when [config.port = 0]). *)

val config : t -> config

val stop : t -> unit
(** Graceful shutdown: stop accepting, then drain — every request
    already admitted is answered before the workers exit. Blocks until
    all domains are joined. *)

(** {1 The reply sink}

    Each worker keeps one {!Xqp_xml.Sink.t} for every reply it writes:
    room for the HTTP header is kept free at its head, so header and body
    leave in one write with no copy, and the sink keeps what it grew to
    between requests, up to {!max_kept_reply} bytes. *)

val max_kept_reply : int
(** 8 MiB: a reply that grew the sink past this gives the storage back
    after it is sent. *)

val new_reply : unit -> Xqp_xml.Sink.t
(** A sink as a worker creates it: 64 KiB, with header room. *)

val clear_reply : Xqp_xml.Sink.t -> unit
(** What a worker does after each reply: {!Xqp_xml.Sink.clear}, or
    {!Xqp_xml.Sink.reset} past {!max_kept_reply}. *)
