(** Nestable timed spans with typed attributes, recorded into an
    in-memory ring buffer.

    A tracer is {e off by default}: while disabled, {!start} returns a
    shared dummy span and {!with_span} tail-calls the body — one boolean
    load and no allocation, so instrumentation can stay in hot paths
    permanently. When enabled, each span records wall-clock start/end
    times (relative to the tracer's epoch), its parent (the innermost
    open span), its nesting depth and an attribute list; completed spans
    land in a bounded ring buffer (oldest dropped first).

    The executor opens one span per plan operator with the attribute
    schema documented in DESIGN.md §7 ([path], [op], [engine], [in],
    [out], [pages_read], …); {!Export} renders the recorded events as a
    profile tree, Chrome [trace_event] JSON, or TSV. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type attr = string * value

type event = {
  id : int;      (** start-order sequence number (unique per tracer epoch) *)
  parent : int;  (** [id] of the enclosing span, [-1] for roots *)
  depth : int;   (** nesting depth, roots at 0 *)
  name : string;
  t0 : float;    (** seconds since the tracer epoch *)
  t1 : float;
  attrs : attr list;
}

type span
(** A handle for an open span. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the ring buffer (default 65536 completed spans). *)

val default : t
(** The process-wide tracer the built-in instrumentation uses. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val clear : t -> unit
(** Drop all recorded events and open spans; restart the epoch and ids. *)

val null_span : span
(** The dummy handle returned while disabled; finishing it is a no-op. *)

val start : t -> ?attrs:attr list -> string -> span

val add_attrs : span -> attr list -> unit
(** Append attributes to an open span (no-op on {!null_span}). *)

val finish : t -> span -> unit
(** Close the span and record it. Spans opened after [span] and still
    open are closed (and recorded) first, so the record always
    balances. *)

val with_span : t -> ?attrs:attr list -> string -> (span -> 'a) -> 'a
(** [with_span t name f] brackets [f] in a span (closed on exceptions
    too). While disabled this is just [f null_span]. *)

val events : t -> event list
(** Completed spans in start order (ascending [id]). Parents therefore
    precede their children even though they complete after them. *)

val graft : t -> ?attrs:attr list -> string -> start:float -> stop:float -> t list -> unit
(** [graft t name ~start ~stop sources] records, beneath the innermost
    open span of [t], a completed span [name] over the
    [Unix.gettimeofday] interval [start, stop] (widened to cover what it
    holds), with every completed span of each tracer in [sources] beneath
    it, nesting and wall-clock times kept. Spans measured on other
    domains, each into a tracer of its own, join a request's trace this
    way once those domains are done. No-op while [t] is disabled. *)

val dropped : t -> int
(** Events lost to ring overflow since the last {!clear}. Every drop
    (from any tracer) also bumps the [trace.dropped] counter in
    {!Metrics.default}, so overflow is visible in [/metrics]. *)

val attr : event -> string -> value option
val attr_int : event -> string -> int option
val attr_str : event -> string -> string option

val duration_us : event -> float
