(** The structured error surface of the session API ({!Session}) and the
    wire protocol ({!Response}, {!Server}).

    One closed variant covers every way a query can fail from a caller's
    point of view; each constructor carries a stable string [code] (what
    clients switch on) and a human [message]. The HTTP mapping lives here
    too so the CLI and the server can never disagree on a status line. *)

type t =
  | Parse of string      (** query text rejected by the XPath/XQuery parser *)
  | Eval of string       (** dynamic XQuery error *)
  | Timeout of { deadline_ms : int }
      (** the per-query deadline passed ({!Xqp_physical.Executor.Deadline_exceeded}) *)
  | Overloaded of { queue_depth : int }
      (** admission control rejected the request: the queue was full *)
  | Shutting_down        (** server draining; no new queries admitted *)
  | Bad_request of string  (** malformed request (missing parameter, bad engine name…) *)
  | Payload_too_large of { limit_bytes : int }
      (** an HTTP request body over the server's limit, refused unread *)
  | Io of string         (** file/socket-level failure *)
  | Internal of string   (** anything unexpected; the message is the exception text *)

val code : t -> string
(** Stable machine code: ["parse"], ["eval"], ["timeout"], ["overloaded"],
    ["shutting-down"], ["bad-request"], ["payload-too-large"], ["io"],
    ["internal"]. *)

val message : t -> string

val http_status : t -> int
(** 400 for caller mistakes, 408 for {!Timeout}, 413 for
    {!Payload_too_large}, 503 for {!Overloaded} and {!Shutting_down}, 500
    otherwise. *)

val to_json : t -> Xqp_obs.Json.t
(** [{"code": …, "message": …}] plus [deadline_ms]/[queue_depth]/
    [limit_bytes] detail fields where the constructor carries them. *)

val of_json : Xqp_obs.Json.t -> (t, string) result
(** Inverse of {!to_json} (the round-trip the response-schema test
    checks). *)

val pp : Format.formatter -> t -> unit
