(** The one query-response wire schema.

    [xqp query --json] and every [xqp serve] response body emit this
    exact shape, so a client written against the CLI's output parses
    server responses unchanged:

    {v
    {"query": "...", "mode": "xpath" | "xquery",
     "status": "ok",
     "results": ["<item .../>", ...], "count": N,
     "engine": "tau-nok", "cache": "hit" | "miss" | "bypassed",
     "time_ms": 1.234}
    v}

    or, on failure,

    {v
    {"query": "...", "mode": "...", "status": "error",
     "error": {"code": "timeout", "message": "...", "deadline_ms": 50}}
    v}

    Responses served by [xqp serve] additionally carry request
    provenance after ["mode"] — ["request_id"] (also echoed as the
    [X-Request-Id] header) and ["queue_ms"] (admission-queue wait).
    Both are omitted, not null, for CLI/embedded responses.

    One encoder, {!write}, produces every body: it appends the response
    to a caller's sink, and an XPath payload writes each result node
    straight from the document ({!Session.add_node}), with no string per
    result, no JSON tree and no allocation per row. {!to_string} is
    [write] into a fresh sink. {!of_json} inverts it (covered by a round-trip test), so the
    schema cannot drift between the producers. *)

type results =
  | Items of string list
      (** serialized items, one string each: XQuery results and decoded
          responses *)
  | Nodes of Session.t * Session.node list
      (** XPath result nodes, serialized by {!write} as it encodes *)

type payload = {
  results : results;
  count : int;
  engine : string;        (** τ engines bound in the plan, or ["navigation"] *)
  cache : string;         (** plan-cache outcome label for this call *)
  time_ms : float;
}

type t = {
  query : string;
  mode : string;  (** ["xpath"] or ["xquery"] *)
  request_id : string option;
      (** the served request's id (echoed in [X-Request-Id]); [None] —
          and absent on the wire — for embedded/CLI responses *)
  queue_ms : float option;
      (** admission-queue wait before a worker picked the request up *)
  outcome : (payload, Error.t) result;
}

val ok :
  ?request_id:string -> ?queue_ms:float -> query:string -> mode:string ->
  results:string list -> engine:string -> cache:string -> time_ms:float ->
  unit -> t

val error :
  ?request_id:string -> ?queue_ms:float -> query:string -> mode:string ->
  Error.t -> t

val of_query_result :
  ?request_id:string -> ?queue_ms:float -> Session.t -> query:string ->
  Session.query_result -> t
(** An XPath result that keeps its node ids: {!write} serializes each
    through {!Session.add_node}. *)

val of_xquery_result :
  ?request_id:string -> ?queue_ms:float -> Session.t -> query:string ->
  Session.xquery_result -> t

val http_status : t -> int
(** 200 for ok; {!Error.http_status} otherwise. *)

val write : Xqp_xml.Sink.t -> t -> unit
(** Append the response's JSON to the sink. *)

val to_string : t -> string
(** {!write} into a fresh sink. *)

val of_json : Xqp_obs.Json.t -> (t, string) result
val of_string : string -> (t, string) result
