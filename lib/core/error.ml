module J = Xqp_obs.Json

type t =
  | Parse of string
  | Eval of string
  | Timeout of { deadline_ms : int }
  | Overloaded of { queue_depth : int }
  | Shutting_down
  | Bad_request of string
  | Payload_too_large of { limit_bytes : int }
  | Io of string
  | Internal of string

let code = function
  | Parse _ -> "parse"
  | Eval _ -> "eval"
  | Timeout _ -> "timeout"
  | Overloaded _ -> "overloaded"
  | Shutting_down -> "shutting-down"
  | Bad_request _ -> "bad-request"
  | Payload_too_large _ -> "payload-too-large"
  | Io _ -> "io"
  | Internal _ -> "internal"

let message = function
  | Parse m -> m
  | Eval m -> m
  | Timeout { deadline_ms } -> Printf.sprintf "query exceeded its %d ms deadline" deadline_ms
  | Overloaded { queue_depth } ->
    Printf.sprintf "server saturated: admission queue full at depth %d" queue_depth
  | Shutting_down -> "server is shutting down"
  | Bad_request m -> m
  | Payload_too_large { limit_bytes } ->
    Printf.sprintf "request body exceeds the %d-byte limit" limit_bytes
  | Io m -> m
  | Internal m -> m

let http_status = function
  | Parse _ | Eval _ | Bad_request _ -> 400
  | Timeout _ -> 408
  | Payload_too_large _ -> 413
  | Overloaded _ | Shutting_down -> 503
  | Io _ | Internal _ -> 500

let to_json e =
  let extra =
    match e with
    | Timeout { deadline_ms } -> [ ("deadline_ms", J.Num (float_of_int deadline_ms)) ]
    | Overloaded { queue_depth } -> [ ("queue_depth", J.Num (float_of_int queue_depth)) ]
    | Payload_too_large { limit_bytes } -> [ ("limit_bytes", J.Num (float_of_int limit_bytes)) ]
    | _ -> []
  in
  J.Obj ([ ("code", J.Str (code e)); ("message", J.Str (message e)) ] @ extra)

let of_json json =
  let str field = Option.bind (J.member field json) J.to_str in
  let num field = Option.bind (J.member field json) J.to_num in
  match str "code" with
  | None -> Result.Error "error object lacks a \"code\" field"
  | Some c -> (
    let msg = Option.value ~default:"" (str "message") in
    match c with
    | "parse" -> Ok (Parse msg)
    | "eval" -> Ok (Eval msg)
    | "timeout" ->
      let ms = match num "deadline_ms" with Some f -> int_of_float f | None -> 0 in
      Ok (Timeout { deadline_ms = ms })
    | "overloaded" ->
      let d = match num "queue_depth" with Some f -> int_of_float f | None -> 0 in
      Ok (Overloaded { queue_depth = d })
    | "shutting-down" -> Ok Shutting_down
    | "bad-request" -> Ok (Bad_request msg)
    | "payload-too-large" ->
      let l = match num "limit_bytes" with Some f -> int_of_float f | None -> 0 in
      Ok (Payload_too_large { limit_bytes = l })
    | "io" -> Ok (Io msg)
    | "internal" -> Ok (Internal msg)
    | other -> Result.Error (Printf.sprintf "unknown error code %S" other))

let pp ppf e = Format.fprintf ppf "%s: %s" (code e) (message e)
