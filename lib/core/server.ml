module Executor = Xqp_physical.Executor
module Metrics = Xqp_obs.Metrics
module Export = Xqp_obs.Export
module Trace = Xqp_obs.Trace
module Fr = Xqp_obs.Flight_recorder
module Dsan = Xqp_obs.Dsan
module J = Xqp_obs.Json
module Sink = Xqp_xml.Sink

type config = {
  host : string;
  port : int;
  domains : int;
  queue_depth : int;
  default_deadline_ms : int option;
  canary : string;
  slow_ms : float option;
  log_path : string option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    domains = 2;
    queue_depth = 64;
    default_deadline_ms = None;
    canary = "/*";
    slow_ms = None;
    log_path = None;
  }

type job = { fd : Unix.file_descr; enqueued : float }

(* Recent request traces for /debug/requests/<id>: a bounded ring of
   (request id, completed span list), overwriting oldest-first. Requests
   past the window 404 — the endpoint serves a debugging window, not an
   archive. *)
type req_log = {
  rl_guard : Dsan.guard;
  rl_slots : (string * Trace.event list) option array;
  mutable rl_head : int;
}

(* Shared across the acceptor and worker domains. All mutable pieces
   live inside this record (created per [start]; no toplevel state) and
   are either mutex-guarded or atomics. *)
type core = {
  session : Session.t;
  config : config;
  listen_fd : Unix.file_descr;
  queue : job Queue.t;  (* guarded by [lock] *)
  lock : Mutex.t;
  nonempty : Condition.t;
  accepting : bool Atomic.t;
  draining : bool Atomic.t;
  next_request : int Atomic.t;
  req_log : req_log;
  m_accepted : Metrics.counter;
  m_rejected : Metrics.counter;
  m_requests : Metrics.counter;
  m_errors : Metrics.counter;
  m_timeouts : Metrics.counter;
  m_slow : Metrics.counter;
  m_queue_depth : Metrics.gauge;
  m_latency : Metrics.histogram;
  m_queue_wait : Metrics.histogram;
}

type t = { core : core; port : int; acceptor : unit Domain.t; workers : unit Domain.t array }

let port t = t.port
let config t = t.core.config

(* --- HTTP plumbing ------------------------------------------------------- *)

let reason_phrase = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

(* A worker's reply sink, kept across requests. The body is written
   after [header_room] free bytes and the header is put in front of it,
   so header and body leave as one range with no copy: a small reply
   still leaves in one segment. The body's room doubles from 64 KiB
   onto [max_kept_reply] exactly; a reply that grew it past that hands
   its storage back once it is sent. *)
let header_room = 256
let max_kept_reply = 8 * 1024 * 1024
let new_reply () = Sink.create ~head:header_room 65536

let clear_reply reply =
  if Sink.capacity reply > max_kept_reply then Sink.reset reply else Sink.clear reply

let respond ?(extra_headers = []) ?(keep_alive = false) fd reply ~status ~content_type =
  Sink.prepend reply
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: %s\r\n\r\n"
       status (reason_phrase status) content_type (Sink.length reply)
       (String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) extra_headers))
       (if keep_alive then "keep-alive" else "close"));
  try Sink.send reply (Unix.write fd) with Unix.Unix_error _ -> ()

let find_blank_line buf ~from =
  let n = Buffer.length buf in
  let rec go i =
    if i + 3 >= n then None
    else if
      Buffer.nth buf i = '\r'
      && Buffer.nth buf (i + 1) = '\n'
      && Buffer.nth buf (i + 2) = '\r'
      && Buffer.nth buf (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go (max 0 from)

type request = { meth : string; path : string; params : (string * string) list; body : string }

let url_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else
      match s.[i] with
      | '+' ->
        Buffer.add_char b ' ';
        go (i + 1)
      | '%' when i + 2 < n -> (
        match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
        | Some c ->
          Buffer.add_char b (Char.chr c);
          go (i + 3)
        | None ->
          Buffer.add_char b '%';
          go (i + 1))
      | c ->
        Buffer.add_char b c;
        go (i + 1)
  in
  go 0;
  Buffer.contents b

let parse_params qs =
  List.filter_map
    (fun pair ->
      if pair = "" then None
      else
        match String.index_opt pair '=' with
        | Some i ->
          Some
            ( url_decode (String.sub pair 0 i),
              url_decode (String.sub pair (i + 1) (String.length pair - i - 1)) )
        | None -> Some (url_decode pair, ""))
    (String.split_on_char '&' qs)

let header_value headers name =
  let lower = String.lowercase_ascii in
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when lower (String.sub line 0 i) = name ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    headers

(* Does the client want the connection kept open after this request?
   HTTP/1.1 defaults to yes unless [Connection: close]; HTTP/1.0 (and
   anything unrecognized) defaults to no unless [Connection: keep-alive].
   The Connection header may be a comma-separated option list. *)
let wants_keep_alive ~version headers =
  let contains hay needle =
    let hn = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match Option.map String.lowercase_ascii (header_value headers "connection") with
  | Some v when contains v "close" -> false
  | Some v when contains v "keep-alive" -> true
  | _ -> version = "HTTP/1.1"

let max_body = 1_048_576
let max_header = 65536

(* What one read off a connection produced: a request (and whether the
   client wants keep-alive), a request refused before its body was read
   (answered, then the connection closes — the unread body must never be
   parsed as the next request), or nothing (EOF/garbage/idle timeout). *)
type incoming = Request of request * bool | Refused of Error.t | Closed

(* Read one request: headers to the blank line, then Content-Length
   bytes of body. SO_RCVTIMEO on the socket bounds how long a stalled or
   idle keep-alive client can hold a worker. *)
let recv_request fd =
  let chunk_len = 4096 in
  let chunk = Bytes.create chunk_len in
  let buf = Buffer.create 1024 in
  (* each read rescans only its own bytes, plus the three before them
     that a CRLFCRLF split across reads may start in *)
  let rec fill_headers ~from =
    match find_blank_line buf ~from with
    | Some i -> Some i
    | None ->
      if Buffer.length buf > max_header then None
      else
        let n = try Unix.read fd chunk 0 chunk_len with Unix.Unix_error _ -> 0 in
        if n = 0 then None
        else (
          let scanned = Buffer.length buf in
          Buffer.add_subbytes buf chunk 0 n;
          fill_headers ~from:(scanned - 3))
  in
  match fill_headers ~from:0 with
  | None -> Closed
  | Some blank -> (
    let head = Buffer.sub buf 0 blank in
    let lines =
      String.split_on_char '\n' head
      |> List.map (fun l ->
             if String.length l > 0 && l.[String.length l - 1] = '\r' then
               String.sub l 0 (String.length l - 1)
             else l)
    in
    match lines with
    | [] -> Closed
    | request_line :: headers -> (
      let content_length =
        match header_value headers "content-length" with
        | None -> Ok 0
        | Some v -> (
          match int_of_string_opt v with
          | Some n when n > max_body -> Error (Error.Payload_too_large { limit_bytes = max_body })
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Error.Bad_request (Printf.sprintf "malformed Content-Length %S" v)))
      in
      match (String.split_on_char ' ' request_line, content_length) with
      | _ :: _ :: _, Error e -> Refused e
      | meth :: target :: rest, Ok content_length ->
        let body = Buffer.create (max content_length 16) in
        Buffer.add_string body (Buffer.sub buf (blank + 4) (Buffer.length buf - (blank + 4)));
        let rec fill_body () =
          if Buffer.length body < content_length then
            let n =
              try Unix.read fd chunk 0 (min chunk_len (content_length - Buffer.length body))
              with Unix.Unix_error _ -> 0
            in
            if n > 0 then (
              Buffer.add_subbytes body chunk 0 n;
              fill_body ())
        in
        fill_body ();
        let path, params =
          match String.index_opt target '?' with
          | Some i ->
            ( String.sub target 0 i,
              parse_params (String.sub target (i + 1) (String.length target - i - 1)) )
          | None -> (target, [])
        in
        let version = match rest with v :: _ -> String.trim v | [] -> "" in
        Request
          ( { meth; path; params; body = Buffer.contents body },
            wants_keep_alive ~version headers )
      | _ -> Closed))

(* --- request handling ---------------------------------------------------- *)

(* Query parameters reach us either as url-encoded GET parameters or as
   a JSON POST body with the same field names. *)
let request_fields req =
  if req.meth = "POST" && String.length (String.trim req.body) > 0 then
    match J.parse req.body with
    | json ->
      let str f = Option.bind (J.member f json) J.to_str in
      let num f = Option.bind (J.member f json) J.to_num in
      Ok
        ( str "q",
          str "mode",
          str "engine",
          Option.map int_of_float (num "deadline_ms"),
          (match J.member "no_cache" json with Some (J.Bool b) -> b | _ -> false) )
    | exception J.Parse_error m -> Error (Error.Bad_request (Printf.sprintf "body: %s" m))
  else
    let str f = List.assoc_opt f req.params in
    Ok
      ( str "q",
        str "mode",
        str "engine",
        Option.bind (str "deadline_ms") int_of_string_opt,
        match str "no_cache" with Some ("1" | "true") -> true | _ -> false )

(* Rotation-safe structured query log: one JSON object per line, opened
   O_APPEND per entry and closed again, so a logrotate move-and-recreate
   never loses lines and short appends never interleave. *)
let log_entry core ~request_id ~query ~mode ~status ~latency_ms ~queue_ms =
  match core.config.log_path with
  | None -> ()
  | Some path -> (
    let round3 x = Float.round (x *. 1000.0) /. 1000.0 in
    let line =
      J.to_string
        (J.Obj
           [
             ("ts", J.Num (Unix.gettimeofday ()));
             ("request_id", J.Str request_id);
             ("query", J.Str query);
             ("mode", J.Str mode);
             ("status", J.Num (float_of_int status));
             ("latency_ms", J.Num (round3 latency_ms));
             ("queue_ms", J.Num (round3 queue_ms));
           ])
      ^ "\n"
    in
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644 with
    | fd ->
      (try ignore (Unix.write_substring fd line 0 (String.length line))
       with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ())

(* Slow-query capture: full plan rendering + per-operator actual-vs-
   estimated rows + the request's span tree, pushed onto the flight
   recorder's bounded ring when the query ran past [--slow-ms]. *)
let maybe_capture core ~request_id ~events (p : Session.profiled) q =
  match core.config.slow_ms with
  | Some threshold when p.Session.result.Session.time_ms >= threshold ->
    Metrics.incr core.m_slow;
    let r = p.Session.result in
    Fr.capture Fr.default
      {
        Fr.cap_request_id = request_id;
        cap_sample =
          {
            Fr.fingerprint = p.Session.fingerprint;
            query = q;
            mode = "xpath";
            latency_ms = r.Session.time_ms;
            rows = List.length r.Session.nodes;
            pages_read = p.Session.pages_read;
            cache_hit = r.Session.cache = Executor.Cache_hit;
            deadline_missed = false;
            failed = false;
            worst_q_error = p.Session.worst_q_error;
          };
        cap_plan = Format.asprintf "%a" Xqp_physical.Physical_plan.pp p.Session.physical;
        (* root first: the order /debug/slow lists operators in *)
        cap_ops =
          List.sort
            (fun (a : Xqp_obs.Op_row.t) b -> compare a.Xqp_obs.Op_row.path b.Xqp_obs.Op_row.path)
            p.Session.ops;
        cap_events = events;
        cap_wall = Unix.gettimeofday ();
      }
  | _ -> ()

let maybe_capture_xquery core ~request_id ~events (r : Session.xquery_result) q =
  match core.config.slow_ms with
  | Some threshold when r.Session.time_ms >= threshold ->
    Metrics.incr core.m_slow;
    Fr.capture Fr.default
      {
        Fr.cap_request_id = request_id;
        cap_sample =
          {
            Fr.fingerprint = "xquery:" ^ q;
            query = q;
            mode = "xquery";
            latency_ms = r.Session.time_ms;
            rows = List.length r.Session.value;
            pages_read = 0;
            cache_hit = false;
            deadline_missed = false;
            failed = false;
            worst_q_error = 1.0;
          };
        cap_plan = "(xquery)";
        cap_ops = [];
        cap_events = events;
        cap_wall = Unix.gettimeofday ();
      }
  | _ -> ()

let push_req_log core ~request_id events =
  let rl = core.req_log in
  Dsan.with_guard rl.rl_guard (fun () ->
      rl.rl_slots.(rl.rl_head) <- Some (request_id, events);
      rl.rl_head <- (rl.rl_head + 1) mod Array.length rl.rl_slots)

let find_req_log core request_id =
  let rl = core.req_log in
  Dsan.with_guard rl.rl_guard (fun () ->
      Array.fold_left
        (fun acc slot ->
          match slot with
          | Some (id, events) when id = request_id -> Some events
          | _ -> acc)
        None rl.rl_slots)

(* [tr] is the worker's own tracer, cleared per request: request-scoped
   span trees stay isolated across worker domains (no shared open-span
   stack), and the completed tree lands in the request log for
   /debug/requests/<id>. *)
let run_query core job req body tr ~request_id ~queue_ms =
  Trace.clear tr;
  let t_start = Unix.gettimeofday () in
  (* [encode] writes the reply into the worker's sink; [finish] then
     logs the request and answers its status *)
  let encode response =
    Response.write body response;
    response
  in
  let finish ~query ~mode response =
    let status = Response.http_status response in
    push_req_log core ~request_id (Trace.events tr);
    log_entry core ~request_id ~query ~mode ~status
      ~latency_ms:((Unix.gettimeofday () -. t_start) *. 1000.0)
      ~queue_ms;
    status
  in
  match request_fields req with
  | Error e ->
    finish ~query:"" ~mode:"xpath"
      (encode (Response.error ~request_id ~queue_ms ~query:"" ~mode:"xpath" e))
  | Ok (q, mode, engine_name, deadline_ms, no_cache) -> (
    let mode = Option.value ~default:"xpath" mode in
    match q with
    | None ->
      finish ~query:"" ~mode
        (encode
           (Response.error ~request_id ~queue_ms ~query:"" ~mode
              (Error.Bad_request "missing parameter \"q\"")))
    | Some q -> (
      let fail e =
        finish ~query:q ~mode (encode (Response.error ~request_id ~queue_ms ~query:q ~mode e))
      in
      match
        match engine_name with
        | None -> Ok Executor.Auto
        | Some name -> (
          match Executor.strategy_of_string name with
          | Ok s -> Ok s
          | Error m -> Error (Error.Bad_request m))
      with
      | Error e -> fail e
      | Ok engine -> (
        (* The deadline covers queue wait too: a query that waited past
           its budget times out without executing. *)
        let requested =
          match deadline_ms with Some ms -> Some ms | None -> core.config.default_deadline_ms
        in
        let remaining_ms =
          Option.map
            (fun ms ->
              let elapsed = (Unix.gettimeofday () -. job.enqueued) *. 1000.0 in
              int_of_float (Float.max 0.0 (float_of_int ms -. elapsed)))
            requested
        in
        match remaining_ms with
        | Some 0 ->
          Metrics.incr core.m_timeouts;
          fail (Error.Timeout { deadline_ms = Option.value ~default:0 requested })
        | _ -> (
          (* Stash the profiled result so slow capture can run after the
             request span has closed (the capture then carries the whole
             balanced tree). *)
          let profiled = ref None in
          let xq_result = ref None in
          let outcome =
            Trace.with_span tr
              ~attrs:
                [ ("request_id", Trace.Str request_id); ("queue_ms", Trace.Float queue_ms) ]
              "request"
              (fun _ ->
                match mode with
                | "xpath" ->
                  Result.map
                    (fun (p : Session.profiled) ->
                      profiled := Some p;
                      encode
                        (Response.of_query_result ~request_id ~queue_ms core.session ~query:q
                           p.Session.result))
                    (Session.run_profiled ~engine ~use_cache:(not no_cache)
                       ?deadline_ms:remaining_ms ~trace:tr core.session q)
                | "xquery" ->
                  Result.map
                    (fun (r : Session.xquery_result) ->
                      xq_result := Some r;
                      encode
                        (Response.of_xquery_result ~request_id ~queue_ms core.session ~query:q r))
                    (Session.run_xquery_profiled ~engine ?deadline_ms:remaining_ms ~trace:tr
                       core.session q)
                | other ->
                  Error
                    (Error.Bad_request (Printf.sprintf "unknown mode %S (xpath|xquery)" other)))
          in
          let events = Trace.events tr in
          (match !profiled with Some p -> maybe_capture core ~request_id ~events p q | None -> ());
          (match !xq_result with
          | Some r -> maybe_capture_xquery core ~request_id ~events r q
          | None -> ());
          match outcome with
          | Ok response -> finish ~query:q ~mode response
          | Error (Error.Timeout _) ->
            Metrics.incr core.m_timeouts;
            (* report the deadline the caller asked for, not the queue-
               discounted remainder *)
            fail (Error.Timeout { deadline_ms = Option.value ~default:0 requested })
          | Error e ->
            Metrics.incr core.m_errors;
            fail e))))

(* --- debug endpoints ------------------------------------------------------ *)

let run_debug_queries params =
  let k =
    match Option.bind (List.assoc_opt "k" params) int_of_string_opt with
    | Some k when k > 0 -> k
    | _ -> 20
  in
  match
    match List.assoc_opt "by" params with
    | None -> Some `Total_ms
    | Some s -> Fr.by_of_string s
  with
  | None -> (400, J.to_string (J.Obj [ ("error", J.Str "by must be total_ms|count|max_ms|q_error") ]))
  | Some by ->
    let stats = Fr.top ~k ~by Fr.default in
    ( 200,
      J.to_string
        (J.Obj
           [
             ("queries", J.Arr (List.map Fr.stat_to_json stats));
             ("dropped", J.Num (float_of_int (Fr.dropped Fr.default)));
           ]) )

let run_debug_slow () =
  (200, J.to_string (J.Obj [ ("slow", J.Arr (List.map Fr.capture_to_json (Fr.slow Fr.default))) ]))

let run_debug_request core request_id =
  match find_req_log core request_id with
  | Some events -> (200, Export.to_chrome_json ~process_name:("xqp request " ^ request_id) events)
  | None ->
    ( 404,
      J.to_string
        (J.Obj [ ("error", J.Str (Printf.sprintf "no trace for request %s (evicted or unknown)" request_id)) ]) )

let run_health core =
  match Session.query ~deadline_ms:1000 core.session core.config.canary with
  | Ok nodes ->
    (200, J.to_string (J.Obj [ ("status", J.Str "ok"); ("canary", J.Num (float_of_int (List.length nodes))) ]))
  | Error e -> (500, J.to_string (J.Obj [ ("status", J.Str "error"); ("error", Error.to_json e) ]))

let debug_request_prefix = "/debug/requests/"

(* Answer one request into [body]; returns its status, content type and
   extra headers. *)
let handle_request core job req body tr ~queue_ms =
  let text (status, s) =
    Sink.add_string body s;
    status
  in
  match req.path with
  | "/query" ->
    let request_id = Printf.sprintf "r-%d" (Atomic.fetch_and_add core.next_request 1 + 1) in
    let status = run_query core job req body tr ~request_id ~queue_ms in
    (status, "application/json", [ ("X-Request-Id", request_id) ])
  | "/health" -> (text (run_health core), "application/json", [])
  | "/metrics" ->
    (text (200, Export.to_prometheus Metrics.default), "text/plain; version=0.0.4", [])
  | "/debug/queries" -> (text (run_debug_queries req.params), "application/json", [])
  | "/debug/slow" -> (text (run_debug_slow ()), "application/json", [])
  | path when String.starts_with ~prefix:debug_request_prefix path ->
    let id =
      String.sub path (String.length debug_request_prefix)
        (String.length path - String.length debug_request_prefix)
    in
    (text (run_debug_request core id), "application/json", [])
  | other ->
    Response.write body
      (Response.error ~query:"" ~mode:"xpath"
         (Error.Bad_request (Printf.sprintf "no such endpoint %s" other)));
    (404, "application/json", [])

(* Closing a socket with unread input resets the connection, which can
   destroy a response the client has not read yet. After refusing a
   request unread, half-close so the client sees the response and EOF,
   then discard what it still sends — at most [max_body] bytes, for at
   most one second — before the worker closes the socket. *)
let linger fd =
  let scratch = Bytes.create 4096 in
  let until = Unix.gettimeofday () +. 1.0 in
  let rec drain budget =
    let left = until -. Unix.gettimeofday () in
    if budget > 0 && left > 0.0 then
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ ->
        let n = Unix.read fd scratch 0 (Bytes.length scratch) in
        if n > 0 then drain (budget - n)
  in
  try
    Unix.shutdown fd Unix.SHUTDOWN_SEND;
    drain max_body
  with Unix.Unix_error _ -> ()

(* Per-connection request loop: serve requests back to back while the
   client asks for keep-alive (HTTP/1.1 default). SO_RCVTIMEO is the
   idle timeout — a connection with no next request within it reads as
   EOF and closes. Draining downgrades every response to
   [Connection: close] so stop never waits on idle clients. *)
let handle core job reply tr ~queue_ms ~m_domain_requests ~m_domain_busy =
  let rec loop ~queue_ms =
    match recv_request job.fd with
    | Closed -> ()
    | Refused error ->
      Metrics.incr core.m_requests;
      Response.write reply (Response.error ~query:"" ~mode:"xpath" error);
      respond job.fd reply ~status:(Error.http_status error) ~content_type:"application/json";
      clear_reply reply;
      linger job.fd
    | Request (req, client_keep_alive) ->
      let t0 = Unix.gettimeofday () in
      Metrics.incr core.m_requests;
      Metrics.incr m_domain_requests;
      let status, content_type, extra_headers =
        handle_request core job req reply tr ~queue_ms
      in
      let keep_alive = client_keep_alive && not (Atomic.get core.draining) in
      respond job.fd reply ~status ~content_type ~extra_headers ~keep_alive;
      clear_reply reply;
      let t1 = Unix.gettimeofday () in
      Metrics.add m_domain_busy (int_of_float ((t1 -. t0) *. 1e6));
      Metrics.observe core.m_latency (((t1 -. t0) *. 1000.0) +. queue_ms);
      (* only the first request on a connection waited in the accept queue *)
      if keep_alive then loop ~queue_ms:0.0
  in
  loop ~queue_ms

(* --- domains ------------------------------------------------------------- *)

let worker core index () =
  let m_requests =
    Metrics.counter Metrics.default (Printf.sprintf "serve.domain.%d.requests" index)
  in
  let m_busy = Metrics.counter Metrics.default (Printf.sprintf "serve.domain.%d.busy_us" index) in
  let reply = new_reply () in
  let tr = Trace.create ~capacity:4096 () in
  Trace.set_enabled tr true;
  let rec next () =
    Mutex.lock core.lock;
    let rec await () =
      if not (Queue.is_empty core.queue) then (
        let job = Queue.pop core.queue in
        Metrics.set core.m_queue_depth (float_of_int (Queue.length core.queue));
        Some job)
      else if Atomic.get core.draining then None
      else (
        Condition.wait core.nonempty core.lock;
        await ())
    in
    let job = await () in
    Mutex.unlock core.lock;
    match job with
    | None -> ()
    | Some job ->
      let queue_ms = (Unix.gettimeofday () -. job.enqueued) *. 1000.0 in
      Metrics.observe core.m_queue_wait queue_ms;
      (try handle core job reply tr ~queue_ms ~m_domain_requests:m_requests ~m_domain_busy:m_busy
       with _ -> Metrics.incr core.m_errors);
      (* a request that raised may have left part of its reply behind *)
      clear_reply reply;
      (try Unix.close job.fd with Unix.Unix_error _ -> ());
      next ()
  in
  next ()

(* Admission rejection writes its 503 from the acceptor, after a single
   best-effort read of whatever request bytes arrived (closing with
   unread data would RST the connection under the response). *)
let reject fd reply error =
  (try ignore (Unix.read fd (Bytes.create 4096) 0 4096) with Unix.Unix_error _ -> ());
  clear_reply reply;
  Response.write reply (Response.error ~query:"" ~mode:"xpath" error);
  respond fd reply ~status:(Error.http_status error) ~content_type:"application/json";
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let acceptor_loop core () =
  let reply = new_reply () in
  while Atomic.get core.accepting do
    match Unix.select [ core.listen_fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept core.listen_fd with
      | exception Unix.Unix_error ((EINTR | EAGAIN | EWOULDBLOCK), _, _) -> ()
      | fd, _ ->
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
         with Unix.Unix_error _ -> ());
        Metrics.incr core.m_accepted;
        let enqueued = Unix.gettimeofday () in
        Mutex.lock core.lock;
        if Atomic.get core.draining then (
          Mutex.unlock core.lock;
          Metrics.incr core.m_rejected;
          reject fd reply Error.Shutting_down)
        else if Queue.length core.queue >= core.config.queue_depth then (
          Mutex.unlock core.lock;
          Metrics.incr core.m_rejected;
          reject fd reply (Error.Overloaded { queue_depth = core.config.queue_depth }))
        else (
          Queue.push { fd; enqueued } core.queue;
          Metrics.set core.m_queue_depth (float_of_int (Queue.length core.queue));
          Condition.signal core.nonempty;
          Mutex.unlock core.lock))
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  try Unix.close core.listen_fd with Unix.Unix_error _ -> ()

(* --- lifecycle ----------------------------------------------------------- *)

let start ?(config = default_config) session =
  if config.domains < 1 then invalid_arg "Server.start: domains must be >= 1";
  if config.queue_depth < 1 then invalid_arg "Server.start: queue_depth must be >= 1";
  (* a client hanging up mid-response must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  (try Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port))
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listen_fd 128;
  let port =
    match Unix.getsockname listen_fd with Unix.ADDR_INET (_, p) -> p | _ -> config.port
  in
  let m = Metrics.default in
  let core =
    {
      session;
      config;
      listen_fd;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      accepting = Atomic.make true;
      draining = Atomic.make false;
      next_request = Atomic.make 0;
      req_log =
        {
          rl_guard = Dsan.guard "Server request log";
          rl_slots = Array.make 256 None;
          rl_head = 0;
        };
      m_accepted = Metrics.counter m "serve.accepted";
      m_rejected = Metrics.counter m "serve.rejected";
      m_requests = Metrics.counter m "serve.requests";
      m_errors = Metrics.counter m "serve.errors";
      m_timeouts = Metrics.counter m "serve.timeouts";
      m_slow = Metrics.counter m "serve.slow_captures";
      m_queue_depth = Metrics.gauge m "serve.queue_depth";
      m_latency = Metrics.histogram m "serve.latency_ms";
      m_queue_wait = Metrics.histogram m "serve.queue_wait_ms";
    }
  in
  (* Build the lazy executor artifacts (store, statistics, index) once on
     this domain before workers race for them, and validate the canary. *)
  (match Session.query ~deadline_ms:30_000 session config.canary with
  | Ok _ -> ()
  | Error e ->
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    invalid_arg (Printf.sprintf "Server.start: canary %S failed: %s" config.canary (Error.message e)));
  let workers = Array.init config.domains (fun i -> Domain.spawn (worker core i)) in
  let acceptor = Domain.spawn (acceptor_loop core) in
  { core; port; acceptor; workers }

let stop t =
  (* Stop admitting first; the acceptor exits its select loop and closes
     the listen socket. Then flip draining and wake every worker: each
     finishes the jobs still queued, then exits — in-flight queries are
     never cut off. *)
  Atomic.set t.core.accepting false;
  Domain.join t.acceptor;
  Atomic.set t.core.draining true;
  Mutex.lock t.core.lock;
  Condition.broadcast t.core.nonempty;
  Mutex.unlock t.core.lock;
  Array.iter Domain.join t.workers
