(* The query server (DESIGN.md §12) and the session API it serves.

   Server tests run a real TCP server on an ephemeral loopback port and
   speak HTTP/1.1 to it with plain Unix sockets: concurrent clients on
   separate domains must agree with a single-threaded baseline, deadlines
   must surface as structured timeouts, admission control must shed load
   with 503s once the queue is full, and stop must drain what was
   admitted. Session/Error/Response unit tests cover the redesigned
   façade surface underneath. *)

open Xqp_physical
module Session = Xqp.Session
module Server = Xqp.Server
module Response = Xqp.Response
module Error = Xqp.Error
module Metrics = Xqp_obs.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let bib_session () = Session.of_document (Xqp_workload.Gen_bib.packed ~books:12 ())

(* --- a minimal HTTP client ------------------------------------------- *)

(* One request per connection (we ask for Connection: close), read to
   EOF, split status line + headers from body. *)
let http_request_full ~port ~path ?(meth = "GET") ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let request =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let bytes = Bytes.of_string request in
      let rec send off =
        if off < Bytes.length bytes then
          send (off + Unix.write fd bytes off (Bytes.length bytes - off))
      in
      send 0;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec recv () =
        let n = try Unix.read fd chunk 0 4096 with Unix.Unix_error _ -> 0 in
        if n > 0 then (
          Buffer.add_subbytes buf chunk 0 n;
          recv ())
      in
      recv ();
      let raw = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' raw with _ :: code :: _ -> int_of_string code | _ -> 0
      in
      let headers, body =
        (* find the header/body separator *)
        let rec split i =
          if i + 3 >= String.length raw then ("", "")
          else if String.sub raw i 4 = "\r\n\r\n" then
            (String.sub raw 0 i, String.sub raw (i + 4) (String.length raw - i - 4))
          else split (i + 1)
        in
        split 0
      in
      (status, headers, body))

let http_request ~port ~path ?(meth = "GET") ?(body = "") () =
  let status, _, body = http_request_full ~port ~path ~meth ~body () in
  (status, body)

(* scrape one header value (case-insensitive name) from the raw block *)
let header_value name headers =
  let lower = String.lowercase_ascii in
  List.find_map
    (fun line ->
      let line = String.trim line in
      match String.index_opt line ':' with
      | Some i when lower (String.sub line 0 i) = lower name ->
        Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' headers)

let url_encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let query_url ?(extra = "") q = Printf.sprintf "/query?q=%s%s" (url_encode q) extra

let with_server ?config session f =
  let server = Server.start ?config session in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let decode_ok body =
  match Response.of_string body with
  | Ok { Response.outcome = Ok payload; _ } -> payload
  | Ok { Response.outcome = Error e; _ } ->
    Alcotest.failf "expected ok response, got error %s" (Error.code e)
  | Error m -> Alcotest.failf "undecodable response %S: %s" body m

(* A decoded reply carries its results as strings. *)
let results (payload : Response.payload) =
  match payload.Response.results with
  | Response.Items items -> items
  | Response.Nodes _ -> Alcotest.fail "decoded reply holds node ids"

let decode_error body =
  match Response.of_string body with
  | Ok { Response.outcome = Error e; _ } -> e
  | Ok { Response.outcome = Ok _; _ } -> Alcotest.fail "expected error response, got ok"
  | Error m -> Alcotest.failf "undecodable response %S: %s" body m

(* --- server behavior -------------------------------------------------- *)

let test_basic_query () =
  let session = bib_session () in
  with_server session (fun server ->
      let port = Server.port server in
      let status, body = http_request ~port ~path:(query_url "//book/title") () in
      check_int "status" 200 status;
      let payload = decode_ok body in
      let baseline = Result.get_ok (Session.run session "//book/title") in
      check_int "count" (List.length baseline.Session.nodes) payload.Response.count;
      check_string "first result"
        (Session.node_string session (List.hd baseline.Session.nodes))
        (List.hd (results payload)))

let test_post_json_query () =
  let session = bib_session () in
  with_server session (fun server ->
      let port = Server.port server in
      let status, body =
        http_request ~port ~path:"/query" ~meth:"POST"
          ~body:{|{"q": "count(//book)", "mode": "xquery"}|} ()
      in
      check_int "status" 200 status;
      let payload = decode_ok body in
      check_string "value" "12" (List.hd (results payload)))

let test_concurrent_clients_identical () =
  let session = bib_session () in
  let queries =
    [ "//book/title"; "//book[price]"; "/bib/book/author"; "//book/title"; "//year" ]
  in
  let baseline =
    List.map
      (fun q ->
        let r = Result.get_ok (Session.run session q) in
        List.map (Session.node_string session) r.Session.nodes)
      queries
  in
  let config = { Server.default_config with Server.domains = 4 } in
  with_server ~config session (fun server ->
      let port = Server.port server in
      (* each client domain runs the whole query list a few times *)
      let clients =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                List.concat_map
                  (fun _ ->
                    List.map (fun q -> http_request ~port ~path:(query_url q) ()) queries)
                  [ (); (); () ]))
      in
      let answers = Array.to_list (Array.map Domain.join clients) in
      List.iter
        (fun per_client ->
          List.iteri
            (fun i (status, body) ->
              check_int "status" 200 status;
              let payload = decode_ok body in
              let expected = List.nth baseline (i mod List.length queries) in
              check_bool "results identical to baseline" true
                (results payload = expected))
            per_client)
        answers)

let test_deadline_times_out () =
  let session = bib_session () in
  with_server session (fun server ->
      let port = Server.port server in
      let status, body =
        http_request ~port ~path:(query_url ~extra:"&deadline_ms=0" "//book") ()
      in
      check_int "status" 408 status;
      match decode_error body with
      | Error.Timeout { deadline_ms } -> check_int "deadline echoed" 0 deadline_ms
      | e -> Alcotest.failf "expected timeout, got %s" (Error.code e))

(* Saturate a server whose single worker is pinned: one client sends
   half a request (the worker blocks reading the rest), so the next
   client fills the one-slot queue and every later one must be rejected
   with a structured 503. Releasing the pinned request then drains the
   queue — the admitted requests still answer. *)
let test_admission_rejects_when_full () =
  let session = bib_session () in
  let config = { Server.default_config with Server.domains = 1; queue_depth = 1 } in
  with_server ~config session (fun server ->
      let port = Server.port server in
      let pin = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close pin with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect pin (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let half =
            Printf.sprintf "GET %s HTTP/1.1\r\nHost: l\r\nConnection: close\r\n" (query_url "//book")
          in
          ignore (Unix.write pin (Bytes.of_string half) 0 (String.length half));
          (* let the acceptor admit it and the worker block on its read
             (the accept loop polls every 250 ms) *)
          Unix.sleepf 0.6;
          let clients =
            Array.init 7 (fun _ ->
                Domain.spawn (fun () -> http_request ~port ~path:(query_url "//book/title") ()))
          in
          (* the rejections land immediately; the one admitted client
             stays queued behind the pin — release it before joining *)
          Unix.sleepf 0.8;
          ignore (Unix.write pin (Bytes.of_string "\r\n") 0 2);
          let answers = Array.to_list (Array.map Domain.join clients) in
          let buf = Buffer.create 256 in
          let chunk = Bytes.create 1024 in
          let rec recv () =
            let n = try Unix.read pin chunk 0 1024 with Unix.Unix_error _ -> 0 in
            if n > 0 then (
              Buffer.add_subbytes buf chunk 0 n;
              recv ())
          in
          recv ();
          check_bool "pinned request answered after release" true
            (String.length (Buffer.contents buf) > 0);
          let ok = List.filter (fun (s, _) -> s = 200) answers in
          let rejected = List.filter (fun (s, _) -> s = 503) answers in
          check_int "every client got an answer" 7 (List.length ok + List.length rejected);
          (* one slot in the queue, worker pinned: exactly one of the
             seven can be admitted *)
          check_int "one request admitted" 1 (List.length ok);
          check_int "the rest rejected" 6 (List.length rejected);
          List.iter
            (fun (_, body) ->
              match decode_error body with
              | Error.Overloaded { queue_depth } -> check_int "queue depth" 1 queue_depth
              | Error.Shutting_down -> Alcotest.fail "rejected with shutting-down while serving"
              | e -> Alcotest.failf "expected overloaded, got %s" (Error.code e))
            rejected))

(* Read exactly one response off a reused connection: headers to the
   blank line, then Content-Length bytes — no reading to EOF. *)
let read_response fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let blank_at () =
    let s = Buffer.contents buf in
    let rec go i =
      if i + 3 >= String.length s then None
      else if String.sub s i 4 = "\r\n\r\n" then Some i
      else go (i + 1)
    in
    go 0
  in
  let rec fill_headers () =
    match blank_at () with
    | Some i -> i
    | None ->
      let n = try Unix.read fd chunk 0 4096 with Unix.Unix_error _ -> 0 in
      if n = 0 then Alcotest.fail "connection closed mid-headers"
      else (
        Buffer.add_subbytes buf chunk 0 n;
        fill_headers ())
  in
  let blank = fill_headers () in
  let headers = String.sub (Buffer.contents buf) 0 blank in
  let content_length =
    match Option.bind (header_value "content-length" headers) int_of_string_opt with
    | Some n -> n
    | None -> Alcotest.fail "response without content-length"
  in
  let rec fill_body () =
    if Buffer.length buf < blank + 4 + content_length then (
      let n = try Unix.read fd chunk 0 4096 with Unix.Unix_error _ -> 0 in
      if n = 0 then Alcotest.fail "connection closed mid-body"
      else (
        Buffer.add_subbytes buf chunk 0 n;
        fill_body ()))
  in
  fill_body ();
  let raw = Buffer.contents buf in
  let status =
    match String.split_on_char ' ' raw with _ :: code :: _ -> int_of_string code | _ -> 0
  in
  (status, headers, String.sub raw (blank + 4) content_length)

(* Several requests ride one TCP connection: HTTP/1.1 without a
   Connection header keeps it open, an explicit [Connection: close]
   ends it, and the server counts one accept for the whole exchange. *)
let test_keep_alive_connection () =
  let session = bib_session () in
  with_server session (fun server ->
      let port = Server.port server in
      let v name = Metrics.value (Metrics.counter Metrics.default name) in
      let accepted0 = v "serve.accepted" and requests0 = v "serve.requests" in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let send s =
            let b = Bytes.of_string s in
            let rec go off =
              if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
            in
            go 0
          in
          let conn h = Option.value ~default:"" (header_value "connection" h) in
          send (Printf.sprintf "GET %s HTTP/1.1\r\nHost: l\r\n\r\n" (query_url "//book/title"));
          let s1, h1, b1 = read_response fd in
          check_int "first status" 200 s1;
          check_string "first kept alive" "keep-alive" (conn h1);
          ignore (decode_ok b1);
          (* a POST with a body works on the reused connection too *)
          let body = {|{"q": "//book"}|} in
          send
            (Printf.sprintf "POST /query HTTP/1.1\r\nHost: l\r\nContent-Length: %d\r\n\r\n%s"
               (String.length body) body);
          let s2, h2, b2 = read_response fd in
          check_int "second status" 200 s2;
          check_string "second kept alive" "keep-alive" (conn h2);
          ignore (decode_ok b2);
          send
            (Printf.sprintf "GET %s HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n"
               (query_url "//book/title"));
          let s3, h3, b3 = read_response fd in
          check_int "third status" 200 s3;
          check_string "close honoured" "close" (conn h3);
          ignore (decode_ok b3);
          let n = try Unix.read fd (Bytes.create 16) 0 16 with Unix.Unix_error _ -> 0 in
          check_int "server closed after close" 0 n;
          check_int "one connection accepted" 1 (v "serve.accepted" - accepted0);
          check_int "three requests served" 3 (v "serve.requests" - requests0)))

(* A body over the 1 MiB limit is refused with a structured 413, and a
   malformed Content-Length with a 400; either way the connection closes
   unread: the body bytes (here shaped like a request) and the GET after
   them must not be answered as further requests. *)
let test_oversized_body_refused () =
  let session = bib_session () in
  with_server session (fun server ->
      let exchange content_length =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
            let get = Printf.sprintf "GET %s HTTP/1.1\r\nHost: l\r\n\r\n" (query_url "//book") in
            let request =
              Printf.sprintf "POST /query HTTP/1.1\r\nHost: l\r\nContent-Length: %s\r\n\r\n%s%s"
                content_length get get
            in
            ignore (Unix.write_substring fd request 0 (String.length request));
            let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
            let rec recv () =
              match Unix.read fd chunk 0 4096 with
              | n when n > 0 ->
                Buffer.add_subbytes buf chunk 0 n;
                recv ()
              | _ | (exception Unix.Unix_error _) -> ()
            in
            recv ();
            let raw = Buffer.contents buf in
            let responses =
              String.split_on_char '\n' raw
              |> List.filter (String.starts_with ~prefix:"HTTP/1.1 ")
              |> List.length
            in
            check_int (content_length ^ ": exactly one response") 1 responses;
            let body =
              match String.index_opt raw '{' with
              | Some i -> String.sub raw i (String.length raw - i)
              | None -> ""
            in
            (String.sub raw 9 3, Error.code (decode_error body)))
      in
      check_bool "oversized: 413 payload-too-large" true
        (exchange (string_of_int (2 * 1_048_576)) = ("413", "payload-too-large"));
      check_bool "malformed: 400 bad-request" true (exchange "12x" = ("400", "bad-request")))

let test_graceful_shutdown_drains () =
  let session = bib_session () in
  let config = { Server.default_config with Server.domains = 2 } in
  let server = Server.start ~config session in
  let port = Server.port server in
  (* requests in flight when stop lands must complete, not get cut off *)
  let clients =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (* the listen socket may close before this domain connects
               (or mid-write): that counts as "refused", not a failure *)
            try http_request ~port ~path:(query_url "//book/title") ()
            with Unix.Unix_error _ -> (0, "")))
  in
  Server.stop server;
  let answers = Array.to_list (Array.map Domain.join clients) in
  List.iter
    (fun (status, body) ->
      (* each client either completed (was admitted before the listen
         socket closed) or failed to connect — never a half answer *)
      if status <> 0 then (
        check_int "drained request answered" 200 status;
        ignore (decode_ok body)))
    answers;
  (* port is released after stop: a fresh server can bind and answer *)
  with_server session (fun again ->
      let status, _ = http_request ~port:(Server.port again) ~path:"/health" () in
      check_int "restart healthy" 200 status)

let test_health_and_metrics () =
  let session = bib_session () in
  with_server session (fun server ->
      let port = Server.port server in
      let status, body = http_request ~port ~path:"/health" () in
      check_int "health status" 200 status;
      check_bool "health ok" true
        (match Xqp_obs.Json.(member "status" (parse body)) with
        | Some (Xqp_obs.Json.Str "ok") -> true
        | _ -> false);
      ignore (http_request ~port ~path:(query_url "//book") ());
      let status, metrics = http_request ~port ~path:"/metrics" () in
      check_int "metrics status" 200 status;
      let has needle =
        let n = String.length needle and m = String.length metrics in
        let rec go i = i + n <= m && (String.sub metrics i n = needle || go (i + 1)) in
        go 0
      in
      check_bool "type lines present" true (has "# TYPE");
      check_bool "requests counter" true (has "xqp_serve_requests_total");
      check_bool "queue gauge" true (has "xqp_serve_queue_depth");
      check_bool "latency histogram" true (has "xqp_serve_latency_ms_bucket");
      check_bool "per-domain counters" true (has "xqp_serve_domain_0_requests_total"))

(* --- request ids and the debug endpoints ------------------------------- *)

let decode_response body =
  match Response.of_string body with
  | Ok r -> r
  | Error m -> Alcotest.failf "undecodable response %S: %s" body m

let test_request_id_echo () =
  let session = bib_session () in
  with_server session (fun server ->
      let port = Server.port server in
      let status, headers, body =
        http_request_full ~port ~path:(query_url "//book/title") ()
      in
      check_int "status" 200 status;
      let hdr =
        match header_value "X-Request-Id" headers with
        | Some v -> v
        | None -> Alcotest.fail "no X-Request-Id header"
      in
      let r = decode_response body in
      check_bool "body carries the id" true (r.Response.request_id = Some hdr);
      check_bool "queue wait reported" true
        (match r.Response.queue_ms with Some q -> q >= 0.0 | None -> false);
      (* ids are distinct per request *)
      let _, headers2, body2 = http_request_full ~port ~path:(query_url "//book/title") () in
      let hdr2 = Option.get (header_value "X-Request-Id" headers2) in
      check_bool "second id distinct" true (hdr <> hdr2);
      check_bool "second body matches its header" true
        ((decode_response body2).Response.request_id = Some hdr2))

let test_debug_queries_exact_counts () =
  (* After a recorder reset, n requests for one query across 4 client
     domains must surface in /debug/queries as exactly n — the
     acceptance check for lossless recording under concurrency. *)
  let session = bib_session () in
  let config = { Server.default_config with Server.domains = 4 } in
  with_server ~config session (fun server ->
      let port = Server.port server in
      Xqp_obs.Flight_recorder.reset Xqp_obs.Flight_recorder.default;
      let per_domain = 3 in
      let clients =
        Array.init 4 (fun _ ->
            Domain.spawn (fun () ->
                List.init per_domain (fun _ ->
                    http_request ~port ~path:(query_url "//book/author") ())))
      in
      let answers = Array.to_list (Array.map Domain.join clients) in
      List.iter
        (List.iter (fun (status, _) -> check_int "client ok" 200 status))
        answers;
      let status, body = http_request ~port ~path:"/debug/queries?k=10&by=count" () in
      check_int "debug status" 200 status;
      let json = Xqp_obs.Json.parse body in
      let entries =
        match Xqp_obs.Json.(member "queries" json) with
        | Some (Xqp_obs.Json.Arr l) -> l
        | _ -> Alcotest.fail "no queries array"
      in
      let entry =
        match
          List.find_opt
            (fun e -> Xqp_obs.Json.(member "query" e) = Some (Xqp_obs.Json.Str "//book/author"))
            entries
        with
        | Some e -> e
        | None -> Alcotest.fail "//book/author missing from /debug/queries"
      in
      (match Xqp_obs.Json.(member "count" entry) with
      | Some (Xqp_obs.Json.Num n) ->
        check_int "count equals requests served" (4 * per_domain) (int_of_float n)
      | _ -> Alcotest.fail "entry lacks count");
      (* a bad sort key is a structured 400, not a crash *)
      let status, _ = http_request ~port ~path:"/debug/queries?by=bogus" () in
      check_int "bad sort key rejected" 400 status)

let test_debug_slow_and_request_trace () =
  (* slow_ms = 0 captures everything: the capture must carry the plan
     and per-operator actual-vs-estimated rows, and the request's span
     tree must be retrievable as Chrome trace JSON. *)
  let session = bib_session () in
  let config = { Server.default_config with Server.slow_ms = Some 0.0 } in
  with_server ~config session (fun server ->
      let port = Server.port server in
      Xqp_obs.Flight_recorder.reset Xqp_obs.Flight_recorder.default;
      let status, body = http_request ~port ~path:(query_url "//book/title") () in
      check_int "status" 200 status;
      let rid = Option.get (decode_response body).Response.request_id in
      let status, slow_body = http_request ~port ~path:"/debug/slow" () in
      check_int "slow status" 200 status;
      let slow_json = Xqp_obs.Json.parse slow_body in
      let captures =
        match Xqp_obs.Json.(member "slow" slow_json) with
        | Some (Xqp_obs.Json.Arr l) -> l
        | _ -> Alcotest.fail "no slow array"
      in
      let cap =
        match
          List.find_opt
            (fun c ->
              Xqp_obs.Json.(member "request_id" c) = Some (Xqp_obs.Json.Str rid))
            captures
        with
        | Some c -> c
        | None -> Alcotest.failf "request %s missing from /debug/slow" rid
      in
      (match Xqp_obs.Json.(member "plan" cap) with
      | Some (Xqp_obs.Json.Str plan) -> check_bool "plan rendered" true (String.length plan > 0)
      | _ -> Alcotest.fail "capture lacks plan");
      (match Xqp_obs.Json.(member "operators" cap) with
      | Some (Xqp_obs.Json.Arr (_ :: _ as ops)) ->
        List.iter
          (fun op ->
            check_bool "operator has estimate" true
              (Xqp_obs.Json.(member "est_rows" op) <> None);
            check_bool "operator has actuals" true
              (Xqp_obs.Json.(member "actual_rows" op) <> None))
          ops
      | _ -> Alcotest.fail "capture lacks operators");
      (* the per-request span tree, as Chrome trace JSON *)
      let status, trace_body = http_request ~port ~path:("/debug/requests/" ^ rid) () in
      check_int "trace status" 200 status;
      let events = Xqp_obs.Export.of_chrome_json trace_body in
      check_bool "request span present" true
        (List.exists (fun (e : Xqp_obs.Trace.event) -> e.Xqp_obs.Trace.name = "request") events);
      check_bool "query span nested" true
        (List.exists (fun (e : Xqp_obs.Trace.event) -> e.Xqp_obs.Trace.name = "query") events);
      (match Test_obs.balance_violation events with
      | None -> ()
      | Some why -> Alcotest.failf "span tree unbalanced: %s" why);
      (* unknown ids 404 *)
      let status, _ = http_request ~port ~path:"/debug/requests/r-99999" () in
      check_int "unknown request id 404s" 404 status)

let test_unknown_endpoint_404 () =
  let session = bib_session () in
  with_server session (fun server ->
      let status, _ = http_request ~port:(Server.port server) ~path:"/nope" () in
      check_int "status" 404 status)

(* --- the session façade ----------------------------------------------- *)

let test_session_constructors () =
  (match Session.of_string "<a><b/></a>" with
  | Ok s -> check_int "of_string queries" 1 (List.length (Result.get_ok (Session.query s "//b")))
  | Error e -> Alcotest.failf "of_string failed: %s" (Error.code e));
  (match Session.of_string "<a><unclosed>" with
  | Error (Error.Parse _) -> ()
  | Error e -> Alcotest.failf "expected parse error, got %s" (Error.code e)
  | Ok _ -> Alcotest.fail "malformed XML accepted");
  (match Session.open_db "/nonexistent/missing.xqdb" with
  | Error (Error.Io _) -> ()
  | Error e -> Alcotest.failf "expected io error, got %s" (Error.code e)
  | Ok _ -> Alcotest.fail "missing store opened");
  (match Session.open_db "document.xml" with
  | Error (Error.Bad_request _) -> ()
  | _ -> Alcotest.fail "open_db accepted a non-.xqdb path");
  match Session.parse_file "store.xqdb" with
  | Error (Error.Bad_request _) -> ()
  | _ -> Alcotest.fail "parse_file accepted a .xqdb path"

let test_session_open_db_roundtrip () =
  let session = bib_session () in
  let path = Filename.temp_file "serve_test" ".xqdb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Session.save session path;
      match Session.open_db path with
      | Ok reopened ->
        check_int "same result count"
          (List.length (Result.get_ok (Session.query session "//book")))
          (List.length (Result.get_ok (Session.query reopened "//book")))
      | Error e -> Alcotest.failf "open_db failed: %s" (Error.message e))

let test_session_query_errors () =
  let session = bib_session () in
  (match Session.query session "//book[" with
  | Error (Error.Parse _) -> ()
  | _ -> Alcotest.fail "bad XPath accepted");
  (match Session.xquery session "for $x in" with
  | Error (Error.Parse _) -> ()
  | _ -> Alcotest.fail "bad XQuery accepted");
  match Session.query ~deadline_ms:0 session "//book//title" with
  | Error (Error.Timeout { deadline_ms }) -> check_int "deadline carried" 0 deadline_ms
  | _ -> Alcotest.fail "expired deadline did not time out"

let test_session_run_metadata () =
  let session = bib_session () in
  let r1 = Result.get_ok (Session.run session "//book/title") in
  let r2 = Result.get_ok (Session.run session "//book/title") in
  check_string "first compile misses" "miss" (Executor.cache_status_label r1.Session.cache);
  check_string "second compile hits" "hit" (Executor.cache_status_label r2.Session.cache);
  let bypassed = Result.get_ok (Session.run ~use_cache:false session "//book/title") in
  check_string "no_cache bypasses" "bypassed" (Executor.cache_status_label bypassed.Session.cache);
  check_bool "engine label is concrete" true (r1.Session.engine <> "");
  let nav = Result.get_ok (Session.run ~engine:Executor.Navigation session "//book/title") in
  check_string "navigation labeled" "navigation" nav.Session.engine

let test_explain_reports_cache_and_estimate () =
  let session = bib_session () in
  let q = "//book/author" in
  let first = Result.get_ok (Session.explain session q) in
  let second = Result.get_ok (Session.explain session q) in
  check_string "first explain misses" "miss" (Executor.cache_status_label first.Session.cache);
  check_string "second explain hits" "hit" (Executor.cache_status_label second.Session.cache);
  check_bool "estimate present for pattern query" true (first.Session.estimate <> None);
  check_bool "estimate provenance present" true (first.Session.estimate_source <> None);
  check_bool "chosen engine reported" true (first.Session.chosen <> "");
  (* explain and query agree: the query run right after the explain hits
     the same cached plan *)
  let run = Result.get_ok (Session.run session q) in
  check_string "query hits the explained plan" "hit" (Executor.cache_status_label run.Session.cache);
  let rendered = first.Session.rendered in
  check_bool "rendered mentions cache" true
    (String.length rendered > 0
    &&
    let has needle =
      let n = String.length needle and m = String.length rendered in
      let rec go i = i + n <= m && (String.sub rendered i n = needle || go (i + 1)) in
      go 0
    in
    has "plan cache:" && has "chosen engine:")

let test_first_and_exists () =
  let db = Result.get_ok (Session.of_string "<bib><book><title>T</title></book></bib>") in
  let titles = Result.get_ok (Session.query db "//title") in
  check_int "query" 1 (List.length titles);
  check_bool "exists" true (Result.get_ok (Session.exists db "//book"));
  check_bool "first" true (Result.get_ok (Session.first db "//title") = List.nth_opt titles 0);
  check_string "xquery" "1" (Result.get_ok (Session.xquery_string db "count(//book)"));
  (match (Session.query db "//book[", Session.first db "//book[", Session.exists db "//book[") with
  | Error (Error.Parse _), Error (Error.Parse _), Error (Error.Parse _) -> ()
  | _ -> Alcotest.fail "malformed queries must answer Error (Parse _)");
  let explained = (Result.get_ok (Session.explain db "//book/title")).Session.rendered in
  check_bool "explain has chosen engine" true
    (let has needle =
       let n = String.length needle and m = String.length explained in
       let rec go i = i + n <= m && (String.sub explained i n = needle || go (i + 1)) in
       go 0
     in
     has "chosen engine:")

(* --- the response schema ---------------------------------------------- *)

let test_response_roundtrip () =
  let ok =
    Response.ok ~query:"//book/title" ~mode:"xpath"
      ~results:[ "<title>A</title>"; "<title>B &amp; C</title>" ]
      ~engine:"nok" ~cache:"hit" ~time_ms:1.234 ()
  in
  let errors =
    [
      Error.Parse "unexpected ]";
      Error.Eval "type error";
      Error.Timeout { deadline_ms = 50 };
      Error.Overloaded { queue_depth = 64 };
      Error.Shutting_down;
      Error.Bad_request "missing q";
      Error.Io "no such file";
      Error.Internal "boom";
    ]
  in
  let with_provenance =
    [
      Response.ok ~request_id:"r-7" ~queue_ms:0.125 ~query:"//book" ~mode:"xpath"
        ~results:[ "<book/>" ] ~engine:"nok" ~cache:"miss" ~time_ms:0.5 ();
      Response.error ~request_id:"r-8" ~query:"//x" ~mode:"xpath" (Error.Parse "nope");
    ]
  in
  let all =
    (ok :: List.map (fun e -> Response.error ~query:"//x" ~mode:"xquery" e) errors)
    @ with_provenance
  in
  List.iter
    (fun r ->
      let encoded = Response.to_string r in
      match Response.of_string encoded with
      | Error m -> Alcotest.failf "decode failed: %s (%s)" m encoded
      | Ok decoded ->
        check_string "re-encoding is the identity" encoded (Response.to_string decoded);
        check_int "status preserved" (Response.http_status r) (Response.http_status decoded))
    all

let test_response_http_status () =
  let status e = Error.http_status e in
  check_int "parse is 400" 400 (status (Error.Parse "x"));
  check_int "timeout is 408" 408 (status (Error.Timeout { deadline_ms = 1 }));
  check_int "overloaded is 503" 503 (status (Error.Overloaded { queue_depth = 1 }));
  check_int "shutting-down is 503" 503 (status Error.Shutting_down);
  check_int "internal is 500" 500 (status (Error.Internal "x"))

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "basic query over http" `Quick test_basic_query;
        Alcotest.test_case "post json query" `Quick test_post_json_query;
        Alcotest.test_case "concurrent clients identical to baseline" `Quick
          test_concurrent_clients_identical;
        Alcotest.test_case "deadline expiry times out" `Quick test_deadline_times_out;
        Alcotest.test_case "admission control rejects at capacity" `Quick
          test_admission_rejects_when_full;
        Alcotest.test_case "keep-alive serves several requests per connection" `Quick
          test_keep_alive_connection;
        Alcotest.test_case "oversized body refused with 413" `Quick test_oversized_body_refused;
        Alcotest.test_case "graceful shutdown drains" `Quick test_graceful_shutdown_drains;
        Alcotest.test_case "health and metrics endpoints" `Quick test_health_and_metrics;
        Alcotest.test_case "request ids echoed and distinct" `Quick test_request_id_echo;
        Alcotest.test_case "/debug/queries exact counts under load" `Quick
          test_debug_queries_exact_counts;
        Alcotest.test_case "/debug/slow and per-request traces" `Quick
          test_debug_slow_and_request_trace;
        Alcotest.test_case "unknown endpoint 404s" `Quick test_unknown_endpoint_404;
      ] );
    ( "session",
      [
        Alcotest.test_case "explicit constructors" `Quick test_session_constructors;
        Alcotest.test_case "save/open_db roundtrip" `Quick test_session_open_db_roundtrip;
        Alcotest.test_case "structured query errors" `Quick test_session_query_errors;
        Alcotest.test_case "run metadata: engine and cache status" `Quick
          test_session_run_metadata;
        Alcotest.test_case "explain reports cache and estimate provenance" `Quick
          test_explain_reports_cache_and_estimate;
        Alcotest.test_case "first and exists" `Quick test_first_and_exists;
      ] );
    ( "response",
      [
        Alcotest.test_case "json roundtrip" `Quick test_response_roundtrip;
        Alcotest.test_case "http status mapping" `Quick test_response_http_status;
      ] );
  ]
