(* xqp — command-line front end.

   Subcommands:
     query     run an XPath or XQuery expression against a document
     serve     answer queries over HTTP on a multicore domain pool
     explain   show the logical plan before/after rewriting, the pattern
               graph, its NoK partition, and the cost model's estimates
     stats     print document statistics
     generate  emit a synthetic workload document
     lint      statically check queries (sort checker + schema emptiness)
     fsck      statically validate a saved .xqdb store *)

open Cmdliner
open Xqp_xml
open Xqp_algebra
open Xqp_physical

(* --- document sources ------------------------------------------------ *)

let generated_document spec =
  match String.split_on_char ':' spec with
  | [ "auction"; n ] -> Xqp_workload.Gen_auction.packed ~scale:(int_of_string n) ()
  | [ "auction"; n; s ] ->
    Xqp_workload.Gen_auction.packed ~seed:(int_of_string s) ~scale:(int_of_string n) ()
  | [ "bib"; n ] -> Xqp_workload.Gen_bib.packed ~books:(int_of_string n) ()
  | [ "bib"; n; s ] ->
    Xqp_workload.Gen_bib.packed ~seed:(int_of_string s) ~books:(int_of_string n) ()
  | [ "chain"; n ] ->
    Document.of_tree (Xqp_workload.Gen_synthetic.deep_chain ~depth:(int_of_string n) "a")
  | _ -> failwith "unknown generator; use auction:N[:SEED], bib:N[:SEED] or chain:N"

(* A saved succinct store opens through the one packed-open path: the
   loaded store, its DOM and its summary-derived statistics, no rebuild. *)
let open_store ?pager path =
  Executor.of_packed ?pager ~path (Xqp_storage.Store_io.read_file path)

(* An XML file or a generator spec, parsed or generated into a document. *)
let parsed_document ~file ~gen =
  match (file, gen) with
  | Some path, None -> Document.of_tree (Xml_parser.parse_file ~strip:true path)
  | None, Some spec -> generated_document spec
  | Some _, Some _ -> failwith "give either --file or --gen, not both"
  | None, None -> failwith "a document is required: --file FILE or --gen SPEC"

let refuse_catalog path =
  failwith
    (path
   ^ ": is a corpus catalog (.xqdbc); this command operates on a single document — query, \
      serve and explain accept catalogs, or open one shard's .xqdb directly")

let load_executor ?pager ~file ~gen () =
  match (file, gen) with
  | Some path, None when Xqp_storage.Catalog.is_catalog_path path -> refuse_catalog path
  | Some path, None when Filename.check_suffix path ".xqdb" -> open_store ?pager path
  | _ -> Executor.create ?pager (parsed_document ~file ~gen)

(* Session-level source loading: a [.xqdbc] corpus catalog opens as a
   scatter-gather session and a [.xqdb] store through [Session.open_db]
   (every command goes through the same Session surface); anything else
   packs into a single-document session. *)
let load_session ?(domains = 1) ~file ~gen () =
  match file with
  | Some path
    when Xqp_storage.Catalog.is_catalog_path path || Filename.check_suffix path ".xqdb" -> (
    if gen <> None then failwith "give either --file or --gen, not both";
    match Xqp.Session.open_db ~domains path with
    | Ok session -> session
    | Error e -> failwith (Xqp.Error.message e))
  | _ -> Xqp.Session.of_document (parsed_document ~file ~gen)

let file_arg =
  let doc =
    "XML document to query (.xml), a saved store (.xqdb, see the index command), or a corpus \
     catalog (.xqdbc, see the pack command)."
  in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let gen_arg =
  let doc = "Generate a synthetic document instead: auction:N, bib:N or chain:N." in
  Arg.(value & opt (some string) None & info [ "g"; "gen" ] ~docv:"SPEC" ~doc)

(* Engine names come from the executor itself (strategy_of_string is the
   inverse of strategy_name), so the CLI can never drift from the engine
   list. *)
let strategy_conv =
  let parse s =
    match Executor.strategy_of_string s with Ok v -> Ok v | Error m -> Error (`Msg m)
  in
  let print ppf s = Format.pp_print_string ppf (Executor.strategy_name s) in
  Arg.conv (parse, print)

let strategy_arg =
  let names =
    String.concat ", "
      (List.map Executor.strategy_name (Executor.Auto :: Executor.Reference :: Executor.all_strategies))
  in
  let doc = Printf.sprintf "Physical engine: %s." names in
  Arg.(value & opt strategy_conv Executor.Auto & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

let no_cache_arg =
  let doc = "Bypass the plan cache: parse, rewrite and plan on every execution." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"The query text.")

(* --- query ------------------------------------------------------------ *)

(* --json speaks the exact wire schema of xqp serve (Xqp.Response), so a
   script can develop against the CLI and point at a server unchanged. *)
let run_query_json session strategy no_cache xquery_mode deadline_ms query =
  let response =
    if xquery_mode then
      match Xqp.Session.run_xquery ~engine:strategy ?deadline_ms session query with
      | Ok r -> Xqp.Response.of_xquery_result session ~query r
      | Error e -> Xqp.Response.error ~query ~mode:"xquery" e
    else
      match
        Xqp.Session.run ~engine:strategy ~use_cache:(not no_cache) ?deadline_ms session query
      with
      | Ok r -> Xqp.Response.of_query_result session ~query r
      | Error e -> Xqp.Response.error ~query ~mode:"xpath" e
  in
  print_endline (Xqp.Response.to_string response);
  match response.Xqp.Response.outcome with Ok _ -> 0 | Error _ -> 1

(* --request-trace: run through the session layer under a fresh enabled
   tracer (exactly what the server does per admitted request) and print
   the profile tree plus the per-operator actual-vs-estimated table.
   With --json the profile goes to stderr so the response stays parseable. *)
let run_query_traced session strategy no_cache xquery_mode json deadline_ms limit query =
  let module Tr = Xqp_obs.Trace in
  let tr = Tr.create () in
  Tr.set_enabled tr true;
  let profile_ppf = if json then Format.err_formatter else Format.std_formatter in
  let print_profile ops =
    Format.fprintf profile_ppf "@.request trace:@.%a@." Xqp_obs.Export.pp_profile_tree
      (Tr.events tr);
    if ops <> [] then
      Format.fprintf profile_ppf "operators (actual vs estimated):@.%a" Xqp_obs.Op_row.pp_table ops
  in
  if xquery_mode then (
    match Xqp.Session.run_xquery_profiled ~engine:strategy ?deadline_ms ~trace:tr session query with
    | Ok r ->
      if json then
        print_endline (Xqp.Response.to_string (Xqp.Response.of_xquery_result session ~query r))
      else begin
        let strings = Xqp.Session.xquery_result_strings session r.Xqp.Session.value in
        let shown =
          match limit with Some k -> List.filteri (fun i _ -> i < k) strings | None -> strings
        in
        List.iter print_endline shown;
        Printf.printf "(%d items)\n" (List.length strings)
      end;
      print_profile [];
      0
    | Error e ->
      if json then
        print_endline (Xqp.Response.to_string (Xqp.Response.error ~query ~mode:"xquery" e))
      else prerr_endline ("xqp query: " ^ Xqp.Error.message e);
      1)
  else
    match
      Xqp.Session.run_profiled ~engine:strategy ~use_cache:(not no_cache) ?deadline_ms ~trace:tr
        session query
    with
    | Ok p ->
      let r = p.Xqp.Session.result in
      if json then
        print_endline (Xqp.Response.to_string (Xqp.Response.of_query_result session ~query r))
      else begin
        let nodes = r.Xqp.Session.nodes in
        let shown =
          match limit with Some k -> List.filteri (fun i _ -> i < k) nodes | None -> nodes
        in
        List.iter (fun id -> print_endline (Xqp.Session.node_string session id)) shown;
        Printf.printf "(%d nodes, worst q-error %.2f, %d pages read)\n" (List.length nodes)
          p.Xqp.Session.worst_q_error p.Xqp.Session.pages_read
      end;
      print_profile p.Xqp.Session.ops;
      0
    | Error e ->
      if json then
        print_endline (Xqp.Response.to_string (Xqp.Response.error ~query ~mode:"xpath" e))
      else prerr_endline ("xqp query: " ^ Xqp.Error.message e);
      1

let run_query file gen domains strategy no_cache xquery_mode json deadline_ms limit
    request_trace query =
  let session = load_session ~domains ~file ~gen () in
  Fun.protect
    ~finally:(fun () -> Xqp.Session.close session)
    (fun () ->
      if request_trace then
        run_query_traced session strategy no_cache xquery_mode json deadline_ms limit query
      else if json then run_query_json session strategy no_cache xquery_mode deadline_ms query
      else if xquery_mode then (
        match Xqp.Session.xquery ~engine:strategy ?deadline_ms session query with
        | Ok value ->
          let strings = Xqp.Session.xquery_result_strings session value in
          let shown =
            match limit with Some k -> List.filteri (fun i _ -> i < k) strings | None -> strings
          in
          List.iter print_endline shown;
          Printf.printf "(%d items)\n" (List.length strings);
          0
        | Error e ->
          prerr_endline ("xqp query: " ^ Xqp.Error.message e);
          1)
      else
        match
          Xqp.Session.query ~engine:strategy ~use_cache:(not no_cache) ?deadline_ms session
            query
        with
        | Ok nodes ->
          let shown =
            match limit with Some k -> List.filteri (fun i _ -> i < k) nodes | None -> nodes
          in
          List.iter (fun id -> print_endline (Xqp.Session.node_string session id)) shown;
          Printf.printf "(%d nodes)\n" (List.length nodes);
          0
        | Error e ->
          prerr_endline ("xqp query: " ^ Xqp.Error.message e);
          1)

let deadline_arg =
  let doc = "Abort with a structured timeout once the query has run for $(docv) milliseconds." in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let query_cmd =
  let xquery_flag =
    Arg.(value & flag & info [ "x"; "xquery" ] ~doc:"Treat QUERY as XQuery instead of XPath.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the query response as JSON — the same schema xqp serve answers with \
                   (status, results, count, engine, cache, time_ms). Exit 1 on a query error.")
  in
  let limit_arg =
    Arg.(value & opt (some int) None & info [ "n"; "limit" ] ~docv:"N" ~doc:"Print at most $(docv) results.")
  in
  let request_trace_flag =
    Arg.(value & flag
         & info [ "request-trace" ]
             ~doc:"Run under a request-scoped tracer (as the server does per request) and print \
                   the span profile tree plus a per-operator actual-vs-estimated row table. \
                   With --json the profile goes to stderr.")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"For a corpus catalog: scatter-gather execution across shards on $(docv) \
                   worker domains (1 = serial).")
  in
  let term =
    Term.(const run_query $ file_arg $ gen_arg $ domains_arg $ strategy_arg $ no_cache_arg
          $ xquery_flag $ json_flag $ deadline_arg $ limit_arg $ request_trace_flag $ query_arg)
  in
  Cmd.v (Cmd.info "query" ~doc:"Run a query against a document or corpus catalog") term

(* --- serve -------------------------------------------------------------- *)

let run_serve file gen domains port queue deadline_ms slow_ms log_path =
  (* a corpus catalog scatter-gathers each query across its shards on the
     same number of domains the HTTP workers get *)
  let session = load_session ~domains ~file ~gen () in
  let config =
    {
      Xqp.Server.default_config with
      Xqp.Server.port;
      domains;
      queue_depth = queue;
      default_deadline_ms = deadline_ms;
      slow_ms;
      log_path;
    }
  in
  let server = Xqp.Server.start ~config session in
  Printf.printf "xqp serve: listening on %s:%d (%d domains, queue %d%s)\n%!" config.Xqp.Server.host
    (Xqp.Server.port server) domains queue
    (match deadline_ms with
    | Some ms -> Printf.sprintf ", default deadline %d ms" ms
    | None -> "");
  let stop_requested = Atomic.make false in
  let on_signal _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  while not (Atomic.get stop_requested) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Printf.printf "xqp serve: shutting down (draining in-flight queries)\n%!";
  Xqp.Server.stop server;
  Xqp.Session.close session;
  Printf.printf "xqp serve: stopped\n%!";
  0

let serve_cmd =
  let domains_arg =
    Arg.(value & opt int 2
         & info [ "domains" ] ~docv:"N" ~doc:"Worker domains answering queries in parallel.")
  in
  let port_arg =
    Arg.(value & opt int 8080
         & info [ "p"; "port" ] ~docv:"PORT"
             ~doc:"TCP port to listen on (loopback); 0 picks an ephemeral port and prints it.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission bound: connections beyond $(docv) queued requests are rejected \
                   immediately with 503 instead of piling up latency.")
  in
  let serve_deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Default per-query deadline (queue wait included) for requests that don't \
                   set their own; unset means unbounded.")
  in
  let slow_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Capture any query at or over $(docv) milliseconds into the slow-query ring \
                   (full plan + per-operator actual-vs-estimated rows + request trace), served \
                   at /debug/slow.")
  in
  let log_arg =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Append one JSON line per served query to $(docv) (rotation-safe: the file is \
                   reopened per entry).")
  in
  let term =
    Term.(const run_serve $ file_arg $ gen_arg $ domains_arg $ port_arg $ queue_arg
          $ serve_deadline_arg $ slow_arg $ log_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a document over HTTP on a multicore domain pool: /query answers XPath/XQuery \
          with the JSON response schema (request ids echoed as X-Request-Id), /health probes a \
          canary query, /metrics exposes the metrics registry in Prometheus text format, and \
          /debug/queries, /debug/slow and /debug/requests/ID expose the query flight recorder; \
          SIGINT/SIGTERM drain and exit")
    term

(* --- top ---------------------------------------------------------------- *)

(* Minimal loopback HTTP client (the bench harness uses the same shape):
   one request per connection, whole response buffered. *)
let top_http_get ~host ~port ~path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      Unix.connect fd (Unix.ADDR_INET (addr, port));
      let request =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" path host
      in
      let bytes = Bytes.of_string request in
      let rec send off =
        if off < Bytes.length bytes then
          send (off + Unix.write fd bytes off (Bytes.length bytes - off))
      in
      send 0;
      let chunk = Bytes.create 8192 in
      let buf = Buffer.create 1024 in
      let rec recv () =
        let n = try Unix.read fd chunk 0 8192 with Unix.Unix_error _ -> 0 in
        if n > 0 then (
          Buffer.add_subbytes buf chunk 0 n;
          recv ())
      in
      recv ();
      let raw = Buffer.contents buf in
      let sep = "\r\n\r\n" in
      let rec find i =
        if i + String.length sep > String.length raw then None
        else if String.sub raw i (String.length sep) = sep then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i ->
        let start = i + String.length sep in
        String.sub raw start (String.length raw - start)
      | None -> failwith "malformed HTTP response")

(* "http://127.0.0.1:8080", "127.0.0.1:8080" or ":8080" (loopback). *)
let top_parse_url url =
  let url =
    match String.index_opt url '/' with
    | Some _ when String.length url > 7 && String.sub url 0 7 = "http://" ->
      String.sub url 7 (String.length url - 7)
    | _ -> url
  in
  let url = match String.index_opt url '/' with Some i -> String.sub url 0 i | None -> url in
  match String.rindex_opt url ':' with
  | Some i -> (
    let host = if i = 0 then "127.0.0.1" else String.sub url 0 i in
    match int_of_string_opt (String.sub url (i + 1) (String.length url - i - 1)) with
    | Some port -> (host, port)
    | None -> failwith (Printf.sprintf "bad port in %S" url))
  | None -> (url, 8080)

let top_truncate width s =
  let s = String.map (fun c -> if c = '\n' || c = '\t' then ' ' else c) s in
  if String.length s <= width then s else String.sub s 0 (width - 1) ^ "…"

let top_render ~url ~by json =
  let member f j = Xqp_obs.Json.member f j in
  let num f j = Option.value ~default:0.0 (Option.bind (member f j) Xqp_obs.Json.to_num) in
  let str f j = Option.value ~default:"" (Option.bind (member f j) Xqp_obs.Json.to_str) in
  let queries = Option.bind (member "queries" json) Xqp_obs.Json.to_arr in
  match queries with
  | None -> Printf.printf "xqp top: response from %s lacks \"queries\"\n%!" url
  | Some rows ->
    Printf.printf "xqp top — %s   sort: %s   fingerprints: %d   dropped: %.0f\n" url by
      (List.length rows)
      (Option.value ~default:0.0 (Option.bind (member "dropped" json) Xqp_obs.Json.to_num));
    Printf.printf "%7s %9s %8s %8s %8s %7s %8s %6s %-7s %s\n" "count" "total_ms" "p50_ms"
      "p99_ms" "max_ms" "q-err" "rows" "hit%" "mode" "query";
    List.iter
      (fun row ->
        let count = num "count" row in
        let hits = num "cache_hits" row in
        Printf.printf "%7.0f %9.1f %8.1f %8.1f %8.1f %7.2f %8.0f %5.0f%% %-7s %s\n" count
          (num "total_ms" row) (num "p50_ms" row) (num "p99_ms" row) (num "max_ms" row)
          (num "worst_q_error" row) (num "rows" row)
          (if count > 0.0 then 100.0 *. hits /. count else 0.0)
          (str "mode" row)
          (top_truncate 48 (str "query" row)))
      rows;
    flush stdout

let run_top url by k interval once =
  match by with
  | ("total_ms" | "count" | "max_ms" | "q_error") -> (
    let host, port = top_parse_url url in
    let fetch () =
      Xqp_obs.Json.parse
        (top_http_get ~host ~port ~path:(Printf.sprintf "/debug/queries?k=%d&by=%s" k by))
    in
    if once then (
      match fetch () with
      | json ->
        top_render ~url ~by json;
        0
      | exception e ->
        Printf.eprintf "xqp top: %s\n" (Printexc.to_string e);
        1)
    else begin
      (* live mode: clear and redraw until interrupted *)
      let rec loop () =
        (match fetch () with
        | json ->
          print_string "\027[2J\027[H";
          top_render ~url ~by json;
          Printf.printf "\n(refresh every %.1fs; ctrl-c to quit)\n%!" interval
        | exception e -> Printf.printf "xqp top: %s\n%!" (Printexc.to_string e));
        Unix.sleepf interval;
        loop ()
      in
      loop ()
    end)
  | other ->
    Printf.eprintf "xqp top: unknown sort key %S (total_ms|count|max_ms|q_error)\n" other;
    2

let top_cmd =
  let url_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"URL" ~doc:"Server base URL (http://host:port).")
  in
  let by_arg =
    Arg.(value & opt string "total_ms"
         & info [ "by"; "sort" ] ~docv:"KEY"
             ~doc:"Sort key: total_ms, count, max_ms or q_error.")
  in
  let k_arg =
    Arg.(value & opt int 20 & info [ "k" ] ~docv:"N" ~doc:"Show the top $(docv) fingerprints.")
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval in live mode.")
  in
  let once_flag =
    Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit (no screen clearing).")
  in
  let term =
    Term.(const run_top $ url_arg $ by_arg $ k_arg $ interval_arg $ once_flag)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running server's query flight recorder: renders /debug/queries as a \
          table of per-fingerprint counts, latency percentiles, worst q-error and cache hit \
          rate, re-sorted by --by and refreshed every --interval seconds")
    term

(* --- explain ----------------------------------------------------------- *)

(* XPath queries of the built-in workload (the FLWOR suite is XQuery and
   has no single plan to explain). *)
let workload_xpath_queries () =
  List.map
    (fun (q : Xqp_workload.Queries.query) -> (q.Xqp_workload.Queries.id, q.Xqp_workload.Queries.xpath))
    (Xqp_workload.Queries.auction_paths @ Xqp_workload.Queries.auction_complexity_sweep)

(* Prints one report; returns the spans an --analyze run recorded. *)
let explain_one exec ?session ~strategy ~analyze ~rewrites ~use_cache query =
  let explained = Profile.explain exec ~strategy ~rewrites ~use_cache query in
  Format.printf "%s" explained.Profile.rendered;
  let physical = explained.Profile.physical in
  let context = [ Operators.document_context ] in
  let print_rows = Format.printf "operators:@.%a" Xqp_obs.Op_row.pp_table in
  match session with
  | Some s ->
    (* Corpus catalog: the exec above is the merged-summary planner, whose
       document is a stub — execute through the session so the result line
       reflects the scatter-gather merge across shards. Per-operator
       actuals across the corpus come from `query --request-trace`. *)
    (match Xqp.Session.run ~use_cache s query with
    | Ok r ->
      print_rows (Profile.rows_of_physical physical);
      Format.printf "result:          %d nodes in %.1f ms (scatter-gather, engine=%s)@."
        (List.length r.Xqp.Session.nodes) r.Xqp.Session.time_ms r.Xqp.Session.engine;
      []
    | Error e -> failwith (Xqp.Error.message e))
  | None ->
  if analyze then begin
    let t0 = Sys.time () in
    let result, rows, events = Profile.analyze_physical exec physical ~context in
    let elapsed_ms = (Sys.time () -. t0) *. 1000.0 in
    print_rows rows;
    Format.printf "result:          %d nodes in %.1f ms@." (List.length result) elapsed_ms;
    events
  end
  else begin
    print_rows (Profile.rows_of_physical physical);
    let t0 = Sys.time () in
    let result = Executor.run_physical exec physical ~context in
    Format.printf "result:          %d nodes in %.1f ms@." (List.length result)
      ((Sys.time () -. t0) *. 1000.0);
    []
  end

let run_explain file gen strategy analyze rewrites trace_out no_cache workload queries =
  (* A corpus catalog explains through the session layer: the same
     merged-summary planner executor the scatter-gather path compiles
     against, so estimates and plan-cache behavior match execution. *)
  let session =
    match file with
    | Some path when Xqp_storage.Catalog.is_catalog_path path -> Some (load_session ~file ~gen ())
    | _ -> None
  in
  let exec =
    match session with
    | Some s -> Xqp.Session.executor s
    | None ->
      (* Attach a pager so the simulated-I/O counters are live under
         --analyze; plain explain never forces the store. *)
      load_executor ~pager:(Xqp_storage.Pager.create ()) ~file ~gen ()
  in
  Fun.protect ~finally:(fun () -> Option.iter Xqp.Session.close session) @@ fun () ->
  let queries =
    match (workload, queries) with
    | true, [] -> workload_xpath_queries ()
    | false, [ q ] -> [ ("query", q) ]
    | false, (_ :: _ as qs) -> List.mapi (fun i q -> (Printf.sprintf "query %d" (i + 1), q)) qs
    | true, _ :: _ -> failwith "give either QUERY arguments or --workload, not both"
    | false, [] -> failwith "a query is required (or use --workload)"
  in
  let all_events = ref [] in
  (* Each analyzed query records into a fresh tracer, so ids and
     timestamps begin at 0 again; shift every batch past the previous one
     so the concatenated export still has unique ids and disjoint
     intervals. *)
  let next_id = ref 0 and next_t = ref 0.0 in
  let append_events events =
    let module Tr = Xqp_obs.Trace in
    let base_id = !next_id and base_t = !next_t in
    let shifted =
      List.map
        (fun (e : Tr.event) ->
          {
            e with
            Tr.id = e.Tr.id + base_id;
            parent = (if e.Tr.parent = -1 then -1 else e.Tr.parent + base_id);
            t0 = e.Tr.t0 +. base_t;
            t1 = e.Tr.t1 +. base_t;
          })
        events
    in
    List.iter
      (fun (e : Tr.event) ->
        if e.Tr.id >= !next_id then next_id := e.Tr.id + 1;
        if e.Tr.t1 > !next_t then next_t := e.Tr.t1)
      shifted;
    all_events := !all_events @ shifted
  in
  List.iteri
    (fun i (id, q) ->
      if i > 0 then Format.printf "@.";
      if List.length queries > 1 then Format.printf "=== %s: %s@." id q;
      let events =
        explain_one exec ?session ~strategy ~analyze ~rewrites ~use_cache:(not no_cache) q
      in
      if trace_out <> None then append_events events)
    queries;
  (match trace_out with
  | None -> ()
  | Some path ->
    if not analyze then failwith "--trace-out requires --analyze";
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Xqp_obs.Export.to_chrome_json !all_events));
    Format.printf "trace:           wrote %s (%d spans)@." path (List.length !all_events));
  0

let explain_cmd =
  let analyze =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Execute the plan with tracing and show actual per-operator cardinality, \
                   time and I/O next to the estimates.")
  in
  let rewrites =
    Arg.(value & flag
         & info [ "rewrites" ] ~doc:"Show each rewrite rule that fired (stage, rule, operator counts).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"With --analyze: write the recorded spans as Chrome trace_event JSON \
                   (load in chrome://tracing or Perfetto).")
  in
  let workload =
    Arg.(value & flag
         & info [ "workload" ] ~doc:"Explain every XPath query of the built-in workload suite.")
  in
  let queries =
    Arg.(value & pos_all string []
         & info [] ~docv:"QUERY"
             ~doc:"Query text; repeat to explain several in one process (a repeated query \
                   demonstrates a plan-cache hit).")
  in
  let term =
    Term.(const run_explain $ file_arg $ gen_arg $ strategy_arg $ analyze $ rewrites
          $ trace_out $ no_cache_arg $ workload $ queries)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show plans, rewriting, partition, cost estimates and (with --analyze) measured \
             per-operator cardinality, time and I/O")
    term

(* --- calibrate ---------------------------------------------------------- *)

(* Downward plans — child/attribute/self axes only, no // anywhere — are
   the ones the path summary answers with exact path counts, so they get
   their own (much tighter) q-error gate. *)
let rec downward_plan (p : Logical_plan.t) =
  match p with
  | Logical_plan.Root | Logical_plan.Context -> true
  | Logical_plan.Union (a, b) -> downward_plan a && downward_plan b
  | Logical_plan.Step (base, s) ->
    downward_plan base
    && (match s.Logical_plan.axis with
       | Xqp_algebra.Axis.Child | Xqp_algebra.Axis.Attribute | Xqp_algebra.Axis.Self -> true
       | _ -> false)
  | Logical_plan.Tpm (base, pattern) ->
    downward_plan base
    && List.for_all
         (fun v ->
           match Pattern_graph.parent pattern v with
           | Some (_, (Pattern_graph.Child | Pattern_graph.Attribute)) | None -> true
           | Some (_, _) -> false)
         (List.init (Pattern_graph.vertex_count pattern) (fun i -> i))

(* --- calibrate --cost ------------------------------------------------------ *)

(* The fit's documents: the document perfbench serves (auction:300000,
   seed 1) and one a third of its size, so each unit is seen at two
   scales. *)
let cost_fit_documents = [ "auction:300000:1"; "auction:100000:1" ]

(* Auto's engine may cost at most this much more than the cheapest one,
   both read off the engines' own counts. *)
let cost_gate = 1.15

(* Each (document, query, engine) is timed as the best of this many warm
   runs; the weights module is written at this path, from the root of a
   checkout. *)
let cost_runs = 5
let cost_weights_path = "lib/physical/cost_weights.ml"

let workload_patterns () =
  List.filter_map
    (fun (id, xpath) ->
      match Rewrite.optimize (Xqp_xpath.Parser.parse xpath) with
      | Logical_plan.Tpm (Logical_plan.Root, pattern) -> Some (id, pattern)
      | _ -> None)
    (workload_xpath_queries ())

let best_of_ns runs f =
  ignore (Sys.opaque_identity (f ()));
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best *. 1e9

let dot w x =
  let acc = ref 0.0 in
  Array.iteri (fun i wi -> acc := !acc +. (wi *. x.(i))) w;
  !acc

(* Least squares with non-negative coefficients over (units, ns) rows.
   An engine has at most three units, so every subset of free
   coefficients is solved exactly by its normal equations and the best
   all-non-negative solution wins: the non-negative optimum without an
   active-set iteration. *)
let nnls rows =
  let k = match rows with (x, _) :: _ -> Array.length x | [] -> 0 in
  let solve subset =
    let m = Array.length subset in
    let a = Array.make_matrix m (m + 1) 0.0 in
    List.iter
      (fun (x, y) ->
        Array.iteri
          (fun i p ->
            Array.iteri (fun j q -> a.(i).(j) <- a.(i).(j) +. (x.(p) *. x.(q))) subset;
            a.(i).(m) <- a.(i).(m) +. (x.(p) *. y))
          subset)
      rows;
    let exception Singular in
    try
      for c = 0 to m - 1 do
        let pivot = ref c in
        for r = c + 1 to m - 1 do
          if Float.abs a.(r).(c) > Float.abs a.(!pivot).(c) then pivot := r
        done;
        if Float.abs a.(!pivot).(c) < 1e-12 then raise Singular;
        let tmp = a.(c) in
        a.(c) <- a.(!pivot);
        a.(!pivot) <- tmp;
        for r = 0 to m - 1 do
          if r <> c then begin
            let f = a.(r).(c) /. a.(c).(c) in
            for j = c to m do
              a.(r).(j) <- a.(r).(j) -. (f *. a.(c).(j))
            done
          end
        done
      done;
      let w = Array.make k 0.0 in
      Array.iteri (fun i p -> w.(p) <- a.(i).(m) /. a.(i).(i)) subset;
      if Array.for_all (fun x -> x >= 0.0) w then Some w else None
    with Singular -> None
  in
  let sse w = List.fold_left (fun acc (x, y) -> acc +. ((y -. dot w x) ** 2.0)) 0.0 rows in
  let best = ref (Array.make k 0.0) in
  for mask = 1 to (1 lsl k) - 1 do
    let subset = Array.of_list (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init k Fun.id)) in
    match solve subset with
    | Some w when sse w < sse !best -> best := w
    | Some _ | None -> ()
  done;
  !best

let weights_ident = function
  | Cost_model.Naive_nav -> "navigation"
  | Cost_model.Nok_navigation -> "nok"
  | Cost_model.Twig_join -> "twigstack"
  | Cost_model.Binary_joins -> "binary"

let write_weights path ~weights =
  let oc = open_out path in
  Printf.fprintf oc
    "(* Generated by `xqp calibrate --cost`; do not edit by hand.\n\n\
    \   Nanoseconds per work unit, in Cost_model.unit_names order: the\n\
    \   non-negative least-squares fit of the best of %d runs of every\n\
    \   workload query on every engine, measured on a %d-core host\n\
    \   (OCaml %s) over\n\
    \     %s. *)\n\n"
    cost_runs (Domain.recommended_domain_count ()) Sys.ocaml_version
    (String.concat " and " cost_fit_documents);
  List.iter
    (fun (e, w) ->
      Printf.fprintf oc "let %s = [ %s ]\n" (weights_ident e)
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.4f") w))))
    weights;
  close_out oc

let pp_units ppf u =
  Format.pp_print_string ppf
    (String.concat "/" (Array.to_list (Array.map (Printf.sprintf "%.0f") u)))

(* Fit: count and time every (document, query, engine), fit each
   engine's weights, report the fit and the choices it makes, and write
   the weights module. *)
let run_cost_fit () =
  let samples =
    List.concat_map
      (fun spec ->
        let exec = Executor.create (generated_document spec) in
        let stats = Executor.statistics exec in
        Format.printf "%s: %d nodes@." spec (Document.node_count (Executor.doc exec));
        List.concat_map
          (fun (id, pattern) ->
            List.filter_map
              (fun e ->
                if not (Cost_model.supports pattern e) then None
                else begin
                  let counted = Executor.count_units exec e pattern in
                  let ns = best_of_ns cost_runs (fun () -> Executor.count_units exec e pattern) in
                  let estimated = Cost_model.estimate_units stats pattern e in
                  Format.printf "  %-4s %-12s %9.3f ms  counted %a  estimated %a@." id
                    (Cost_model.engine_name e) (ns /. 1e6) pp_units counted pp_units estimated;
                  Some (spec, id, e, counted, estimated, ns)
                end)
              Cost_model.all_engines)
          (workload_patterns ()))
      cost_fit_documents
  in
  let weights =
    List.map
      (fun e ->
        let rows =
          List.filter_map
            (fun (_, _, e', counted, _, ns) -> if e' = e then Some (counted, ns) else None)
            samples
        in
        (e, nnls rows))
      Cost_model.all_engines
  in
  let weight e = List.assoc e weights in
  Format.printf "@.fitted ns per unit:@.";
  List.iter
    (fun (e, w) ->
      let names = Cost_model.unit_names e in
      Format.printf "  %-12s %s@." (Cost_model.engine_name e)
        (String.concat "  "
           (Array.to_list (Array.mapi (fun i x -> Printf.sprintf "%s=%.4f" names.(i) x) w))))
    weights;
  (* The choices the new weights make, against the measured fastest. *)
  let argmin f rows =
    List.fold_left (fun best r -> if f r < f best then r else best) (List.hd rows) (List.tl rows)
  in
  let cases = List.sort_uniq compare (List.map (fun (spec, id, _, _, _, _) -> (spec, id)) samples) in
  Format.printf "@.%-18s %-4s  %-12s %9s  %-12s %9s@." "document" "id" "chosen" "ms" "fastest" "ms";
  let chosen_total = ref 0.0 and best_total = ref 0.0 in
  List.iter
    (fun (spec, id) ->
      let rows = List.filter (fun (spec', id', _, _, _, _) -> (spec', id') = (spec, id)) samples in
      let _, _, chosen, _, _, c =
        argmin (fun (_, _, e, _, estimated, _) -> dot (weight e) estimated) rows
      in
      let _, _, fastest, _, _, b = argmin (fun (_, _, _, _, _, ns) -> ns) rows in
      chosen_total := !chosen_total +. c;
      best_total := !best_total +. b;
      Format.printf "%-18s %-4s  %-12s %9.3f  %-12s %9.3f@." spec id
        (Cost_model.engine_name chosen) (c /. 1e6) (Cost_model.engine_name fastest) (b /. 1e6))
    cases;
  Format.printf "chosen total %.1f ms, fastest-per-query total %.1f ms (%.2fx)@."
    (!chosen_total /. 1e6) (!best_total /. 1e6) (!chosen_total /. !best_total);
  write_weights cost_weights_path ~weights;
  Format.printf "wrote %s@." cost_weights_path;
  0

(* Check: with the checked-in weights, Auto's engine must cost at most
   [cost_gate] times the cheapest engine's, both read off counted units,
   on every workload query. Deterministic: no clocks, no file written. *)
let run_cost_check exec =
  let stats = Executor.statistics exec in
  Format.printf "weights x counted units, in ms:@.";
  Format.printf "%-4s  %-12s %10s  %-12s %10s  %6s  %12s %12s@." "id" "auto" "ms" "cheapest" "ms"
    "ratio" "nav visits" "nav est";
  let failures =
    List.filter
      (fun (id, pattern) ->
        let costs = Executor.counted_costs exec pattern in
        let chosen = Cost_model.choose stats pattern in
        let cheapest, low =
          List.fold_left (fun (be, bc) (e, c) -> if c < bc then (e, c) else (be, bc))
            (List.hd costs) (List.tl costs)
        in
        let cost = List.assoc chosen costs in
        let ratio = cost /. Float.max 1.0 low in
        let visits = (Executor.count_units exec Cost_model.Naive_nav pattern).(0) in
        let estimated = (Cost_model.estimate_units stats pattern Cost_model.Naive_nav).(0) in
        Format.printf "%-4s  %-12s %10.3f  %-12s %10.3f  %6.2f  %12.0f %12.0f%s@." id
          (Cost_model.engine_name chosen) (cost /. 1e6) (Cost_model.engine_name cheapest)
          (low /. 1e6) ratio visits estimated
          (if ratio > cost_gate then Printf.sprintf "  <-- over %.2fx" cost_gate else "");
        ratio > cost_gate)
      (workload_patterns ())
  in
  if failures = [] then begin
    Format.printf "cost gate: Auto within %.2fx of the cheapest engine on every query@." cost_gate;
    0
  end
  else begin
    Format.printf "cost gate: %d queries over %.2fx@." (List.length failures) cost_gate;
    1
  end

let run_calibrate file gen threshold gate worst_n no_summary cost check =
  if cost && not check then run_cost_fit ()
  else if cost then
    run_cost_check
      (match (file, gen) with
      | None, None -> Executor.create (generated_document (List.hd cost_fit_documents))
      | _ -> load_executor ~file ~gen ())
  else
  let exec =
    match (file, gen) with
    | None, None -> Executor.create (Xqp_workload.Gen_auction.packed ~scale:600 ())
    | _ -> load_executor ~file ~gen ()
  in
  let stats = Executor.statistics exec in
  let rows =
    List.map
      (fun (id, xpath) ->
        let optimized = Rewrite.optimize (Xqp_xpath.Parser.parse xpath) in
        let est, src =
          Cost_model.estimate_plan_detail stats ~use_summary:(not no_summary) optimized
        in
        let actual = List.length (Executor.execute exec (Executor.Plan optimized)) in
        (* q-error: multiplicative distance between estimate and truth,
           with both sides floored at 1 so empty results stay finite *)
        let q_error =
          let e = Float.max 1.0 est and a = Float.max 1.0 (float_of_int actual) in
          Float.max (e /. a) (a /. e)
        in
        (id, xpath, est, actual, q_error, src, downward_plan optimized))
      (workload_xpath_queries ())
  in
  Format.printf "%-4s  %10s  %8s  %8s  %-6s  %s@." "id" "est" "actual" "q-error" "source" "";
  let flagged = ref 0 in
  List.iter
    (fun (id, _, est, actual, q, src, _) ->
      let flag = if q > threshold then Printf.sprintf "  <-- q-error > %.0f" threshold else "" in
      if q > threshold then incr flagged;
      Format.printf "%-4s  %10.1f  %8d  %8.2f  %-6s%s@." id est actual q
        (Statistics.source_label src) flag)
    rows;
  let worst = List.fold_left (fun acc (_, _, _, _, q, _, _) -> Float.max acc q) 1.0 rows in
  Format.printf "%d queries, %d flagged (q-error > %.0f), worst q-error %.2f@."
    (List.length rows) !flagged threshold worst;
  (match worst_n with
  | None -> ()
  | Some n ->
    (* markdown worst-N table, ready to paste into EXPERIMENTS.md *)
    let sorted =
      List.sort (fun (_, _, _, _, qa, _, _) (_, _, _, _, qb, _, _) -> compare qb qa) rows
    in
    let top = List.filteri (fun i _ -> i < n) sorted in
    Format.printf "@.worst %d patterns by q-error:@." (List.length top);
    Format.printf "| id | xpath | est | actual | q-error | source |@.";
    Format.printf "|----|-------|----:|-------:|--------:|--------|@.";
    List.iter
      (fun (id, xpath, est, actual, q, src, _) ->
        Format.printf "| %s | `%s` | %.1f | %d | %.2f | %s |@." id xpath est actual q
          (Statistics.source_label src))
      top);
  match gate with
  | None -> 0
  | Some g ->
    let bad = List.filter (fun (_, _, _, _, q, _, down) -> down && q > g) rows in
    if bad = [] then begin
      Format.printf "gate: all downward-path queries within q-error %.2f@." g;
      0
    end
    else begin
      List.iter
        (fun (id, xpath, _, _, q, _, _) ->
          Format.printf "gate: %s (%s) has q-error %.2f > %.2f@." id xpath q g)
        bad;
      1
    end

let calibrate_cmd =
  let threshold =
    Arg.(value & opt float 10.0
         & info [ "threshold" ] ~docv:"Q" ~doc:"Flag queries whose q-error exceeds $(docv).")
  in
  let gate =
    Arg.(value & opt (some float) None
         & info [ "gate-downward" ] ~docv:"Q"
             ~doc:"Exit non-zero if any downward-only (child/attribute axes) query has \
                   q-error above $(docv); these are exactly the queries the path summary \
                   should answer (near-)exactly.")
  in
  let worst_n =
    Arg.(value & opt (some int) None
         & info [ "worst" ] ~docv:"N"
             ~doc:"Also print the $(docv) worst patterns as a markdown table.")
  in
  let no_summary =
    Arg.(value & flag
         & info [ "no-summary" ]
             ~doc:"Estimate with the legacy tag-pair statistics only (ignore the path \
                   summary) — the before side of the PSUM experiment.")
  in
  let cost =
    Arg.(value & flag
         & info [ "cost" ]
             ~doc:"Fit the engines' time model instead: run every workload query on every \
                   supported engine over auction:300000:1 and auction:100000:1 (best of 5 \
                   warm runs), fit nanoseconds per counted work unit by non-negative least \
                   squares and write lib/physical/cost_weights.ml (run from the root of a \
                   checkout, then rebuild).")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"With $(b,--cost): write nothing; exit non-zero if, under the checked-in \
                   weights, Auto's engine costs more than 1.15x the cheapest engine on any \
                   workload query, both costed from the units the engines count (default \
                   document auction:300000:1).")
  in
  let term =
    Term.(const run_calibrate $ file_arg $ gen_arg $ threshold $ gate $ worst_n $ no_summary
          $ cost $ check)
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Compare the cost model's estimated cardinality with actual results over the \
             workload queries (q-error per query; default document auction:600); with \
             $(b,--cost), fit or check the engines' time model")
    term

(* --- stats ------------------------------------------------------------- *)

let run_stats file gen =
  let exec = load_executor ~file ~gen () in
  Format.printf "%a@." Document.pp_stats (Executor.doc exec);
  Format.printf "%a@." Statistics.pp (Executor.statistics exec);
  let store = Executor.store exec in
  Format.printf "succinct store: %a@." Xqp_storage.Succinct_store.pp_footprint
    (Xqp_storage.Succinct_store.footprint store);
  0

let stats_cmd =
  let term = Term.(const run_stats $ file_arg $ gen_arg) in
  Cmd.v (Cmd.info "stats" ~doc:"Print document and storage statistics") term

(* --- generate ---------------------------------------------------------- *)

let run_generate spec output =
  let tree =
    match String.split_on_char ':' spec with
    | [ "auction"; n ] -> Xqp_workload.Gen_auction.document ~scale:(int_of_string n) ()
    | [ "bib"; n ] -> Xqp_workload.Gen_bib.document ~books:(int_of_string n) ()
    | [ "chain"; n ] -> Xqp_workload.Gen_synthetic.deep_chain ~depth:(int_of_string n) "a"
    | _ -> failwith "unknown generator; use auction:N, bib:N or chain:N"
  in
  (match output with
  | Some path ->
    Serializer.to_file ~indent:2 ~declaration:true path tree;
    Printf.printf "wrote %s (%d nodes)\n" path (Tree.node_count tree)
  | None -> print_endline (Serializer.to_string ~indent:2 tree));
  0

let generate_cmd =
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc:"auction:N, bib:N or chain:N.") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE") in
  let term = Term.(const run_generate $ spec $ output) in
  Cmd.v (Cmd.info "generate" ~doc:"Emit a synthetic workload document") term

(* --- index ------------------------------------------------------------- *)

let run_index file gen output =
  let store = Executor.store (load_executor ~file ~gen ()) in
  Xqp_storage.Store_io.save store output;
  let f = Xqp_storage.Succinct_store.footprint store in
  Printf.printf "wrote %s: %d nodes, %d bytes in memory\n" output
    (Xqp_storage.Succinct_store.node_count store)
    (Xqp_storage.Succinct_store.total_bytes f);
  0

let index_cmd =
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE.xqdb"
           ~doc:"Store file to write.")
  in
  let term = Term.(const run_index $ file_arg $ gen_arg $ output) in
  Cmd.v (Cmd.info "index" ~doc:"Build and save a succinct store (.xqdb)") term

(* --- pack --------------------------------------------------------------- *)

let run_pack corpus shards output gens files =
  if not corpus then failwith "pack packs a corpus catalog; pass --corpus";
  let named_files =
    List.map
      (fun path ->
        ( Filename.basename path,
          fun () ->
            if Filename.check_suffix path ".xqdb" then Executor.doc (open_store path)
            else Document.of_tree (Xml_parser.parse_file ~strip:true path) ))
      files
  in
  let named_gens = List.map (fun spec -> (spec, fun () -> generated_document spec)) gens in
  let docs = named_files @ named_gens in
  if docs = [] then failwith "nothing to pack: give XML files and/or --gen SPEC (repeatable)";
  let cat = Xqp_storage.Catalog.pack ~shards ~output docs in
  let module C = Xqp_storage.Catalog in
  Printf.printf "wrote %s: %d documents in %d shards (merged summary: %d paths)\n" output
    (C.doc_count cat) (C.shard_count cat)
    (Xqp_storage.Path_summary.length cat.C.merged);
  Array.iter
    (fun (s : C.shard) ->
      Printf.printf "  %s: %d documents\n" s.C.shard_path (Array.length s.C.doc_names))
    cat.C.shards;
  0

let pack_cmd =
  let corpus_flag =
    Arg.(value & flag
         & info [ "corpus" ]
             ~doc:"Pack many documents into sharded store containers plus a catalog with \
                   per-shard and merged path summaries.")
  in
  let shards_arg =
    Arg.(value & opt int 4
         & info [ "shards" ] ~docv:"N"
             ~doc:"Shard container count (clamped to the document count); documents are \
                   partitioned contiguously in argument order.")
  in
  let output_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE.xqdbc" ~doc:"Catalog file to write.")
  in
  let gens_arg =
    Arg.(value & opt_all string []
         & info [ "g"; "gen" ] ~docv:"SPEC"
             ~doc:"Generate a document into the corpus: auction:N[:SEED], bib:N[:SEED] or \
                   chain:N. Repeatable; generated documents follow the file arguments.")
  in
  let files_arg =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"XML documents (or .xqdb stores).")
  in
  let term =
    Term.(const run_pack $ corpus_flag $ shards_arg $ output_arg $ gens_arg $ files_arg)
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Pack a corpus: many documents into N sharded .xqdb containers plus a .xqdbc catalog \
          (shard manifest, per-shard path summaries, merged summary) that query/serve/explain \
          open transparently and plan once against")
    term

(* --- pages ------------------------------------------------------------- *)

let run_pages file query =
  if not (Filename.check_suffix file ".xqdb") then
    failwith "pages works on saved stores; build one with: xqp index -f doc.xml -o doc.xqdb";
  (* indexes (tag streams) live in RAM, data pages on disk *)
  let doc = Executor.doc (open_store file) in
  let paged = Xqp_storage.Paged_store.open_store file in
  let pool = Xqp_storage.Paged_store.pool paged in
  let pattern = Xqp_xpath.Parser.parse_pattern query in
  let context = [ Operators.document_context ] in
  let run () = Nok_paged.match_pattern doc paged pattern ~context in
  Xqp_storage.Buffer_pool.drop_cache pool;
  Xqp_storage.Buffer_pool.reset_stats pool;
  let result = run () in
  let cold = Xqp_storage.Buffer_pool.stats pool in
  Xqp_storage.Buffer_pool.reset_stats pool;
  ignore (run ());
  let warm = Xqp_storage.Buffer_pool.stats pool in
  let results = match result with (_, ns) :: _ -> List.length ns | [] -> 0 in
  let page_count = (Xqp_storage.Buffer_pool.file_size pool + 4095) / 4096 in
  Format.printf "results:    %d nodes@." results;
  Format.printf "file:       %d pages@." page_count;
  Format.printf "cold run:   %a@." Xqp_storage.Buffer_pool.pp_stats cold;
  Format.printf "warm run:   %a@." Xqp_storage.Buffer_pool.pp_stats warm;
  Xqp_storage.Paged_store.close paged;
  0

let pages_cmd =
  let file =
    Arg.(required & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE.xqdb"
           ~doc:"Saved store to query.")
  in
  let term = Term.(const run_pages $ file $ query_arg) in
  Cmd.v
    (Cmd.info "pages" ~doc:"Run NoK against the disk-resident store and report page faults")
    term

(* --- repl -------------------------------------------------------------- *)

let run_repl file gen =
  (match (file, gen) with
  | Some path, None when Xqp_storage.Catalog.is_catalog_path path -> refuse_catalog path
  | _ -> ());
  let session = load_session ~file ~gen () in
  let exec = Xqp.Session.executor session in
  let doc = Executor.doc exec in
  Format.printf "xqp repl — %a@." Document.pp_stats doc;
  Format.printf "XPath by default; prefix with 'xq ' for XQuery, 'explain ' for plans; ctrl-d quits.@.";
  let rec loop () =
    Format.printf "xqp> %!";
    match In_channel.input_line stdin with
    | None -> Format.printf "@."
    | Some "" -> loop ()
    | Some line ->
      (try
         if String.length line > 3 && String.equal (String.sub line 0 3) "xq " then begin
           let q = String.sub line 3 (String.length line - 3) in
           let value = Xqp_xquery.Eval.eval_query exec q in
           List.iter
             (fun t -> print_endline (Serializer.to_string t))
             (Xqp_xquery.Eval.result_trees exec value);
           Format.printf "(%d items)@." (List.length value)
         end
         else if String.length line > 8 && String.equal (String.sub line 0 8) "explain " then begin
           let q = String.sub line 8 (String.length line - 8) in
           let plan = Xqp_xpath.Parser.parse q in
           Format.printf "optimized: %a@." Logical_plan.pp (Rewrite.optimize plan)
         end
         else begin
           let nodes = Executor.execute exec (Executor.Query line) in
           List.iteri
             (fun i id -> if i < 20 then Format.printf "%s@." (Xqp.Session.node_string session id))
             nodes;
           Format.printf "(%d nodes)@." (List.length nodes)
         end
       with
      | Xqp_xpath.Parser.Parse_error m -> Format.printf "parse error: %s@." m
      | Xqp_xpath.Lexer.Lex_error { message; _ } -> Format.printf "lex error: %s@." message
      | Xqp_xquery.Xq_parser.Parse_error { position; message } ->
        Format.printf "parse error at %d: %s@." position message
      | Xqp_xquery.Eval.Error m -> Format.printf "error: %s@." m
      | Failure m -> Format.printf "error: %s@." m);
      loop ()
  in
  loop ();
  0

let repl_cmd =
  let term = Term.(const run_repl $ file_arg $ gen_arg) in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive query shell") term

(* --- lint --------------------------------------------------------------- *)

module Analysis = Xqp_analysis

(* Every path expression embedded in an XQuery AST, with the checker
   context its base implies. *)
let rec plans_of_expr (e : Xqp_xquery.Ast.expr) =
  let module A = Xqp_xquery.Ast in
  match e with
  | A.Path (base, plan) ->
    let context =
      match base with
      | A.From_root -> Analysis.Plan_check.document_context
      | A.From_context -> Analysis.Plan_check.any_node
      | A.From_expr sub ->
        ignore (plans_of_expr sub);
        Analysis.Plan_check.any_node
    in
    let sub = match base with A.From_expr sub -> plans_of_expr sub | _ -> [] in
    sub @ [ (context, plan) ]
  | A.Literal_int _ | A.Literal_float _ | A.Literal_string _ | A.Doc_root | A.Var _ -> []
  | A.Sequence es -> List.concat_map plans_of_expr es
  | A.Flwor f ->
    List.concat_map
      (fun (c : A.clause) ->
        match c with
        | A.For_clause (_, _, e) | A.Let_clause (_, e) | A.Where_clause e -> plans_of_expr e
        | A.Order_by keys -> List.concat_map (fun (e, _) -> plans_of_expr e) keys)
      f.A.clauses
    @ plans_of_expr f.A.return_
  | A.Constructor c -> plans_of_constructor c
  | A.Binop (_, a, b) -> plans_of_expr a @ plans_of_expr b
  | A.If_then_else (a, b, c) -> plans_of_expr a @ plans_of_expr b @ plans_of_expr c
  | A.Call (_, args) -> List.concat_map plans_of_expr args
  | A.Quantified (_, binds, body) ->
    List.concat_map (fun (_, e) -> plans_of_expr e) binds @ plans_of_expr body

and plans_of_constructor (c : Xqp_xquery.Ast.constructor) =
  let module A = Xqp_xquery.Ast in
  List.concat_map
    (fun (_, pieces) ->
      List.concat_map
        (function A.Attr_expr e -> plans_of_expr e | A.Attr_text _ -> [])
        pieces)
    c.A.attrs
  @ List.concat_map
      (function
        | A.Fixed_text _ -> []
        | A.Embedded e -> plans_of_expr e
        | A.Nested nested -> plans_of_constructor nested)
      c.A.content

(* The workload schemas the emptiness analysis runs against: summaries of
   small auction and bib instances (the generators are deterministic and
   structurally complete at these scales). *)
let workload_schema () =
  Analysis.Schema_info.merge
    (Analysis.Schema_info.of_document (Xqp_workload.Gen_auction.packed ~scale:600 ()))
    (Analysis.Schema_info.of_document (Xqp_workload.Gen_bib.packed ~books:8 ()))

(* With --json every diagnostic becomes one object per line (the query or
   audit label is prepended to [path]), so CI and editors can consume the
   report without scraping the human rendering. *)
let emit_diag ~json ~label d =
  let d = Analysis.Diagnostic.with_path label d in
  if json then
    Format.printf "%s@." (Xqp_obs.Json.to_string (Analysis.Diagnostic.to_json d))
  else Format.printf "  %a@." Analysis.Diagnostic.pp d

let lint_one ~schema ~strict ~verbose ~json label kind text =
  let plans =
    match kind with
    | `Xpath ->
      [ (Analysis.Plan_check.document_context, Xqp_xpath.Parser.parse text) ]
    | `Xquery -> plans_of_expr (Xqp_xquery.Xq_parser.parse text)
  in
  if verbose then begin
    Format.printf "%s: %s@." label text;
    List.iter
      (fun (_, plan) ->
        let _, fires = Rewrite.optimize_traced plan in
        if fires = [] then Format.printf "  (no rewrite rule fired)@."
        else List.iter (fun f -> Format.printf "  %a@." Rewrite.pp_rule_fire f) fires)
      plans
  end;
  let diags =
    List.concat_map
      (fun (context, plan) -> snd (Analysis.Lint.verified_optimize ~context ~schema plan))
      plans
  in
  (* verified_optimize checks the same plan at three rule stages; collapse
     repeats of one finding so the report stays readable *)
  let seen = Hashtbl.create 8 in
  let diags =
    List.filter
      (fun d ->
        let key = (d.Analysis.Diagnostic.code, d.Analysis.Diagnostic.message) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      diags
  in
  if diags <> [] then begin
    if not json then Format.printf "%s: %s@." label text;
    List.iter (emit_diag ~json ~label) diags
  end;
  Analysis.Lint.acceptable ~strict diags

let run_lint strict verbose json domains xquery_mode workload queries =
  let schema = workload_schema () in
  let ok = ref true in
  let catching label text f =
    let parse_failure what msg =
      ok := false;
      if json then emit_diag ~json ~label (Analysis.Diagnostic.error ~code:what msg)
      else Format.printf "%s: %s@.  %s: %s@." label text what msg
    in
    match f () with
    | passed -> if not passed then ok := false
    | exception Xqp_xpath.Parser.Parse_error m -> parse_failure "parse/error" m
    | exception Xqp_xpath.Lexer.Lex_error { message; _ } -> parse_failure "lex/error" message
    | exception Xqp_xquery.Xq_parser.Parse_error { position; message } ->
      parse_failure "parse/error" (Printf.sprintf "at %d: %s" position message)
  in
  let checked = ref 0 in
  if domains then begin
    incr checked;
    let diags = Analysis.Domain_check.audit [ "lib" ] in
    if not json then
      if diags = [] then Format.printf "domains: every toplevel mutable site is annotated@."
      else Format.printf "domains:@.";
    List.iter (emit_diag ~json ~label:"domains") diags;
    if not (Analysis.Lint.acceptable ~strict diags) then ok := false
  end;
  if workload then begin
    List.iter
      (fun (q : Xqp_workload.Queries.query) ->
        incr checked;
        catching q.Xqp_workload.Queries.id q.Xqp_workload.Queries.xpath (fun () ->
            lint_one ~schema ~strict ~verbose ~json q.Xqp_workload.Queries.id `Xpath
              q.Xqp_workload.Queries.xpath))
      (Xqp_workload.Queries.auction_paths @ Xqp_workload.Queries.auction_complexity_sweep);
    List.iter
      (fun (id, text) ->
        incr checked;
        catching id text (fun () -> lint_one ~schema ~strict ~verbose ~json id `Xquery text))
      Xqp_workload.Queries.bib_flwor
  end;
  List.iteri
    (fun i text ->
      incr checked;
      let label = Printf.sprintf "query %d" (i + 1) in
      catching label text (fun () ->
          lint_one ~schema ~strict ~verbose ~json label
            (if xquery_mode then `Xquery else `Xpath)
            text))
    queries;
  if !checked = 0 then begin
    Format.printf "nothing to lint: give queries, --workload or --domains@.";
    1
  end
  else begin
    if not json then
      Format.printf "%s: %d check%s@."
        (if !ok then "ok" else "FAILED")
        !checked
        (if !checked = 1 then "" else "s");
    if !ok then 0 else 1
  end

let lint_cmd =
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings (e.g. schema emptiness) as fatal.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Also print the rewrite trace (which rules fired) for every query.")
  in
  let xquery_flag =
    Arg.(value & flag & info [ "x"; "xquery" ] ~doc:"Treat the queries as XQuery instead of XPath.")
  in
  let workload =
    Arg.(value & flag & info [ "workload" ] ~doc:"Lint every query in the built-in workload suite.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one JSON object per diagnostic (severity, code, path, message) instead \
                   of the human report.")
  in
  let domains =
    Arg.(value & flag
         & info [ "domains" ]
             ~doc:"Audit lib/ for toplevel mutable state missing from the domain-safety \
                   annotation table (same pass as scripts/mutaudit).")
  in
  let queries = Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc:"Queries to check.") in
  let term =
    Term.(const run_lint $ strict $ verbose $ json $ domains $ xquery_flag $ workload $ queries)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check queries: parse, rewrite rule by rule, sort-check every plan and \
          pattern graph, and flag name tests unsatisfiable under the workload schemas; with \
          $(b,--domains), audit the library for unannotated global mutable state")
    term

(* --- fsck --------------------------------------------------------------- *)

let run_fsck strict file =
  let diags = Analysis.Store_check.fsck file in
  if diags = [] then begin
    Format.printf "%s: clean@." file;
    0
  end
  else begin
    Format.printf "%s:@.%a" file Analysis.Diagnostic.pp_report diags;
    if Analysis.Lint.acceptable ~strict diags then 0 else 1
  end

let fsck_cmd =
  let strict = Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as fatal.") in
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Saved store (.xqdb) or corpus catalog (.xqdbc) to check.")
  in
  let term = Term.(const run_fsck $ strict $ file) in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Statically validate a saved .xqdb store (parenthesis balance, excess directory, tag \
          and offset tables, content rank samples, rebuilt content B+-tree) or a .xqdbc corpus \
          catalog (shard manifest, per-document stores, merged-summary and stats-version \
          invariants) — reporting every finding, not just the first")
    term

(* --- validate ----------------------------------------------------------- *)

let run_validate paths =
  let failures = ref 0 in
  List.iter
    (fun path ->
      match Xml_parser.parse_file path with
      | tree ->
        Printf.printf "%s: well-formed (%d nodes, depth %d)\n" path (Tree.node_count tree)
          (Tree.depth tree)
      | exception Sax.Parse_error { line; column; message } ->
        incr failures;
        Printf.printf "%s:%d:%d: %s\n" path line column message
      | exception Sys_error m ->
        incr failures;
        Printf.printf "%s\n" m)
    paths;
  if !failures > 0 then 1 else 0

let validate_cmd =
  let paths = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"XML files.") in
  let term = Term.(const run_validate $ paths) in
  Cmd.v (Cmd.info "validate" ~doc:"Check well-formedness; print position of the first error") term

(* --- main -------------------------------------------------------------- *)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "xqp" ~version:"1.0.0" ~doc:"XML query processing and optimization" in
  let group =
    Cmd.group ~default info
      [
        query_cmd; serve_cmd; top_cmd; explain_cmd; calibrate_cmd; stats_cmd; generate_cmd; index_cmd;
        pack_cmd; pages_cmd; repl_cmd; validate_cmd; lint_cmd; fsck_cmd;
      ]
  in
  exit (Cmd.eval' group)
