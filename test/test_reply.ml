(* The reply path (DESIGN.md §12): XPath results are written straight
   from the document's pre-order arrays into one buffer, and the server
   sends that buffer as it stands.

   The reference encoder of the earlier design lives here and only here
   — rebuild a Tree.t per result ([Document.to_tree]), render it
   ([Serializer.to_string]), and wrap the strings in a [Json.t] object —
   and random documents full of escapes must encode byte-identically
   both ways. A golden HTTP exchange pins the wire format, and the
   header reader is driven through split, large and oversized heads. *)

open Xqp_xml
module Session = Xqp.Session
module Server = Xqp.Server
module Response = Xqp.Response
module Error = Xqp.Error
module J = Xqp_obs.Json

let qcheck = QCheck_alcotest.to_alcotest
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- the reference encoder --------------------------------------------- *)

let reference_node_string doc id =
  match Document.kind doc id with
  | Document.Attribute ->
    Printf.sprintf "@%s=\"%s\"" (Document.name doc id) (Document.content doc id)
  | Document.Text -> Document.content doc id
  | _ -> Serializer.to_string (Document.to_tree doc id)

let round3 ms = Float.round (ms *. 1000.0) /. 1000.0

let reference_body ?request_id ?queue_ms ~query ~mode outcome =
  let base =
    [ ("query", J.Str query); ("mode", J.Str mode) ]
    @ (match request_id with Some id -> [ ("request_id", J.Str id) ] | None -> [])
    @ match queue_ms with Some q -> [ ("queue_ms", J.Num (round3 q)) ] | None -> []
  in
  let rest =
    match outcome with
    | Ok (results, engine, cache, time_ms) ->
      [
        ("status", J.Str "ok");
        ("results", J.Arr (List.map (fun s -> J.Str s) results));
        ("count", J.Num (float_of_int (List.length results)));
        ("engine", J.Str engine);
        ("cache", J.Str cache);
        ("time_ms", J.Num (round3 time_ms));
      ]
    | Error e -> [ ("status", J.Str "error"); ("error", Error.to_json e) ]
  in
  J.to_string (J.Obj (base @ rest))

(* The inside of a JSON string literal, as the reference escapes it. *)
let json_inside s =
  let quoted = J.to_string (J.Str s) in
  String.sub quoted 1 (String.length quoted - 2)

(* --- random documents full of escapes ----------------------------------- *)

let gen_text =
  let open QCheck2.Gen in
  let piece =
    oneof
      [
        oneofl
          [
            "&"; "<"; ">"; "\""; "'"; "\\"; "caf\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80";
            "plain"; " "; "\x7f";
          ];
        map (fun c -> String.make 1 (Char.chr c)) (int_range 1 0x1f);
      ]
  in
  map (String.concat "") (list_size (int_bound 6) piece)

let gen_tree =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "item"; "x-y" ] in
  sized
  @@ fix (fun self n ->
         let leaf =
           frequency
             [
               (4, map Tree.text gen_text);
               (1, map (fun s -> Tree.Comment s) gen_text);
               (1, map2 (fun t b -> Tree.Pi (t, b)) (oneofl [ "pi"; "xml-stylesheet" ]) gen_text);
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 3,
                 let* name = tag in
                 let* attrs = list_size (int_bound 3) (pair (oneofl [ "k"; "id"; "v" ]) gen_text) in
                 let* kids = list_size (int_bound 4) (self (n / 2)) in
                 let attrs = List.sort_uniq (fun (k1, _) (k2, _) -> compare k1 k2) attrs in
                 return (Tree.elt ~attrs name kids) );
             ])

let gen_doc =
  let open QCheck2.Gen in
  let* kids = list_size (int_bound 5) gen_tree in
  return (Document.of_tree (Tree.elt ~attrs:[ ("r", "\"\\") ] "root" kids))

let print_doc doc = Serializer.to_string (Document.to_tree doc (Document.root doc))

(* The rows [Document.add_item] writes as the XML of their subtree: an
   attribute or a text node row is its unescaped content instead, and
   text is written escaped inside its parent's subtree. *)
let subtree_row doc id =
  match Document.kind doc id with
  | Document.Element | Document.Comment | Document.Pi -> true
  | Document.Text | Document.Attribute -> false

let subtree_string ~json doc id =
  let sink = Sink.create 64 in
  Document.add_item ~json sink doc id;
  Sink.contents sink

(* Every element, comment and PI subtree, plain and JSON, against the
   reference. The first pass writes a fresh document — the root's write
   finds every escape flag unknown — and the second writes it with the
   flags filled; both give the same bytes. *)
let prop_add_node_matches_tree =
  QCheck2.Test.make ~name:"Document.add_subtree = to_string (to_tree), plain and JSON" ~count:300
    ~print:print_doc gen_doc (fun doc ->
      let ok = ref true in
      for _pass = 1 to 2 do
        for id = 0 to Document.node_count doc - 1 do
          if subtree_row doc id then begin
            let expected = Serializer.to_string (Document.to_tree doc id) in
            if
              subtree_string ~json:false doc id <> expected
              || subtree_string ~json:true doc id <> json_inside expected
            then ok := false
          end
        done
      done;
      !ok)

let gen_reply =
  let open QCheck2.Gen in
  let* doc = gen_doc in
  let n = Document.node_count doc in
  let* picks = list_size (int_bound 8) (int_bound (n - 1)) in
  let* request_id = opt (oneofl [ "r-1"; "r-\"42\"" ]) in
  let* queue_ms = opt (float_bound_inclusive 50.0) in
  let* query = gen_text in
  let* time_ms = float_bound_inclusive 1000.0 in
  return (doc, List.sort_uniq compare picks, request_id, queue_ms, query, time_ms)

let prop_response_matches_reference =
  QCheck2.Test.make ~name:"Response.to_string = reference encoder over random documents"
    ~count:300
    ~print:(fun (doc, picks, _, _, q, _) ->
      Printf.sprintf "%s\nnodes %s\nquery %S" (print_doc doc)
        (String.concat "," (List.map string_of_int picks))
        q)
    gen_reply
    (fun (doc, nodes, request_id, queue_ms, query, time_ms) ->
      let session = Session.of_document doc in
      let result =
        { Session.nodes; engine = "nok"; cache = Xqp_physical.Executor.Cache_hit; time_ms }
      in
      let encode () =
        Response.to_string (Response.of_query_result ?request_id ?queue_ms session ~query result)
      in
      let expected =
        reference_body ?request_id ?queue_ms ~query ~mode:"xpath"
          (Ok (List.map (reference_node_string doc) nodes, "nok", "hit", time_ms))
      in
      (* flags unknown, then filled *)
      let first = encode () in
      let second = encode () in
      first = expected && second = expected
      && Session.to_xml session nodes
         = String.concat "" (List.map (reference_node_string doc) nodes))

(* Two domains write the same fresh document at once. Each may find a
   node's escape flag unknown and store it; both store the same value,
   so both must still produce the reference bytes. *)
let prop_concurrent_writers =
  QCheck2.Test.make ~name:"two domains writing one document give the reference bytes" ~count:60
    ~print:print_doc gen_doc (fun doc ->
      (* every subtree row, JSON at odd ids, each followed by '|' *)
      let ids = List.filter (subtree_row doc) (List.init (Document.node_count doc) Fun.id)
      in
      let expected =
        String.concat ""
          (List.map
             (fun id ->
               let xml = Serializer.to_string (Document.to_tree doc id) in
               (if id land 1 = 1 then json_inside xml else xml) ^ "|")
             ids)
      in
      let ready = Atomic.make 0 in
      let write () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        let sink = Sink.create 64 in
        List.iter
          (fun id ->
            Document.add_item ~json:(id land 1 = 1) sink doc id;
            Sink.add_char sink '|')
          ids;
        Sink.contents sink
      in
      let other = Domain.spawn write in
      let mine = write () in
      let theirs = Domain.join other in
      mine = expected && theirs = expected)

(* Every byte, alone and in one run, escapes as the JSON printer does. *)
let test_json_escapes_every_byte () =
  let raw s =
    let sink = Sink.create 8 in
    Entity.add (Entity.json Entity.raw) sink s;
    Sink.contents sink
  in
  for c = 0 to 255 do
    let s = String.make 1 (Char.chr c) in
    check_string (Printf.sprintf "byte 0x%02x" c) (json_inside s) (raw s)
  done;
  let all = String.init 256 Char.chr in
  check_string "all bytes in one run" (json_inside all) (raw all)

(* String items, an empty XPath result and every error shape encode as
   the reference does, with and without provenance. *)
let test_items_empty_and_errors () =
  let session = Result.get_ok (Session.of_string "<a><b>x</b></a>") in
  List.iter
    (fun (request_id, queue_ms) ->
      let empty =
        {
          Session.nodes = [];
          engine = "navigation";
          cache = Xqp_physical.Executor.Cache_miss;
          time_ms = 0.25;
        }
      in
      check_string "empty result"
        (reference_body ?request_id ?queue_ms ~query:"//zz" ~mode:"xpath"
           (Ok ([], "navigation", "miss", 0.25)))
        (Response.to_string
           (Response.of_query_result ?request_id ?queue_ms session ~query:"//zz" empty));
      let items = [ "<b>x</b>"; "a\"b\\c\n\x01"; "" ] in
      check_string "string items"
        (reference_body ?request_id ?queue_ms ~query:"q" ~mode:"xquery"
           (Ok (items, "xquery", "-", 1.5)))
        (Response.to_string
           (Response.ok ?request_id ?queue_ms ~query:"q" ~mode:"xquery" ~results:items
              ~engine:"xquery" ~cache:"-" ~time_ms:1.5 ()));
      List.iter
        (fun e ->
          check_string ("error " ^ Error.code e)
            (reference_body ?request_id ?queue_ms ~query:"//x\"" ~mode:"xpath" (Error e))
            (Response.to_string
               (Response.error ?request_id ?queue_ms ~query:"//x\"" ~mode:"xpath" e)))
        [
          Error.Parse "unexpected \"]\"";
          Error.Timeout { deadline_ms = 50 };
          Error.Overloaded { queue_depth = 64 };
          Error.Payload_too_large { limit_bytes = 1_048_576 };
          Error.Internal "boom\n";
        ])
    [ (None, None); (Some "r-9", Some 0.0625) ]

(* --- allocation ------------------------------------------------------------ *)

let take n l = List.filteri (fun i _ -> i < n) l

(* Minor words one [Response.write] of [nodes] takes in a warm worker
   sink. *)
let reply_words session nodes =
  let sink = Server.new_reply () in
  let response =
    Response.of_query_result session ~query:"//q"
      { Session.nodes; engine = "nok"; cache = Xqp_physical.Executor.Cache_hit; time_ms = 1.5 }
  in
  let write () =
    Server.clear_reply sink;
    Response.write sink response
  in
  write ();
  let w0 = Gc.minor_words () in
  write ();
  let w1 = Gc.minor_words () in
  w1 -. w0

(* A 5,000-row reply costs a warm sink the same words as a 10-row one:
   none per row, on a document and on a corpus. *)
let test_reply_allocation () =
  let doc =
    Document.of_tree
      (Tree.elt "r"
         (List.init 1700 (fun i ->
              Tree.elt
                ~attrs:[ ("k", string_of_int i) ]
                "e"
                [ Tree.text (if i mod 3 = 0 then "a&b\"c" else "plain"); Tree.Comment "c" ])))
  in
  (* elements, attributes, texts and comments *)
  let rows = List.init (Document.node_count doc - 1) (fun i -> i + 1) in
  check_bool "5,000 rows" true (List.length rows >= 5000);
  let session = Session.of_document doc in
  let big = reply_words session (take 5000 rows) in
  let small = reply_words session (take 10 rows) in
  Alcotest.(check (float 0.0)) "document: words for 5,000 rows = words for 10" small big;
  Test_corpus.with_temp_dir (fun dir ->
      let docs =
        List.init 3 (fun i ->
            ( Printf.sprintf "a%d" i,
              Document.of_tree (Xqp_workload.Gen_auction.document ~seed:i ~scale:2500 ()) ))
      in
      let path = Test_corpus.pack_docs ~dir ~shards:2 docs in
      let corpus = Result.get_ok (Session.open_db path) in
      Fun.protect
        ~finally:(fun () -> Session.close corpus)
        (fun () ->
          let rows = Result.get_ok (Session.query corpus "//* | //@* | //text()") in
          check_bool "5,000 corpus rows span documents" true
            (List.length rows >= 5000
            && Xqp_physical.Scatter_gather.ordinal_of (List.nth rows 4999) > 0);
          let big = reply_words corpus (take 5000 rows) in
          let small = reply_words corpus (take 10 rows) in
          Alcotest.(check (float 0.0)) "corpus: words for 5,000 rows = words for 10" small big))

(* --- the wire ------------------------------------------------------------ *)

let fixture_head =
  "<r><e a=\"x&amp;y&quot;z&lt;&gt;\" b=\"back\\slash &apos;q&apos; \t tab\">t&amp;&lt;&gt;\"'\\ \
   caf\xc3\xa9 \xe2\x82\xac\t|\r\n|\x01|\x1f|<c k=\"&quot;\"/><!-- c\"\\ \t --><?pi b\"\\ ?></e><e \
   a=\"2\">plain</e><e/>"

(* 2,500 elements of about 520 bytes: a //x reply over 1 MiB *)
let fixture =
  fixture_head
  ^ String.concat ""
      (List.init 2500 (fun i -> Printf.sprintf "<x i=\"%d\">%s&amp;</x>" i (String.make 500 'y')))
  ^ "</r>"

let golden_query = "//e | //e/@a | //e/text()"

(* Captured over HTTP before the reply path was rewritten; only the
   wall-clock fields are masked. "engine" is the engine Auto binds under
   the checked-in cost weights. *)
let golden_body ~request_id ~cache =
  Printf.sprintf
    {|{"query":"//e | //e/@a | //e/text()","mode":"xpath","request_id":"%s","queue_ms":#,"status":"ok","results":["<e a=\"x&amp;y&quot;z&lt;&gt;\" b=\"back\\slash 'q' \t tab\">t&amp;&lt;&gt;\"'\\ café €\t|\r\n|\u0001|\u001f|<c k=\"&quot;\"/><!-- c\"\\ \t --><?pi b\"\\ ?></e>","@a=\"x&y\"z<>\"","t&<>\"'\\ café €\t|\r\n|\u0001|\u001f|","<e a=\"2\">plain</e>","@a=\"2\"","plain","<e/>"],"count":7,"engine":"nok","cache":"%s","time_ms":#}|}
    request_id cache

(* MD5 of the masked //x body, captured with the golden body. *)
let golden_big_digest = "b7178a587a954c7fe9d92158ff0c36f6"
let golden_big_length = 1_314_040

let mask body =
  List.fold_left
    (fun body field ->
      let key = Printf.sprintf "\"%s\":" field in
      let n = String.length body and k = String.length key in
      let rec find i =
        if i + k > n then None else if String.sub body i k = key then Some i else find (i + 1)
      in
      match find 0 with
      | None -> body
      | Some i ->
        let start = i + k in
        let stop = ref start in
        while !stop < n && (match body.[!stop] with '0' .. '9' | '.' -> true | _ -> false) do
          incr stop
        done;
        String.sub body 0 start ^ "#" ^ String.sub body !stop (n - !stop))
    body [ "queue_ms"; "time_ms" ]

let with_connection port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      f fd)

let send fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let get fd q =
  send fd (Printf.sprintf "GET %s HTTP/1.1\r\nHost: l\r\n\r\n" (Test_serve.query_url q));
  Test_serve.read_response fd

(* 1,100 elements of 8,000 bytes: a //z reply past the cap a worker
   keeps its reply sink under *)
let past_cap =
  String.concat "" (List.init 1100 (fun _ -> Printf.sprintf "<z>%s</z>" (String.make 8000 'z')))

(* One worker, one keep-alive connection: the golden reply, a reply over
   1 MiB (kept by the worker's sink), a reply past the sink's cap (after
   which the worker hands its grown sink back), then the golden reply
   again, each framed by an exact Content-Length. *)
let test_golden_http_body () =
  let served = String.sub fixture 0 (String.length fixture - 4) ^ past_cap ^ "</r>" in
  let session = Result.get_ok (Session.of_string served) in
  let config = { Server.default_config with Server.domains = 1 } in
  let framed what (_, headers, body) =
    check_string (what ^ ": content-length") (string_of_int (String.length body))
      (Option.get (Test_serve.header_value "content-length" headers))
  in
  Test_serve.with_server ~config session (fun server ->
      with_connection (Server.port server) (fun fd ->
          let (status, _, body) as reply = get fd golden_query in
          check_int "status" 200 status;
          framed "golden" reply;
          check_string "golden body" (golden_body ~request_id:"r-1" ~cache:"miss") (mask body);
          let (status, _, big) as reply = get fd "//x" in
          check_int "big status" 200 status;
          framed "big" reply;
          check_bool "big reply over 1 MiB" true (String.length big > 1_048_576);
          check_int "big body length" golden_big_length (String.length (mask big));
          check_string "big body digest" golden_big_digest
            (Digest.to_hex (Digest.string (mask big)));
          check_int "big count" 2500 (Test_serve.decode_ok big).Response.count;
          let (status, _, huge) as reply = get fd "//z" in
          check_int "past-cap status" 200 status;
          framed "past-cap" reply;
          check_bool "reply past the sink's cap" true (String.length huge > Server.max_kept_reply);
          let payload = Test_serve.decode_ok huge in
          check_int "past-cap count" 1100 payload.Response.count;
          check_bool "past-cap rows" true
            (match payload.Response.results with
            | Response.Items (first :: _) -> first = "<z>" ^ String.make 8000 'z' ^ "</z>"
            | _ -> false);
          let (status, _, again) as reply = get fd golden_query in
          check_int "status after the past-cap reply" 200 status;
          framed "golden after the past-cap reply" reply;
          check_string "golden body after the past-cap reply"
            (golden_body ~request_id:"r-4" ~cache:"hit")
            (mask again)))

(* A worker's sink keeps what a reply grew it to, up to the cap: a
   5 MB reply and one of exactly the cap leave it grown, and one byte
   more gives the storage back. *)
let test_sink_kept_to_cap () =
  let sink = Server.new_reply () in
  let reply n =
    Server.clear_reply sink;
    Sink.add_string sink (String.make n 'x');
    Sink.prepend sink "HTTP/1.1 200 OK\r\n\r\n"
  in
  let initial = Sink.capacity sink in
  reply 5_000_000;
  Server.clear_reply sink;
  check_bool "grown by a 5 MB reply" true (Sink.capacity sink >= 5_000_000);
  check_int "kept after a 5 MB reply" 0 (Sink.length sink);
  reply Server.max_kept_reply;
  Server.clear_reply sink;
  check_int "kept after a reply of the cap" Server.max_kept_reply (Sink.capacity sink);
  reply (Server.max_kept_reply + 1);
  Server.clear_reply sink;
  check_int "handed back past the cap" initial (Sink.capacity sink)

(* --- the header reader ---------------------------------------------------- *)

let test_headers_byte_by_byte () =
  let session = Test_serve.bib_session () in
  Test_serve.with_server session (fun server ->
      with_connection (Server.port server) (fun fd ->
          Unix.setsockopt fd Unix.TCP_NODELAY true;
          let request =
            Printf.sprintf "GET %s HTTP/1.1\r\nHost: l\r\nX-Split: a\r\n\r\n"
              (Test_serve.query_url "//book/title")
          in
          String.iter (fun c -> send fd (String.make 1 c)) request;
          let status, _, body = Test_serve.read_response fd in
          check_int "status" 200 status;
          check_int "count" 12 (Test_serve.decode_ok body).Response.count))

let padded_request ~kib =
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: l\r\n%s\r\n" (Test_serve.query_url "//book/title")
    (String.concat ""
       (List.init kib (fun i -> Printf.sprintf "X-Pad-%03d: %s\r\n" i (String.make 1011 'a'))))

let test_large_headers_parse () =
  let session = Test_serve.bib_session () in
  Test_serve.with_server session (fun server ->
      with_connection (Server.port server) (fun fd ->
          let request = padded_request ~kib:60 in
          check_bool "about 60 KiB of headers" true
            (String.length request > 60 * 1024 && String.length request < 65536);
          send fd request;
          let status, _, body = Test_serve.read_response fd in
          check_int "status" 200 status;
          check_int "count" 12 (Test_serve.decode_ok body).Response.count))

let test_oversized_headers_closed () =
  let session = Test_serve.bib_session () in
  Test_serve.with_server session (fun server ->
      let port = Server.port server in
      with_connection port (fun fd ->
          (try send fd (padded_request ~kib:70) with Unix.Unix_error _ -> ());
          let chunk = Bytes.create 4096 in
          let n = try Unix.read fd chunk 0 4096 with Unix.Unix_error _ -> 0 in
          check_int "closed without a response" 0 n);
      let path = Test_serve.query_url "//book/title" in
      let status, _ = Test_serve.http_request ~port ~path () in
      check_int "server still answers" 200 status)

let suite =
  [
    ( "reply",
      [
        qcheck prop_add_node_matches_tree;
        qcheck prop_response_matches_reference;
        Alcotest.test_case "JSON escapes match for every byte" `Quick test_json_escapes_every_byte;
        Alcotest.test_case "items, empty results and errors match the reference" `Quick
          test_items_empty_and_errors;
        Alcotest.test_case "golden HTTP body, before and after a 1 MiB and a past-cap reply" `Quick
          test_golden_http_body;
        Alcotest.test_case "headers one byte per write" `Quick test_headers_byte_by_byte;
        Alcotest.test_case "60 KiB of headers parse" `Quick test_large_headers_parse;
        Alcotest.test_case "headers past 64 KiB close the connection" `Quick
          test_oversized_headers_closed;
        qcheck prop_concurrent_writers;
        Alcotest.test_case "a warm sink writes a reply with no words per row" `Quick
          test_reply_allocation;
        Alcotest.test_case "a worker's sink is kept up to the cap" `Quick test_sink_kept_to_cap;
      ] );
  ]
