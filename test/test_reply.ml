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

let prop_add_node_matches_tree =
  QCheck2.Test.make ~name:"Document.add_subtree = to_string (to_tree), plain and JSON" ~count:300
    ~print:print_doc gen_doc (fun doc ->
      let ok = ref true in
      for id = 0 to Document.node_count doc - 1 do
        if Document.kind doc id <> Document.Attribute then begin
          let expected = Serializer.to_string (Document.to_tree doc id) in
          let write json =
            let b = Buffer.create 64 in
            Document.add_subtree ~json b doc id;
            Buffer.contents b
          in
          if write false <> expected || write true <> json_inside expected then ok := false
        end
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
      let encoded =
        Response.to_string (Response.of_query_result ?request_id ?queue_ms session ~query result)
      in
      let expected =
        reference_body ?request_id ?queue_ms ~query ~mode:"xpath"
          (Ok (List.map (reference_node_string doc) nodes, "nok", "hit", time_ms))
      in
      encoded = expected
      && Session.to_xml session nodes
         = String.concat "" (List.map (reference_node_string doc) nodes))

(* Every byte, alone and in one run, escapes as the JSON printer does. *)
let test_json_escapes_every_byte () =
  let raw s =
    let b = Buffer.create 8 in
    Entity.add (Entity.json Entity.raw) b s;
    Buffer.contents b
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

(* One worker, one keep-alive connection: the golden reply, a reply over
   1 MiB (after which the worker drops its grown buffer), then the golden
   reply again, each framed by an exact Content-Length. *)
let test_golden_http_body () =
  let session = Result.get_ok (Session.of_string fixture) in
  let config = { Server.default_config with Server.domains = 1 } in
  Test_serve.with_server ~config session (fun server ->
      with_connection (Server.port server) (fun fd ->
          let status, headers, body = get fd golden_query in
          check_int "status" 200 status;
          check_string "content-length" (string_of_int (String.length body))
            (Option.get (Test_serve.header_value "content-length" headers));
          check_string "golden body" (golden_body ~request_id:"r-1" ~cache:"miss") (mask body);
          let status, _, big = get fd "//x" in
          check_int "big status" 200 status;
          check_bool "big reply over 1 MiB" true (String.length big > 1_048_576);
          check_int "big body length" golden_big_length (String.length (mask big));
          check_string "big body digest" golden_big_digest
            (Digest.to_hex (Digest.string (mask big)));
          check_int "big count" 2500 (Test_serve.decode_ok big).Response.count;
          let status, headers, again = get fd golden_query in
          check_int "status after the big reply" 200 status;
          check_string "content-length after the big reply"
            (string_of_int (String.length again))
            (Option.get (Test_serve.header_value "content-length" headers));
          check_string "golden body after the big reply"
            (golden_body ~request_id:"r-3" ~cache:"hit")
            (mask again)))

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
        Alcotest.test_case "golden HTTP body, before and after a 1 MiB reply" `Quick
          test_golden_http_body;
        Alcotest.test_case "headers one byte per write" `Quick test_headers_byte_by_byte;
        Alcotest.test_case "60 KiB of headers parse" `Quick test_large_headers_parse;
        Alcotest.test_case "headers past 64 KiB close the connection" `Quick
          test_oversized_headers_closed;
      ] );
  ]
