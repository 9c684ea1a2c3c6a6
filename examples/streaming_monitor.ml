(* Streaming evaluation (§4.2): because the succinct scheme linearizes
   documents in pre-order — the same order XML arrives on the wire — NoK
   chain patterns run over the SAX event stream without building any tree.

   This example "monitors" an auction feed: it watches three patterns
   simultaneously while the stream is parsed exactly once.

   Run with: dune exec examples/streaming_monitor.exe *)

open Xqp_xml
open Xqp_physical

let () =
  (* The feed: a serialized auction site (in a real deployment this would
     arrive over a socket). *)
  let source = Serializer.to_string (Xqp_workload.Gen_auction.document ~scale:30_000 ()) in
  Format.printf "feed size: %d bytes@.@." (String.length source);

  let watches =
    [
      "//open_auction/bidder/increase";
      "//person//city";
      "/site/regions/africa/item/name";
    ]
  in
  let matchers =
    List.map
      (fun q ->
        let pattern = Xqp_xpath.Parser.parse_pattern q in
        if not (Streaming.supported pattern) then failwith (q ^ " is not streamable");
        (q, Streaming.create pattern))
      watches
  in

  (* One pass over the stream feeds every matcher. *)
  let t0 = Sys.time () in
  Sax.parse_string source (fun event ->
      List.iter (fun (_, m) -> Streaming.feed m event) matchers);
  let elapsed = Sys.time () -. t0 in

  List.iter
    (fun (q, m) ->
      Format.printf "%-40s %6d matches@." q (List.length (Streaming.matches m)))
    matchers;
  let events = match matchers with (_, m) :: _ -> Streaming.events_processed m | [] -> 0 in
  Format.printf "@.%d events in %.1f ms (%.0f Kevents/s, all patterns at once)@." events
    (elapsed *. 1000.0)
    (float_of_int events /. elapsed /. 1000.0);

  (* Sanity: streaming answers equal in-memory answers. *)
  let doc = Document.of_string source in
  let exec = Executor.create doc in
  List.iter
    (fun (q, m) ->
      let streamed = List.length (Streaming.matches m) in
      let stored = List.length (Executor.execute exec ~strategy:Executor.Nok (Executor.Query q)) in
      assert (streamed = stored))
    matchers;
  Format.printf "streaming results match the in-memory engines.@."
