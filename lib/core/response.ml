module J = Xqp_obs.Json

type results = Items of string list | Nodes of Session.t * Session.node list

type payload = {
  results : results;
  count : int;
  engine : string;
  cache : string;
  time_ms : float;
}

type t = {
  query : string;
  mode : string;
  request_id : string option;
  queue_ms : float option;
  outcome : (payload, Error.t) result;
}

let ok ?request_id ?queue_ms ~query ~mode ~results ~engine ~cache ~time_ms () =
  {
    query;
    mode;
    request_id;
    queue_ms;
    outcome = Ok { results = Items results; count = List.length results; engine; cache; time_ms };
  }

let error ?request_id ?queue_ms ~query ~mode err =
  { query; mode; request_id; queue_ms; outcome = Error err }

let of_query_result ?request_id ?queue_ms session ~query (r : Session.query_result) =
  {
    query;
    mode = "xpath";
    request_id;
    queue_ms;
    outcome =
      Ok
        {
          results = Nodes (session, r.Session.nodes);
          count = List.length r.Session.nodes;
          engine = r.Session.engine;
          cache = Xqp_physical.Executor.cache_status_label r.Session.cache;
          time_ms = r.Session.time_ms;
        };
  }

let of_xquery_result ?request_id ?queue_ms session ~query (r : Session.xquery_result) =
  ok ?request_id ?queue_ms ~query ~mode:"xquery"
    ~results:(Session.xquery_result_strings session r.Session.value)
    ~engine:"xquery" ~cache:"-" ~time_ms:r.Session.time_ms ()

let http_status t =
  match t.outcome with Ok _ -> 200 | Error e -> Error.http_status e

(* Times round to 3 decimals on the wire (the JSON printer's float
   format), so encode∘decode∘encode is the identity on emitted strings. *)
let round3 ms = Float.round (ms *. 1000.0) /. 1000.0

module Sink = Xqp_xml.Sink

let json_raw = Xqp_xml.Entity.(json raw)

let add_json_string sink s =
  Sink.add_char sink '"';
  Xqp_xml.Entity.add json_raw sink s;
  Sink.add_char sink '"'

let write sink t =
  let field name =
    Sink.add_string sink ",\"";
    Sink.add_string sink name;
    Sink.add_string sink "\":"
  in
  Sink.add_string sink "{\"query\":";
  add_json_string sink t.query;
  field "mode";
  add_json_string sink t.mode;
  (* [request_id]/[queue_ms] are served-request provenance: emitted only
     when present, so embedded/CLI responses are byte-identical to the
     pre-request-id schema. *)
  Option.iter
    (fun id ->
      field "request_id";
      add_json_string sink id)
    t.request_id;
  Option.iter
    (fun q ->
      field "queue_ms";
      Sink.add_string sink (J.num_to_string (round3 q)))
    t.queue_ms;
  (match t.outcome with
  | Ok p ->
    field "status";
    add_json_string sink "ok";
    field "results";
    Sink.add_char sink '[';
    (match p.results with
    | Items items ->
      List.iteri
        (fun i s ->
          if i > 0 then Sink.add_char sink ',';
          add_json_string sink s)
        items
    | Nodes (_, []) -> ()
    | Nodes (session, nodes) ->
      Sink.add_char sink '"';
      Session.add_nodes ~json:true ~sep:"\",\"" session sink nodes;
      Sink.add_char sink '"');
    Sink.add_char sink ']';
    field "count";
    Sink.add_string sink (J.num_to_string (float_of_int p.count));
    field "engine";
    add_json_string sink p.engine;
    field "cache";
    add_json_string sink p.cache;
    field "time_ms";
    Sink.add_string sink (J.num_to_string (round3 p.time_ms))
  | Error e ->
    field "status";
    add_json_string sink "error";
    field "error";
    Sink.add_string sink (J.to_string (Error.to_json e)));
  Sink.add_char sink '}'

let of_json json =
  let str field = Option.bind (J.member field json) J.to_str in
  let require what = function
    | Some v -> Ok v
    | None -> Result.Error (Printf.sprintf "response lacks %s" what)
  in
  Result.bind (require "\"query\"" (str "query")) (fun query ->
      Result.bind (require "\"mode\"" (str "mode")) (fun mode ->
          let request_id = str "request_id" in
          let queue_ms = Option.bind (J.member "queue_ms" json) J.to_num in
          match str "status" with
          | Some "ok" ->
            let results =
              match Option.bind (J.member "results" json) J.to_arr with
              | Some items -> Ok (List.filter_map J.to_str items)
              | None -> Result.Error "ok response lacks \"results\""
            in
            Result.bind results (fun results ->
                let num field = Option.bind (J.member field json) J.to_num in
                let count =
                  match num "count" with Some f -> int_of_float f | None -> List.length results
                in
                Result.bind (require "\"engine\"" (str "engine")) (fun engine ->
                    Result.bind (require "\"cache\"" (str "cache")) (fun cache ->
                        let time_ms = Option.value ~default:0.0 (num "time_ms") in
                        Ok
                          {
                            query;
                            mode;
                            request_id;
                            queue_ms;
                            outcome = Ok { results = Items results; count; engine; cache; time_ms };
                          })))
          | Some "error" -> (
            match J.member "error" json with
            | None -> Result.Error "error response lacks \"error\""
            | Some ej ->
              Result.bind (Error.of_json ej) (fun e ->
                  Ok { query; mode; request_id; queue_ms; outcome = Error e }))
          | Some other -> Result.Error (Printf.sprintf "unknown status %S" other)
          | None -> Result.Error "response lacks \"status\""))

let to_string t =
  let sink = Sink.create 256 in
  write sink t;
  Sink.contents sink

let of_string s =
  match J.parse s with
  | json -> of_json json
  | exception J.Parse_error m -> Result.Error m
