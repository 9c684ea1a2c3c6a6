module J = Xqp_obs.Json

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

type stat = { median : float; q1 : float; q3 : float; runs : int }

let quantile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Harness.quantile: no samples";
  let h = float_of_int (n - 1) *. p in
  let i = int_of_float h in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((h -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let sorted_copy samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  s

let quantile samples p = quantile_sorted (sorted_copy samples) p

let stat_of samples =
  let sorted = sorted_copy (Array.of_list samples) in
  {
    median = quantile_sorted sorted 0.5;
    q1 = quantile_sorted sorted 0.25;
    q3 = quantile_sorted sorted 0.75;
    runs = Array.length sorted;
  }

let stat_json s =
  J.Obj
    [
      ("median", J.Num s.median);
      ("q1", J.Num s.q1);
      ("q3", J.Num s.q3);
      ("runs", J.Num (float_of_int s.runs));
    ]

let round f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  let once = Unix.gettimeofday () -. t0 in
  if once >= 0.05 then once
  else begin
    let iters = max 3 (min 200 (int_of_float (0.05 /. Float.max 1e-6 once))) in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters
  end

let sample f = stat_of (List.init 3 (fun _ -> round f))

type pair = { a : stat; b : stat; speedup : stat }

(* Each side's round starts from a collected heap, so neither pays for
   the other's garbage, and the side that runs first alternates. *)
let pair ~rounds a b =
  let timed f =
    Gc.full_major ();
    round f
  in
  let times =
    List.init rounds (fun i ->
        if i mod 2 = 0 then
          let ta = timed a in
          (ta, timed b)
        else
          let tb = timed b in
          (timed a, tb))
  in
  {
    a = stat_of (List.map fst times);
    b = stat_of (List.map snd times);
    speedup = stat_of (List.map (fun (ta, tb) -> ta /. tb) times);
  }

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

type status = Passed | Failed | Skipped

type gate = {
  name : string;
  status : status;
  value : float;
  cmp : string;
  bound : float;
  note : string;
}

let gate ?(cores = 1) name ~cmp ~bound value ok =
  let have = Domain.recommended_domain_count () in
  if have < cores then
    {
      name;
      status = Skipped;
      value;
      cmp;
      bound;
      note = Printf.sprintf "needs %d cores, host has %d" cores have;
    }
  else { name; status = (if ok then Passed else Failed); value; cmp; bound; note = "" }

let at_most name ~bound value = gate name ~cmp:"<=" ~bound value (value <= bound)
let at_least ?cores name ~bound value = gate ?cores name ~cmp:">=" ~bound value (value >= bound)
let holds name ok = gate name ~cmp:"=" ~bound:1.0 (if ok then 1.0 else 0.0) ok

let status_label = function Passed -> "passed" | Failed -> "failed" | Skipped -> "skipped"

(* ------------------------------------------------------------------ *)
(* Experiments, host facts, the envelope                               *)
(* ------------------------------------------------------------------ *)

type scale = [ `Small | `Full ]
type outcome = { gates : gate list; fields : (string * J.t) list }

let nothing = { gates = []; fields = [] }

type experiment = {
  id : string;
  title : string;
  bench : string option;
  run : scale:scale -> outcome;
}

type host = { cores : int; ocaml : string; commit : string; scale : scale }

let commit () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some c when c <> "" -> c
    | _ -> "unknown")

let host scale =
  {
    cores = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    commit = commit ();
    scale;
  }

let scale_label = function `Small -> "small" | `Full -> "full"

let gate_json g =
  J.Obj
    ([
       ("name", J.Str g.name);
       ("status", J.Str (status_label g.status));
       ("value", J.Num g.value);
       ("cmp", J.Str g.cmp);
       ("bound", J.Num g.bound);
     ]
    @ if g.note = "" then [] else [ ("note", J.Str g.note) ])

let envelope host ~bench ~status ~gates fields =
  J.Obj
    ([
       ("bench", J.Str bench);
       ( "host",
         J.Obj
           [
             ("cores", J.Num (float_of_int host.cores));
             ("ocaml", J.Str host.ocaml);
             ("commit", J.Str host.commit);
             ("scale", J.Str (scale_label host.scale));
           ] );
       ("status", J.Str (status_label status));
       ("gates", J.Arr (List.map gate_json gates));
     ]
    @ fields)

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)
(* ------------------------------------------------------------------ *)

let prefixed prefix a =
  let n = String.length prefix in
  if String.length a >= n && String.sub a 0 n = prefix then
    Some (String.sub a n (String.length a - n))
  else None

(* (scale, agreement, selected experiments) or the message for an
   argument error *)
let select experiments args =
  let rec parse scale agreement only = function
    | [] -> Ok (scale, agreement, only)
    | "--full" :: rest -> parse `Full agreement only rest
    | "--agreement" :: rest -> parse scale true only rest
    | a :: rest -> (
      match prefixed "--only=" a with
      | Some ids -> parse scale agreement (Some (String.split_on_char ',' ids)) rest
      | None ->
        Error
          (Printf.sprintf
             "unknown argument %S (the flags are --only=ID,..., --full and --agreement)" a))
  in
  let known = List.map (fun e -> e.id) experiments in
  match parse `Small false None args with
  | Error _ as e -> e
  | Ok (scale, agreement, None) -> Ok (scale, agreement, experiments)
  | Ok (scale, agreement, Some wanted) -> (
    match List.filter (fun id -> not (List.mem id known)) wanted with
    | [] -> Ok (scale, agreement, List.filter (fun e -> List.mem e.id wanted) experiments)
    | unknown ->
      Error
        (Printf.sprintf "unknown experiment id(s) %s (known: %s)" (String.concat ", " unknown)
           (String.concat ", " known)))

let pp_gate id g =
  Printf.printf "  %-8s %-34s %12.3f %-2s %10.3f  %s%s\n" id g.name g.value g.cmp g.bound
    (status_label g.status)
    (if g.note = "" then "" else " (" ^ g.note ^ ")")

(* In an agreement run a gate is only reported: what fails the run is
   an experiment that raises, as one does when two encoders or engines
   disagree. *)
let agreement_only g =
  if g.status = Skipped then g else { g with status = Skipped; note = "agreement run" }

(* Run one experiment, write its BENCH file (not in an agreement run),
   return (id, gates, error). *)
let run_one host ~agreement e =
  Printf.printf "\n== [%s] %s ==\n%!" e.id e.title;
  let outcome, error =
    match e.run ~scale:host.scale with
    | o -> (o, None)
    | exception Failure msg -> (nothing, Some msg)
    | exception exn -> (nothing, Some (Printexc.to_string exn))
  in
  let outcome =
    if agreement then { outcome with gates = List.map agreement_only outcome.gates } else outcome
  in
  let failed = error <> None || List.exists (fun g -> g.status = Failed) outcome.gates in
  List.iter (pp_gate e.id) outcome.gates;
  Option.iter (Printf.printf "  error: %s\n") error;
  Option.iter
    (fun bench ->
      let path = Printf.sprintf "BENCH_%s.json" bench in
      let fields =
        match error with Some msg -> [ ("error", J.Str msg) ] | None -> outcome.fields
      in
      let json =
        envelope host ~bench ~status:(if failed then Failed else Passed) ~gates:outcome.gates fields
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (J.to_string ~pretty:true json);
          output_char oc '\n');
      Printf.printf "  wrote %s\n" path)
    (if agreement then None else e.bench);
  flush stdout;
  (e.id, outcome.gates, error)

let main experiments args =
  match select experiments args with
  | Error msg ->
    prerr_endline ("bench: " ^ msg);
    2
  | Ok (scale, agreement, selected) ->
    let host = host scale in
    Printf.printf "xqp benchmark harness (scale=%s, %d cores, OCaml %s, commit %s)%s\n%!"
      (scale_label scale) host.cores host.ocaml host.commit
      (if agreement then ", agreement run" else "");
    let results = List.map (run_one host ~agreement) selected in
    Printf.printf "\n== gate summary ==\n";
    let count status =
      List.fold_left
        (fun n (_, gates, _) -> n + List.length (List.filter (fun g -> g.status = status) gates))
        0 results
    in
    List.iter
      (fun (id, gates, error) ->
        List.iter (pp_gate id) gates;
        Option.iter (Printf.printf "  %-8s error: %s\n" id) error)
      results;
    let errors = List.length (List.filter (fun (_, _, e) -> e <> None) results) in
    Printf.printf
      "  %d experiments: %d gates passed, %d failed, %d skipped; %d experiments raised\n%!"
      (List.length results) (count Passed) (count Failed) (count Skipped) errors;
    if count Failed > 0 || errors > 0 then 1 else 0
