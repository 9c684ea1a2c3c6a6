(* Tests for the bench harness (bench/harness.ml): quartiles on fixed
   inputs, gate verdicts, the runner's failure handling and argument
   checks, and the BENCH file envelope. *)

module H = Harness
module J = Xqp_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-9))

let experiment ?bench id run = { H.id; title = "test " ^ id; bench; run = (fun ~scale:_ -> run ()) }

let test_quartiles () =
  let s = H.stat_of [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  check_float "median" 3.0 s.H.median;
  check_float "q1" 2.0 s.H.q1;
  check_float "q3" 4.0 s.H.q3;
  check_int "runs" 5 s.H.runs;
  let s = H.stat_of [ 4.0; 1.0; 3.0; 2.0 ] in
  check_float "even median interpolates" 2.5 s.H.median;
  check_float "even q1" 1.75 s.H.q1;
  check_float "even q3" 3.25 s.H.q3;
  check_float "one sample" 7.0 (H.stat_of [ 7.0 ]).H.q3;
  check_float "p99 of two" 19.9 (H.quantile [| 20.0; 10.0 |] 0.99);
  check_float "p0" 10.0 (H.quantile [| 20.0; 10.0 |] 0.0);
  Alcotest.check_raises "no samples" (Invalid_argument "Harness.quantile: no samples") (fun () ->
      ignore (H.stat_of []))

let test_sampler_shapes () =
  check_int "three rounds" 3 (H.sample (fun () -> ())).H.runs;
  let p = H.pair ~rounds:3 (fun () -> ()) (fun () -> ()) in
  check_int "pair rounds" 3 p.H.speedup.H.runs;
  check_int "both sides sampled" 3 (min p.H.a.H.runs p.H.b.H.runs);
  (* the side that runs first alternates: a b, b a, a b *)
  let log = ref [] in
  let side name () = match !log with last :: _ when last = name -> () | _ -> log := name :: !log in
  ignore (H.pair ~rounds:3 (side "a") (side "b"));
  check_string "alternating order" "a b a b" (String.concat " " (List.rev !log))

let test_gate_verdicts () =
  let status g =
    H.(match g.status with Passed -> "passed" | Failed -> "failed" | Skipped -> "skipped")
  in
  check_string "at_most passes" "passed" (status (H.at_most "x" ~bound:2.0 1.5));
  check_string "at_most fails" "failed" (status (H.at_most "x" ~bound:2.0 2.5));
  check_string "at_least passes on the bound" "passed" (status (H.at_least "x" ~bound:4.0 4.0));
  check_string "nan fails" "failed" (status (H.at_least "x" ~bound:1.0 Float.nan));
  check_string "holds" "failed" (status (H.holds "x" false));
  let cores = Domain.recommended_domain_count () in
  let g = H.at_least ~cores:(cores + 1) "scaling" ~bound:1.5 0.9 in
  check_string "more cores than the host: skipped" "skipped" (status g);
  check_bool "skip names the cores" true (g.H.note <> "");
  check_string "enough cores: judged" "failed" (status (H.at_least ~cores "scaling" ~bound:1.5 0.9))

let test_failure_does_not_stop_the_run () =
  let later_ran = ref false in
  let code =
    H.main
      [
        experiment "A" (fun () -> { H.nothing with H.gates = [ H.at_most "g" ~bound:1.0 2.0 ] });
        experiment "B" (fun () -> failwith "boom");
        experiment "C" (fun () ->
            later_ran := true;
            H.nothing);
      ]
      []
  in
  check_int "exit 1 on a failed gate" 1 code;
  check_bool "experiments after a failure still run" true !later_ran;
  check_int "all passing exits 0" 0 (H.main [ experiment "A" (fun () -> H.nothing) ] [])

let test_arguments_rejected () =
  let ran = ref false in
  let e =
    experiment "CORPUS" (fun () ->
        ran := true;
        H.nothing)
  in
  check_int "unknown --only id" 2 (H.main [ e ] [ "--only=CORPUS,CORPUSS" ]);
  check_int "unknown flag" 2 (H.main [ e ] [ "--json=x.json" ]);
  check_bool "nothing ran" false !ran;
  check_int "known id runs" 0 (H.main [ e ] [ "--only=CORPUS" ]);
  check_bool "it ran" true !ran

(* The runner writes BENCH files in the working directory: run it in a
   fresh one. *)
let in_temp_dir f =
  let dir = Filename.temp_dir "xqp_harness" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Array.iter (fun file -> Sys.remove (Filename.concat dir file)) (Sys.readdir dir);
      Sys.rmdir dir)
    f

let test_envelope () =
  in_temp_dir @@ fun () ->
  let field path json = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some json) path in
  let str path json = Option.bind (field path json) J.to_str in
  let read bench =
    J.parse (In_channel.with_open_bin ("BENCH_" ^ bench ^ ".json") In_channel.input_all)
  in
  let code =
    H.main
      [
        experiment ~bench:"harness_ok" "OK" (fun () ->
            {
              H.gates = [ H.at_most "overhead_pct" ~bound:2.0 3.5 ];
              fields = [ ("rows", J.Num 13.0) ];
            });
        experiment ~bench:"harness_raised" "RAISED" (fun () -> failwith "engine disagrees");
      ]
      [ "--full" ]
  in
  check_int "failed run" 1 code;
  let ok = read "harness_ok" in
  check_bool "bench" true (str [ "bench" ] ok = Some "harness_ok");
  check_bool "host cores" true
    (Option.bind (field [ "host"; "cores" ] ok) J.to_num
    = Some (float_of_int (Domain.recommended_domain_count ())));
  check_bool "host ocaml" true (str [ "host"; "ocaml" ] ok = Some Sys.ocaml_version);
  check_bool "host commit" true
    (match str [ "host"; "commit" ] ok with Some c -> c <> "" | None -> false);
  check_bool "host scale" true (str [ "host"; "scale" ] ok = Some "full");
  check_bool "status" true (str [ "status" ] ok = Some "failed");
  (match field [ "gates" ] ok with
  | Some (J.Arr [ g ]) ->
    check_bool "gate status" true (str [ "status" ] g = Some "failed");
    check_bool "gate bound" true (Option.bind (J.member "bound" g) J.to_num = Some 2.0)
  | _ -> Alcotest.fail "one gate expected");
  check_bool "own fields follow" true (Option.bind (field [ "rows" ] ok) J.to_num = Some 13.0);
  (match ok with
  | J.Obj fields ->
    check_string "envelope order" "bench host status gates rows"
      (String.concat " " (List.map fst fields))
  | _ -> Alcotest.fail "object expected");
  let raised = read "harness_raised" in
  check_bool "raised: failed" true (str [ "status" ] raised = Some "failed");
  check_bool "raised: error" true (str [ "error" ] raised = Some "engine disagrees")

(* An agreement run reports a failing gate as skipped and writes no
   BENCH file; an experiment that raises still fails it. *)
let test_agreement_run () =
  in_temp_dir @@ fun () ->
  let timed =
    experiment ~bench:"harness_timed" "TIMED" (fun () ->
        { H.nothing with H.gates = [ H.at_least "speedup" ~bound:3.0 1.0 ] })
  in
  check_int "failing gate: exit 0" 0 (H.main [ timed ] [ "--agreement" ]);
  check_bool "no BENCH file" false (Sys.file_exists "BENCH_harness_timed.json");
  check_int "disagreement: exit 1" 1
    (H.main [ timed; experiment "DISAGREE" (fun () -> failwith "bytes differ") ] [ "--agreement" ]);
  check_int "without the flag the gate fails" 1 (H.main [ timed ] [])

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "median and quartiles" `Quick test_quartiles;
        Alcotest.test_case "sampler shapes" `Quick test_sampler_shapes;
        Alcotest.test_case "gate verdicts and skipped" `Quick test_gate_verdicts;
        Alcotest.test_case "failure does not stop the run" `Quick
          test_failure_does_not_stop_the_run;
        Alcotest.test_case "unknown ids and flags rejected" `Quick test_arguments_rejected;
        Alcotest.test_case "envelope parses with host facts" `Quick test_envelope;
        Alcotest.test_case "an agreement run skips gates" `Quick test_agreement_run;
      ] );
  ]
