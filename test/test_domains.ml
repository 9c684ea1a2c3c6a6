(* Multi-domain stress tests for the shared hot structures (DESIGN.md
   §11): several domains hammer the metrics registry, the sharded plan
   cache and two executors at once, and the invariants are checked after
   the join — no lost counter increments, no cache corruption, exact
   histogram totals. Plus unit coverage for the Dsan owner/guard
   primitives themselves (violations only fire when the sanitizer is
   on). *)

open Xqp_obs
open Xqp_physical

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qcheck = QCheck_alcotest.to_alcotest

let domains = 4

let spawn_all n f =
  let ds = Array.init n (fun i -> Domain.spawn (fun () -> f i)) in
  Array.iter Domain.join ds

(* Run [f] with the sanitizer forced on (or off), restoring the
   ambient setting — the rest of the suite must not inherit it. *)
let with_dsan flag f =
  let saved = Dsan.enabled () in
  Dsan.set_enabled flag;
  Fun.protect ~finally:(fun () -> Dsan.set_enabled saved) f

(* ------------------------------------------------------------------ *)
(* Metrics under contention                                            *)
(* ------------------------------------------------------------------ *)

let test_counter_no_lost_increments () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "dstress.count" in
  let per_domain = 25_000 in
  spawn_all domains (fun _ ->
      for _ = 1 to per_domain do
        Metrics.incr c
      done);
  check_int "every increment landed" (domains * per_domain) (Metrics.value c)

let test_counter_add_no_lost_updates () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "dstress.add" in
  spawn_all domains (fun i ->
      for _ = 1 to 10_000 do
        Metrics.add c (i + 1)
      done);
  (* 10k × (1+2+3+4) *)
  check_int "sum of adds" (10_000 * (domains * (domains + 1) / 2)) (Metrics.value c)

let test_histogram_concurrent_observes () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "dstress.hist" in
  let per_domain = 10_000 in
  spawn_all domains (fun _ ->
      for _ = 1 to per_domain do
        Metrics.observe h 1.0
      done);
  let s = Metrics.summary h in
  check_int "observation count" (domains * per_domain) s.Metrics.count;
  check_bool "sum exact" true (s.Metrics.sum = float_of_int (domains * per_domain));
  check_bool "min" true (s.Metrics.min = 1.0);
  check_bool "max" true (s.Metrics.max = 1.0)

let test_registry_get_or_create_race () =
  (* All domains materialize the same counter name concurrently: they
     must all get the one counter, not clobber each other's. *)
  let reg = Metrics.create () in
  spawn_all domains (fun i ->
      let shared = Metrics.counter reg "dstress.shared" in
      let own = Metrics.counter reg (Printf.sprintf "dstress.own.%d" i) in
      for _ = 1 to 5_000 do
        Metrics.incr shared;
        Metrics.incr own
      done);
  (match Metrics.find reg "dstress.shared" with
  | Some (Metrics.Counter_v v) -> check_int "shared counter" (domains * 5_000) v
  | _ -> Alcotest.fail "shared counter missing");
  for i = 0 to domains - 1 do
    match Metrics.find reg (Printf.sprintf "dstress.own.%d" i) with
    | Some (Metrics.Counter_v v) -> check_int "own counter" 5_000 v
    | _ -> Alcotest.fail "per-domain counter missing"
  done;
  (* snapshot stays sorted even when registration order was racy *)
  let names = List.map fst (Metrics.snapshot reg) in
  check_bool "snapshot sorted" true (names = List.sort String.compare names)

(* ------------------------------------------------------------------ *)
(* Sharded plan cache under contention                                 *)
(* ------------------------------------------------------------------ *)

let mk_key i =
  {
    Plan_cache.query = Printf.sprintf "//q[%d]" i;
    optimize = i mod 2 = 0;
    strategy = "auto";
    doc_id = 1;
    stats_version = 0;
  }

let value_of i = Printf.sprintf "plan-%d" i

let test_cache_hammer () =
  let cache : string Plan_cache.t = Plan_cache.create ~capacity:256 () in
  check_int "256 entries spread over 8 shards" 8 (Plan_cache.shard_count cache);
  let universe = 400 in
  spawn_all domains (fun d ->
      for round = 1 to 2_000 do
        let i = (round * (d + 7)) mod universe in
        (match Plan_cache.find cache (mk_key i) with
        | Some v ->
          if v <> value_of i then
            failwith (Printf.sprintf "corrupt entry: key %d holds %s" i v)
        | None -> Plan_cache.add cache (mk_key i) (value_of i));
        if round mod 97 = 0 then Plan_cache.add cache (mk_key i) (value_of i)
      done);
  check_bool "within capacity" true (Plan_cache.length cache <= Plan_cache.capacity cache);
  (* every surviving entry still maps to its own value *)
  for i = 0 to universe - 1 do
    match Plan_cache.find cache (mk_key i) with
    | Some v -> check_bool "key->value intact" true (v = value_of i)
    | None -> ()
  done

let test_cache_random_concurrent =
  QCheck2.Test.make ~name:"random concurrent cache ops keep key->value intact" ~count:15
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_range 0 24) bool))
    (fun ops ->
      let cache : string Plan_cache.t = Plan_cache.create ~capacity:16 ~shards:4 () in
      spawn_all 3 (fun _ ->
          List.iter
            (fun (i, write) ->
              if write then Plan_cache.add cache (mk_key i) (value_of i)
              else
                match Plan_cache.find cache (mk_key i) with
                | Some v -> if v <> value_of i then failwith "corrupt"
                | None -> ())
            ops);
      Plan_cache.length cache <= Plan_cache.capacity cache)

(* ------------------------------------------------------------------ *)
(* Dsan primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_owner_cross_domain_violation () =
  with_dsan true (fun () ->
      let o = Dsan.owner "test-struct" in
      Dsan.assert_owner o;
      (* same domain: touch again freely *)
      Dsan.assert_owner o;
      let tripped =
        Domain.join
          (Domain.spawn (fun () ->
               match Dsan.assert_owner o with
               | () -> false
               | exception Dsan.Violation _ -> true))
      in
      check_bool "second domain trips the sanitizer" true tripped;
      (* explicit hand-off: release, then another domain may claim *)
      Dsan.release_owner o;
      let claimed =
        Domain.join
          (Domain.spawn (fun () ->
               match Dsan.assert_owner o with
               | () -> true
               | exception Dsan.Violation _ -> false))
      in
      check_bool "released stamp is claimable" true claimed)

let test_owner_silent_when_off () =
  with_dsan false (fun () ->
      let o = Dsan.owner "test-struct" in
      Dsan.assert_owner o;
      let ok =
        Domain.join
          (Domain.spawn (fun () ->
               match Dsan.assert_owner o with () -> true | exception Dsan.Violation _ -> false))
      in
      check_bool "no check when disabled" true ok)

let test_guard_assert_held () =
  with_dsan true (fun () ->
      let g = Dsan.guard "test-guard" in
      Dsan.with_guard g (fun () -> Dsan.assert_held g);
      (match Dsan.assert_held g with
      | () -> Alcotest.fail "assert_held outside with_guard must raise"
      | exception Dsan.Violation _ -> ());
      (* mutual exclusion still real: two domains bump a plain int under
         the guard and nothing is lost *)
      let n = ref 0 in
      spawn_all domains (fun _ ->
          for _ = 1 to 10_000 do
            Dsan.with_guard g (fun () ->
                Dsan.assert_held g;
                n := !n + 1)
          done);
      check_int "guarded increments exact" (domains * 10_000) !n)

(* ------------------------------------------------------------------ *)
(* Executors on separate domains                                       *)
(* ------------------------------------------------------------------ *)

let test_executors_across_domains () =
  (* Two executors over two documents, driven from two domains at once,
     sharing the process-wide plan cache and metrics registry. Each
     domain's results must match the single-domain baseline. *)
  let doc_a = Xqp_workload.Gen_auction.packed ~scale:200 () in
  let doc_b = Xqp_workload.Gen_bib.packed ~books:12 () in
  let queries_a = [ "/site/people/person/name"; "//item//keyword"; "/site//person" ] in
  let queries_b = [ "/bib/book/title"; "//author//last"; "/bib//year" ] in
  let baseline doc qs =
    let exec = Executor.create doc in
    List.map (fun q -> List.length (Executor.execute exec (Executor.Query q))) qs
  in
  let base_a = baseline doc_a queries_a in
  let base_b = baseline doc_b queries_b in
  let run doc qs =
    Domain.spawn (fun () ->
        let exec = Executor.create doc in
        let counts = ref [] in
        (* repeat so later rounds hit the shared plan cache *)
        for _ = 1 to 5 do
          counts := List.map (fun q -> List.length (Executor.execute exec (Executor.Query q))) qs
        done;
        !counts)
  in
  let da = run doc_a queries_a and db = run doc_b queries_b in
  let got_a = Domain.join da and got_b = Domain.join db in
  check_bool "auction counts match baseline" true (got_a = base_a);
  check_bool "bib counts match baseline" true (got_b = base_b)

(* ------------------------------------------------------------------ *)
(* Request-scoped tracing and the flight recorder across domains       *)
(* ------------------------------------------------------------------ *)

let obs_session () =
  Xqp.Session.of_document (Xqp_workload.Gen_auction.packed ~scale:200 ())

let obs_queries =
  [| "/site/people/person/name"; "//item//keyword"; "/site//person"; "//person/name" |]

(* run one query under a fresh per-request tracer and return its events *)
let traced_events session q =
  let tr = Trace.create () in
  Trace.set_enabled tr true;
  (match Xqp.Session.run_profiled ~trace:tr session q with
  | Ok _ -> ()
  | Error e -> failwith (Xqp.Error.message e));
  Trace.events tr

let test_request_tracers_isolated () =
  (* One tracer per request, four domains running different queries at
     once: every recorded tree must balance, contain exactly the spans
     of its own query (same count as the serial baseline), and carry its
     own query text — no interleaving across domains. *)
  let session = obs_session () in
  let baseline = Array.map (fun q -> List.length (traced_events session q)) obs_queries in
  let rounds = 5 in
  let results = Array.make domains [] in
  spawn_all domains (fun d ->
      results.(d) <- List.init rounds (fun _ -> traced_events session obs_queries.(d)));
  Array.iteri
    (fun d per_round ->
      List.iter
        (fun events ->
          check_int
            (Printf.sprintf "domain %d span count matches serial baseline" d)
            baseline.(d) (List.length events);
          check_bool "tree balanced" true (Test_obs.events_balance events);
          match events with
          | (root : Trace.event) :: _ ->
            check_bool "root is the query span" true (root.Trace.name = "query");
            check_bool "root carries its own query text" true
              (List.assoc_opt "query" root.Trace.attrs = Some (Trace.Str obs_queries.(d)))
          | [] -> Alcotest.fail "no spans recorded")
        per_round)
    results

let test_flight_recorder_matches_serial () =
  (* Four domains folding the same workload into one recorder must land
     exactly the per-fingerprint counts (and row totals) of a serial run
     of the same multiset of queries. *)
  let session = obs_session () in
  let queries = Array.to_list obs_queries in
  (* Warm serially before spawning: the executor's lazy artifacts
     (statistics, hints) and the plan cache are built on first use, and
     [Lazy.force] is not safe to race from two domains. *)
  List.iter (fun q -> ignore (Xqp.Session.query session q)) queries;
  let rounds = 3 in
  let concurrent = Flight_recorder.create () in
  spawn_all domains (fun _ ->
      for _ = 1 to rounds do
        List.iter
          (fun q -> ignore (Xqp.Session.run_profiled ~recorder:concurrent session q))
          queries
      done);
  let serial = Flight_recorder.create () in
  for _ = 1 to domains * rounds do
    List.iter (fun q -> ignore (Xqp.Session.run_profiled ~recorder:serial session q)) queries
  done;
  let key (s : Flight_recorder.stat) =
    (s.Flight_recorder.st_fingerprint, s.Flight_recorder.st_count, s.Flight_recorder.st_rows)
  in
  let snapshot r = List.sort compare (List.map key (Flight_recorder.stats r)) in
  check_int "one entry per distinct fingerprint" (List.length queries)
    (List.length (Flight_recorder.stats concurrent));
  check_bool "per-fingerprint counts equal serial baseline" true
    (snapshot concurrent = snapshot serial);
  check_int "nothing dropped" 0 (Flight_recorder.dropped concurrent)

(* ------------------------------------------------------------------ *)
(* Corpus scatter-gather under a full worker pool                      *)
(* ------------------------------------------------------------------ *)

let test_corpus_four_domain_stress () =
  (* A 4-shard catalog driven by a 4-domain scatter-gather pool, many
     rounds back to back: every round must stay byte-identical to the
     serial per-document baseline, and each query must account for every
     shard exactly once — dispatched or pruned, never both or neither. *)
  Test_corpus.with_temp_dir (fun dir ->
      let docs = Test_corpus.corpus_docs 8 in
      let path = Test_corpus.pack_docs ~dir ~shards:4 docs in
      let session = Result.get_ok (Xqp.Session.open_db ~domains:4 path) in
      Fun.protect
        ~finally:(fun () -> Xqp.Session.close session)
        (fun () ->
          let expected = List.map (Test_corpus.serial_baseline docs) Test_corpus.queries in
          let m_pruned = Metrics.counter Metrics.default "corpus.shards_pruned" in
          let m_dispatched = Metrics.counter Metrics.default "corpus.shards_dispatched" in
          let p0 = Metrics.value m_pruned and d0 = Metrics.value m_dispatched in
          let rounds = 25 in
          for _ = 1 to rounds do
            List.iter2
              (fun q want ->
                check_bool q true (String.equal want (Test_corpus.corpus_answer session q)))
              Test_corpus.queries expected
          done;
          check_int "dispatched + pruned = rounds × queries × shards"
            (rounds * List.length Test_corpus.queries * 4)
            (Metrics.value m_dispatched - d0 + (Metrics.value m_pruned - p0))))

let suite =
  [
    ( "domains",
      [
        Alcotest.test_case "counter: no lost increments" `Quick test_counter_no_lost_increments;
        Alcotest.test_case "counter: no lost adds" `Quick test_counter_add_no_lost_updates;
        Alcotest.test_case "histogram: exact under contention" `Quick
          test_histogram_concurrent_observes;
        Alcotest.test_case "registry: get-or-create race" `Quick test_registry_get_or_create_race;
        Alcotest.test_case "plan cache: multi-domain hammer" `Quick test_cache_hammer;
        qcheck test_cache_random_concurrent;
        Alcotest.test_case "dsan: cross-domain owner violation" `Quick
          test_owner_cross_domain_violation;
        Alcotest.test_case "dsan: silent when off" `Quick test_owner_silent_when_off;
        Alcotest.test_case "dsan: guard held assertion" `Quick test_guard_assert_held;
        Alcotest.test_case "executors on separate domains" `Quick test_executors_across_domains;
        Alcotest.test_case "request tracers isolated across domains" `Quick
          test_request_tracers_isolated;
        Alcotest.test_case "flight recorder matches serial baseline" `Quick
          test_flight_recorder_matches_serial;
        Alcotest.test_case "corpus: 4 domains × 4 shards stress" `Quick
          test_corpus_four_domain_stress;
      ] );
  ]
