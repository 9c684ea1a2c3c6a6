(* Tests for the physical planning layer: Planner.compile determinism,
   compiled-plan execution against the reference engine, plan-cache
   keying (hits/misses across documents, the optimize flag and the
   strategy), LRU eviction, and the strategy-name round-trip. *)

open Xqp_xml
open Xqp_algebra
open Xqp_physical
module M = Xqp_obs.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let qcheck = QCheck_alcotest.to_alcotest
let hits () = M.value (M.counter M.default "plan_cache.hits")
let misses () = M.value (M.counter M.default "plan_cache.misses")
let evictions () = M.value (M.counter M.default "plan_cache.evictions")

let auction = lazy (Xqp_workload.Gen_auction.packed ~scale:400 ())

let uncached_plan exec ?strategy q =
  (Executor.prepare exec ?strategy ~use_cache:false (Executor.Query q)).Executor.physical

(* run [f] with the physical sort-checker enabled; the workload queries
   compiled in this suite must all pass it *)
let with_verify f () =
  let saved = Atomic.get Executor.verify_plans in
  Atomic.set Executor.verify_plans true;
  Fun.protect ~finally:(fun () -> Atomic.set Executor.verify_plans saved) f

let workload_queries =
  [
    "/site/regions/africa/item/name";
    "//item/name";
    "/site/people/person[address/city][profile]/name";
    "//open_auction[bidder/increase > 20]/current";
    "//description//listitem//text";
    "//person[profile/@income > 60000]/name";
    "//regions//item[location][quantity]/description//text";
  ]

(* ------------------------------------------------------------------ *)
(* Compile determinism and structure                                   *)
(* ------------------------------------------------------------------ *)

let prop_compile_deterministic =
  QCheck2.Test.make ~name:"Planner.compile is deterministic" ~count:200
    QCheck2.Gen.(pair Test_physical.gen_doc Test_xpath.gen_plan)
    (fun (doc, plan) ->
      let exec = Executor.create doc in
      let plan = Rewrite.optimize plan in
      Physical_plan.equal (Executor.compile exec plan) (Executor.compile exec plan))

let test_compile_resolves_auto () =
  let exec = Executor.create (Lazy.force auction) in
  List.iter
    (fun q ->
      let physical = uncached_plan exec q in
      List.iter
        (fun (tau : Physical_plan.tau) ->
          (* tau_engine has no Auto constructor; check the strategy
             projection stays concrete and supported *)
          let strategy = Physical_plan.engine_strategy tau.Physical_plan.engine in
          check_bool "engine is concrete" false (strategy = Physical_plan.Auto);
          check_bool "engine supports its pattern" true
            (Planner.supports strategy tau.Physical_plan.pattern))
        (Physical_plan.taus physical))
    workload_queries

let test_unsupported_explicit_strategy_falls_back () =
  (* a pattern with a following-sibling arc is outside TwigStack's class;
     an explicit Twigstack request must fall back, not fail *)
  let doc = Document.of_string ~strip:true "<r><a/><b/><a/><b/></r>" in
  let exec = Executor.create doc in
  let vertices =
    [|
      { Pattern_graph.label = Wildcard; predicates = []; output = false };
      { Pattern_graph.label = Tag "a"; predicates = []; output = false };
      { Pattern_graph.label = Tag "b"; predicates = []; output = true };
    |]
  in
  let pattern =
    Pattern_graph.make ~vertices
      ~arcs:[ (0, 1, Pattern_graph.Descendant); (1, 2, Pattern_graph.Following_sibling) ]
  in
  check_bool "TwigStack rejects sibling arcs" false (Twig_stack.supported pattern);
  let plan = Logical_plan.Tpm (Logical_plan.Context, pattern) in
  let physical = Executor.compile exec ~strategy:Executor.Twigstack plan in
  List.iter
    (fun (tau : Physical_plan.tau) ->
      check_bool "fell back off TwigStack" false
        (Physical_plan.engine_strategy tau.Physical_plan.engine = Physical_plan.Twigstack))
    (Physical_plan.taus physical);
  let context = [ Operators.document_context ] in
  let reference =
    Executor.execute exec ~strategy:Executor.Reference ~context (Executor.Plan plan)
  in
  check_bool "fallback result = reference" true
    (Executor.run_physical exec physical ~context = reference)

(* ------------------------------------------------------------------ *)
(* Compiled plans execute like the one-shot paths, on every engine      *)
(* ------------------------------------------------------------------ *)

let test_compiled_plans_agree () =
  let exec = Executor.create (Lazy.force auction) in
  let context = [ Operators.document_context ] in
  List.iter
    (fun q ->
      let reference = Executor.execute exec ~strategy:Executor.Reference (Executor.Query q) in
      List.iter
        (fun strategy ->
          let physical = uncached_plan exec ~strategy q in
          let via_ir = Executor.run_physical exec physical ~context in
          let via_query = Executor.execute exec ~strategy ~use_cache:false (Executor.Query q) in
          check_bool
            (Printf.sprintf "compiled %s on %s = reference" (Executor.strategy_name strategy) q)
            true (via_ir = reference);
          check_bool
            (Printf.sprintf "query %s on %s = compiled" (Executor.strategy_name strategy) q)
            true (via_query = via_ir))
        (Executor.Auto :: Executor.all_strategies))
    workload_queries

(* ------------------------------------------------------------------ *)
(* Summary-driven pruning: proven-empty plans compile to Empty          *)
(* ------------------------------------------------------------------ *)

let rec has_empty (p : Physical_plan.t) =
  match p.Physical_plan.op with
  | Physical_plan.Empty _ -> true
  | Physical_plan.Root | Physical_plan.Context -> false
  | Physical_plan.Step (b, _) | Physical_plan.Tau (b, _) -> has_empty b
  | Physical_plan.Union (a, b) -> has_empty a || has_empty b

let test_empty_path_set_compiles_to_empty () =
  let exec = Executor.create (Lazy.force auction) in
  (* /site/people has person children, never item: no instance path *)
  let physical = uncached_plan exec "/site/people/item" in
  check_bool "proven-empty query compiles to Empty" true (has_empty physical);
  check_bool "Empty executes to []" true
    (Executor.run_physical exec physical ~context:[ Operators.document_context ] = []);
  let live = uncached_plan exec "/site/people/person" in
  check_bool "satisfiable sibling query is not pruned" false (has_empty live)

let prop_summary_bounds_sound =
  (* every pattern reachable from a random optimized plan: the summary
     upper bound dominates the true root-context cardinality, and
     certainly-empty implies an empty result *)
  QCheck2.Test.make ~name:"summary upper bound >= true count" ~count:200
    QCheck2.Gen.(pair Test_physical.gen_doc Test_xpath.gen_plan)
    (fun (doc, plan) ->
      let stats = Statistics.build doc in
      let exec = Executor.create doc in
      let context = [ Operators.document_context ] in
      let rec patterns lp acc =
        match lp with
        | Logical_plan.Root | Logical_plan.Context -> acc
        | Logical_plan.Step (base, _) -> patterns base acc
        | Logical_plan.Tpm (base, p) -> patterns base (p :: acc)
        | Logical_plan.Union (a, b) -> patterns a (patterns b acc)
      in
      List.for_all
        (fun pattern ->
          let actual =
            Executor.execute exec ~strategy:Executor.Reference ~context
              (Executor.Plan (Logical_plan.Tpm (Logical_plan.Context, pattern)))
            |> List.sort_uniq compare |> List.length
          in
          let bound_ok =
            match Statistics.pattern_upper_bound stats pattern with
            | None -> true
            | Some b -> b +. 1e-9 >= float_of_int actual
          in
          let empty_ok =
            (not (Statistics.pattern_certainly_empty stats pattern)) || actual = 0
          in
          bound_ok && empty_ok)
        (patterns (Rewrite.optimize plan) []))

(* ------------------------------------------------------------------ *)
(* Plan-cache keying                                                   *)
(* ------------------------------------------------------------------ *)

let test_cache_same_query_hits () =
  let exec = Executor.create (Lazy.force auction) in
  let q = "//person[profile/@income > 60000]/name" in
  let h0 = hits () and m0 = misses () in
  let p1 = (Executor.prepare exec (Executor.Query q)).Executor.physical in
  check_int "first compile misses" 1 (misses () - m0);
  let p2 = (Executor.prepare exec (Executor.Query q)).Executor.physical in
  check_int "second compile hits" 1 (hits () - h0);
  check_int "no further miss" 1 (misses () - m0);
  check_bool "cached plan is the same plan" true (Physical_plan.equal p1 p2)

let test_cache_distinguishes_documents () =
  let doc = Lazy.force auction in
  let exec1 = Executor.create doc and exec2 = Executor.create doc in
  let q = "//item/name" in
  let m0 = misses () in
  ignore (Executor.prepare exec1 (Executor.Query q));
  ignore (Executor.prepare exec2 (Executor.Query q));
  (* same document contents, different executor identity: both miss *)
  check_int "each executor misses once" 2 (misses () - m0)

let test_cache_distinguishes_optimize_flag () =
  let exec = Executor.create (Lazy.force auction) in
  let q = "/site/people/person[address]/name" in
  let m0 = misses () in
  ignore (Executor.prepare exec ~optimize:true (Executor.Query q));
  ignore (Executor.prepare exec ~optimize:false (Executor.Query q));
  check_int "optimize flag is part of the key" 2 (misses () - m0);
  let m1 = misses () in
  ignore (Executor.prepare exec ~strategy:Executor.Nok (Executor.Query q));
  check_int "strategy is part of the key" 1 (misses () - m1)

let test_cache_bypass () =
  let exec = Executor.create (Lazy.force auction) in
  let q = "//description//listitem//text" in
  ignore (Executor.prepare exec (Executor.Query q));
  let h0 = hits () and m0 = misses () in
  ignore (Executor.prepare exec ~use_cache:false (Executor.Query q));
  check_int "bypass counts no hit" 0 (hits () - h0);
  check_int "bypass counts no miss" 0 (misses () - m0)

(* ------------------------------------------------------------------ *)
(* LRU eviction                                                        *)
(* ------------------------------------------------------------------ *)

let key q : Plan_cache.key =
  { query = q; optimize = true; strategy = "auto"; doc_id = 0; stats_version = 0 }

let test_lru_eviction () =
  let cache : int Plan_cache.t = Plan_cache.create ~capacity:2 () in
  let e0 = evictions () in
  Plan_cache.add cache (key "a") 1;
  Plan_cache.add cache (key "b") 2;
  (* touch "a" so "b" becomes the least recently used entry *)
  check_bool "a present" true (Plan_cache.find cache (key "a") = Some 1);
  Plan_cache.add cache (key "c") 3;
  check_int "capacity respected" 2 (Plan_cache.length cache);
  check_int "one eviction" 1 (evictions () - e0);
  check_bool "b evicted" true (Plan_cache.find cache (key "b") = None);
  check_bool "a survives" true (Plan_cache.find cache (key "a") = Some 1);
  check_bool "c present" true (Plan_cache.find cache (key "c") = Some 3)

let test_cache_rejects_zero_capacity () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Plan_cache.create: capacity must be positive") (fun () ->
      ignore (Plan_cache.create ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Strategy names                                                      *)
(* ------------------------------------------------------------------ *)

let test_strategy_name_round_trip () =
  List.iter
    (fun s ->
      match Executor.strategy_of_string (Executor.strategy_name s) with
      | Ok s' -> check_bool (Executor.strategy_name s ^ " round-trips") true (s = s')
      | Error e -> Alcotest.fail e)
    (Executor.Auto :: Executor.Reference :: Executor.all_strategies);
  match Executor.strategy_of_string "no-such-engine" with
  | Ok _ -> Alcotest.fail "unknown engine accepted"
  | Error msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check_bool "error names the valid engines" true (contains msg "auto")

let suite =
  [
    ( "planner",
      [
        qcheck prop_compile_deterministic;
        Alcotest.test_case "compile resolves Auto to supported engines" `Quick
          test_compile_resolves_auto;
        Alcotest.test_case "unsupported explicit strategy falls back" `Quick
          (with_verify test_unsupported_explicit_strategy_falls_back);
        Alcotest.test_case "compiled plans agree with reference on every engine" `Quick
          (with_verify test_compiled_plans_agree);
        Alcotest.test_case "strategy names round-trip" `Quick test_strategy_name_round_trip;
        Alcotest.test_case "empty path set compiles to Empty" `Quick
          test_empty_path_set_compiles_to_empty;
        qcheck prop_summary_bounds_sound;
      ] );
    ( "plan cache",
      [
        Alcotest.test_case "same query hits" `Quick test_cache_same_query_hits;
        Alcotest.test_case "different documents miss" `Quick test_cache_distinguishes_documents;
        Alcotest.test_case "optimize flag and strategy key" `Quick
          test_cache_distinguishes_optimize_flag;
        Alcotest.test_case "use_cache:false bypasses" `Quick test_cache_bypass;
        Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
        Alcotest.test_case "zero capacity rejected" `Quick test_cache_rejects_zero_capacity;
      ] );
  ]
