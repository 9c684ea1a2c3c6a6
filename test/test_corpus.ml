(* Corpus mode: catalogs, merged summaries, scatter-gather equivalence with
   the serial per-document baseline, and empty-shard pruning. *)

module Doc = Xqp_xml.Document
module Ps = Xqp_storage.Path_summary
module Catalog = Xqp_storage.Catalog
module Sg = Xqp_physical.Scatter_gather
module Session = Xqp.Session
module M = Xqp_obs.Metrics

let qcheck = QCheck_alcotest.to_alcotest

let with_temp_dir f =
  let dir = Filename.temp_file "xqp_corpus" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* A small mixed corpus: auction documents plus one bib document, so some
   paths exist in only part of the corpus. *)
let corpus_docs ?(bib = true) n =
  List.init n (fun i ->
      if bib && i = n - 1 then
        ("bib" ^ string_of_int i, Doc.of_tree (Xqp_workload.Gen_bib.document ~seed:i ~books:4 ()))
      else
        ( "auction" ^ string_of_int i,
          Doc.of_tree (Xqp_workload.Gen_auction.document ~seed:i ~scale:(20 + (7 * i)) ()) ))

let pack_docs ~dir ?shards docs =
  let output = Filename.concat dir "corpus.xqdbc" in
  let _ = Catalog.pack ?shards ~output (List.map (fun (n, d) -> (n, fun () -> d)) docs) in
  output

let queries =
  [
    "//item/name";
    "/site/people/person";
    "//book/title";
    "//bidder";
    "/site/regions//item[@id]/name";
    "//nosuchtag";
  ]

(* The acceptance gate: corpus results are byte-identical to concatenating
   per-document serial runs, in document order. *)
let serial_baseline docs q =
  String.concat ""
    (List.map
       (fun (_, doc) ->
         let s = Session.of_document doc in
         match Session.query s q with
         | Ok nodes -> Session.to_xml s nodes
         | Error e -> Alcotest.failf "serial %s: %s" q (Xqp.Error.message e))
       docs)

let corpus_answer session q =
  match Session.query session q with
  | Ok nodes -> Session.to_xml session nodes
  | Error e -> Alcotest.failf "corpus %s: %s" q (Xqp.Error.message e)

let test_scatter_equals_serial () =
  with_temp_dir (fun dir ->
      let docs = corpus_docs 5 in
      let path = pack_docs ~dir ~shards:3 docs in
      let session = Result.get_ok (Session.open_db ~domains:2 path) in
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () ->
          List.iter
            (fun q ->
              Alcotest.(check string) q (serial_baseline docs q) (corpus_answer session q))
            queries))

let test_merged_counts () =
  let docs = corpus_docs 4 in
  let summaries = List.map (fun (_, d) -> Ps.of_document d) docs in
  let merged = Ps.merge summaries in
  (* every path in the merged summary counts exactly the sum over inputs *)
  for i = 0 to Ps.length merged - 1 do
    let path = Ps.node_path merged i in
    let steps = List.map (fun lab -> { Ps.descendant = false; selector = Ps.Label lab }) path in
    let sum_inputs =
      List.fold_left (fun acc s -> acc + Ps.total_count s (Ps.matching s steps)) 0 summaries
    in
    Alcotest.(check int)
      (String.concat "/" path)
      sum_inputs
      (Ps.total_count merged (Ps.matching merged steps))
  done;
  (* and merging is associative enough for catalogs: merge of per-shard
     merges equals the flat merge *)
  let rec split k = function
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split (k - 1) rest in
        if k > 0 then (x :: a, b) else (a, x :: b)
  in
  let left, right = split 2 summaries in
  Alcotest.(check bool)
    "merge of merges" true
    (Ps.equal merged (Ps.merge [ Ps.merge left; Ps.merge right ]))

let test_catalog_roundtrip () =
  with_temp_dir (fun dir ->
      let docs = corpus_docs 5 in
      let path = pack_docs ~dir ~shards:2 docs in
      let cat = Catalog.load path in
      Alcotest.(check int) "shards" 2 (Catalog.shard_count cat);
      Alcotest.(check int) "docs" 5 (Catalog.doc_count cat);
      Alcotest.(check (list string))
        "doc names in order"
        (List.map fst docs)
        (List.init 5 (Catalog.doc_name cat));
      (* catalog merged summary = merge of shard summaries = merge of the
         documents' own summaries *)
      let shard_sums =
        Array.to_list (Array.map (fun (s : Catalog.shard) -> s.Catalog.summary) cat.Catalog.shards)
      in
      Alcotest.(check bool) "merged = shard merge" true
        (Ps.equal cat.Catalog.merged (Ps.merge shard_sums));
      Alcotest.(check bool) "merged = doc merge" true
        (Ps.equal cat.Catalog.merged
           (Ps.merge (List.map (fun (_, d) -> Ps.of_document d) docs)));
      (* stats-version monotonicity *)
      Array.iter
        (fun (s : Catalog.shard) ->
          Alcotest.(check bool) "version monotone" true
            (s.Catalog.stats_version <= cat.Catalog.merged_stats_version))
        cat.Catalog.shards)

let m_pruned = M.counter M.default "corpus.shards_pruned"
let m_dispatched = M.counter M.default "corpus.shards_dispatched"
let m_materialized = M.counter M.default "corpus.docs_materialized"

let test_empty_shard_pruning () =
  with_temp_dir (fun dir ->
      (* 4 auction docs in shards 0-1, bib docs in shard 2: //book can prove
         the auction shards empty from the catalog alone. *)
      let docs =
        List.init 4 (fun i ->
            ( "auction" ^ string_of_int i,
              Doc.of_tree (Xqp_workload.Gen_auction.document ~seed:i ~scale:25 ()) ))
        @ [ ("bib0", Doc.of_tree (Xqp_workload.Gen_bib.document ~seed:9 ~books:3 ())) ]
      in
      let path = pack_docs ~dir ~shards:3 docs in
      let session = Result.get_ok (Session.open_db path) in
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () ->
          (* a query no shard can answer: nothing is dispatched, nothing is
             materialized — pruned shards never open their files *)
          let p0 = M.value m_pruned and d0 = M.value m_dispatched in
          let mat0 = M.value m_materialized in
          Alcotest.(check string) "all pruned: empty" "" (corpus_answer session "//nosuchtag");
          Alcotest.(check int) "all shards pruned" 3 (M.value m_pruned - p0);
          Alcotest.(check int) "nothing dispatched" 0 (M.value m_dispatched - d0);
          Alcotest.(check int) "nothing materialized" 0 (M.value m_materialized - mat0);
          (* //book prunes exactly the two auction shards; the baseline's
             one-document sessions count in the corpus metrics too, so it
             runs first *)
          let want = serial_baseline docs "//book" in
          let p0 = M.value m_pruned and d0 = M.value m_dispatched in
          let mat0 = M.value m_materialized in
          Alcotest.(check string) "book answer" want (corpus_answer session "//book");
          Alcotest.(check int) "auction shards pruned" 2 (M.value m_pruned - p0);
          Alcotest.(check int) "bib shard dispatched" 1 (M.value m_dispatched - d0);
          Alcotest.(check int) "only bib doc materialized" 1 (M.value m_materialized - mat0)))

let test_corpus_xquery () =
  with_temp_dir (fun dir ->
      let docs = corpus_docs 3 in
      let path = pack_docs ~dir ~shards:2 docs in
      let session = Result.get_ok (Session.open_db path) in
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () ->
          (* per-document evaluation, concatenated in document order *)
          let expected =
            String.concat ""
              (List.map
                 (fun (_, doc) ->
                   Result.get_ok (Session.xquery_string (Session.of_document doc) "count(//item)"))
                 docs)
          in
          Alcotest.(check string)
            "count per document" expected
            (Result.get_ok (Session.xquery_string session "count(//item)"));
          let expected =
            String.concat ""
              (List.map
                 (fun (_, doc) ->
                   Result.get_ok
                     (Session.xquery_string (Session.of_document doc)
                        "for $i in //item return <hit>{$i/name}</hit>"))
                 docs)
          in
          Alcotest.(check string)
            "flwor over corpus" expected
            (Result.get_ok
               (Session.xquery_string session "for $i in //item return <hit>{$i/name}</hit>"))))

let test_explain_and_single_doc_unchanged () =
  with_temp_dir (fun dir ->
      let docs = corpus_docs 3 in
      let path = pack_docs ~dir ~shards:2 docs in
      let session = Result.get_ok (Session.open_db path) in
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () ->
          (* explain compiles through the merged-summary planner *)
          let e = Result.get_ok (Session.explain session "//item/name") in
          Alcotest.(check bool) "explain renders" true (String.length e.Session.rendered > 0);
          (* the estimate comes from the merged summary: exact sum over docs *)
          let total =
            List.fold_left
              (fun acc (_, d) ->
                let s = Ps.of_document d in
                acc
                + Ps.total_count s
                    (Ps.matching s
                       [
                         { Ps.descendant = true; selector = Ps.Label "item" };
                         { Ps.descendant = false; selector = Ps.Label "name" };
                       ]))
              0 docs
          in
          (match e.Session.estimate with
          | Some est -> Alcotest.(check int) "merged estimate exact" total (int_of_float est)
          | None -> Alcotest.fail "no estimate");
          Alcotest.(check (option string)) "exact source" (Some "exact") e.Session.estimate_source))

(* A corpus session's [document] is the planner's placeholder: early-exit
   answers must come from the scatter-gather run, not from it. *)
let test_first_and_exists () =
  with_temp_dir (fun dir ->
      let docs = corpus_docs 3 in
      let path = pack_docs ~dir ~shards:2 docs in
      let session = Result.get_ok (Session.open_db path) in
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () ->
          List.iter
            (fun q ->
              let nodes = Result.get_ok (Session.query session q) in
              Alcotest.(check bool) ("exists " ^ q) (nodes <> [])
                (Result.get_ok (Session.exists session q));
              Alcotest.(check (option int)) ("first " ^ q) (List.nth_opt nodes 0)
                (Result.get_ok (Session.first session q)))
            queries;
          Alcotest.(check bool) "//item/name answers" true
            (Result.get_ok (Session.exists session "//item/name"))))

module Check = Xqp_analysis.Store_check
module Diag = Xqp_analysis.Diagnostic

let error_codes ds =
  List.sort_uniq compare (List.map (fun d -> d.Diag.code) (Diag.errors ds))

let test_catalog_fsck () =
  with_temp_dir (fun dir ->
      let docs = corpus_docs 4 in
      let path = pack_docs ~dir ~shards:2 docs in
      (* a freshly packed catalog is clean *)
      (match Check.fsck path with
      | [] -> ()
      | ds -> Alcotest.failf "expected clean catalog:@.%a" Diag.pp_report ds);
      (* flip a byte inside the first shard's first document image: the
         per-doc store check fires through the catalog pass *)
      let shard0 = Filename.concat dir "corpus.shard000.xqdb" in
      let original = In_channel.with_open_bin shard0 In_channel.input_all in
      let b = Bytes.of_string original in
      Bytes.set b 200 (Char.chr (Char.code (Bytes.get b 200) lxor 0xff));
      Out_channel.with_open_bin shard0 (fun oc -> Out_channel.output_bytes oc b);
      Alcotest.(check bool) "tampered shard flagged" true (Diag.has_errors (Check.fsck path));
      (* a missing shard file has its own code *)
      Sys.remove shard0;
      Alcotest.(check bool) "missing shard flagged" true
        (List.mem "corpus/shard-missing" (error_codes (Check.fsck path)));
      Out_channel.with_open_bin shard0 (fun oc -> Out_channel.output_string oc original);
      (match Check.fsck path with
      | [] -> ()
      | ds -> Alcotest.failf "restored catalog clean again:@.%a" Diag.pp_report ds);
      (* an unparseable manifest is a single corpus/catalog error *)
      let junk = Filename.concat dir "junk.xqdbc" in
      Out_channel.with_open_bin junk (fun oc -> Out_channel.output_string oc "XQPCATLGgarbage");
      Alcotest.(check bool) "bad manifest" true
        (List.mem "corpus/catalog" (error_codes (Check.fsck junk))))

(* A traced corpus query profiles every document but reports one row per
   operator path, summed across documents and measured against the plan's
   corpus-wide estimate: on an exact downward plan every estimate holds. *)
let test_traced_corpus_rows () =
  with_temp_dir (fun dir ->
      let docs =
        List.init 8 (fun i ->
            ( "auction" ^ string_of_int i,
              Doc.of_tree (Xqp_workload.Gen_auction.document ~seed:i ~scale:200 ()) ))
      in
      let path = pack_docs ~dir ~shards:4 docs in
      let session = Result.get_ok (Session.open_db ~domains:2 path) in
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () ->
          let misestimates = M.counter M.default "executor.misestimates" in
          let before = M.value misestimates in
          let tr = Xqp_obs.Trace.create () in
          Xqp_obs.Trace.set_enabled tr true;
          match Session.run_profiled ~trace:tr session "//item/name" with
          | Error e -> Alcotest.fail (Xqp.Error.message e)
          | Ok p ->
            let module Profile = Xqp_physical.Profile in
            let n = List.length p.Session.result.Session.nodes in
            Alcotest.(check (float 1e-9)) "exact plan estimate" (float_of_int n)
              p.Session.physical.Xqp_physical.Physical_plan.est_rows;
            let paths = List.map (fun r -> r.Profile.path) p.Session.ops in
            Alcotest.(check (list string)) "one row per operator path"
              (List.map (fun r -> r.Profile.path) (Profile.rows_of_physical p.Session.physical))
              paths;
            (match List.find_opt (fun r -> r.Profile.path = "0") p.Session.ops with
            | Some root -> Alcotest.(check (option int)) "root actual rows" (Some n) root.Profile.actual_rows
            | None -> Alcotest.fail "no root row");
            Alcotest.(check (float 1e-9)) "worst q-error" 1.0 p.Session.worst_q_error;
            Alcotest.(check int) "no misestimate" before (M.value misestimates);
            (* the request trace holds one span per shard, each over the
               operator spans of its two documents *)
            let events = Xqp_obs.Trace.events tr in
            let doc_spans = [ "tau(3v)"; "root" ] in
            Alcotest.(check (list string)) "request spans"
              ("query" :: List.concat (List.init 4 (fun _ -> ("shard" :: doc_spans) @ doc_spans)))
              (List.map (fun e -> e.Xqp_obs.Trace.name) events);
            Alcotest.(check (option string)) "span tree balanced" None
              (Test_obs.balance_violation events)))

let prop_scatter_equals_serial =
  QCheck.Test.make ~name:"corpus scatter-gather = serial concatenation" ~count:12
    QCheck.(
      triple (int_range 1 5) (int_range 1 4) (int_range 0 1000))
    (fun (ndocs, shards, seed) ->
      with_temp_dir (fun dir ->
          let docs =
            List.init ndocs (fun i ->
                let s = seed + (31 * i) in
                if s mod 3 = 0 then
                  ("bib" ^ string_of_int i,
                   Doc.of_tree (Xqp_workload.Gen_bib.document ~seed:s ~books:(1 + (s mod 5)) ()))
                else
                  ( "auction" ^ string_of_int i,
                    Doc.of_tree (Xqp_workload.Gen_auction.document ~seed:s ~scale:(10 + (s mod 30)) ())
                  ))
          in
          let path = pack_docs ~dir ~shards docs in
          let session = Result.get_ok (Session.open_db ~domains:((seed mod 2) + 1) path) in
          Fun.protect
            ~finally:(fun () -> Session.close session)
            (fun () ->
              List.for_all
                (fun q -> String.equal (serial_baseline docs q) (corpus_answer session q))
                queries)))

(* [/] and [/.] answer the document node: one row per document, in
   ordinal order, written as the document's root element. *)
let test_document_node () =
  let root_xml doc = Xqp_xml.Serializer.to_string (Doc.to_tree doc (Doc.root doc)) in
  let check_rows what session docs =
    List.iter
      (fun q ->
        let rows = Result.get_ok (Session.query session q) in
        Alcotest.(check (list int)) (what ^ ": one row per document " ^ q)
          (List.init (List.length docs) Fun.id)
          (List.map Sg.ordinal_of rows);
        Alcotest.(check (list int)) (what ^ ": document nodes " ^ q)
          (List.map (fun _ -> -1) docs)
          (List.map Sg.node_of rows);
        Alcotest.(check string) (what ^ ": written as root elements " ^ q)
          (String.concat "" (List.map root_xml docs))
          (Session.to_xml session rows);
        Alcotest.(check (list string)) (what ^ ": text " ^ q)
          (List.map (fun d -> Doc.typed_value d (Doc.root d)) docs)
          (List.map (Session.text session) rows);
        Alcotest.(check (option int)) (what ^ ": first " ^ q) (List.nth_opt rows 0)
          (Result.get_ok (Session.first session q)))
      [ "/"; "/." ]
  in
  let docs = List.map snd (corpus_docs 3) in
  let single = List.hd docs in
  check_rows "document" (Session.of_document single) [ single ];
  Alcotest.(check (list int)) "a document's node is -1" [ -1 ]
    (Result.get_ok (Session.query (Session.of_document single) "/"));
  with_temp_dir (fun dir ->
      let path = pack_docs ~dir ~shards:2 (corpus_docs 3) in
      let session = Result.get_ok (Session.open_db path) in
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () -> check_rows "3-document catalog" session docs))

(* One document answers the same through every way of opening it: parsed,
   opened from its .xqdb, and as a one-document catalog — the same row
   ids, the same reply bytes apart from the per-call fields. *)
let prop_document_is_one_doc_catalog =
  let queries =
    [ "/"; "/."; "//a"; "//b/c"; "//@id"; "//text()"; "/root//a[b]"; "//c[@id = \"v1\"]"; "//a//b" ]
  in
  let xqueries = [ "count(//a)"; "//b"; "/"; "for $x in //a return $x/@id" ] in
  let reply session q =
    match Session.run session q with
    | Ok r ->
      Xqp.Response.to_string
        (Xqp.Response.of_query_result session ~query:q
           { r with Session.engine = "-"; cache = Xqp_physical.Executor.Cache_hit; time_ms = 0.0 })
    | Error e -> "error: " ^ Xqp.Error.message e
  in
  QCheck2.Test.make ~name:"one document = a one-document catalog" ~count:40 Test_open.gen_tree
    (fun tree ->
      with_temp_dir (fun dir ->
          let doc = Doc.of_tree tree in
          let parsed = Session.of_document doc in
          let xqdb = Filename.concat dir "x.xqdb" in
          Session.save parsed xqdb;
          let opened = Result.get_ok (Session.open_db xqdb) in
          let catalog = Result.get_ok (Session.open_db (pack_docs ~dir [ ("x", doc) ])) in
          Fun.protect
            ~finally:(fun () -> Session.close catalog)
            (fun () ->
              let agree f = List.for_all (fun s -> f s = f parsed) [ opened; catalog ] in
              List.for_all
                (fun q ->
                  agree (fun s -> Session.query s q)
                  && agree (fun s -> Session.first s q)
                  && agree (fun s -> Session.exists s q)
                  && agree (fun s -> reply s q))
                queries
              && List.for_all (fun q -> agree (fun s -> Session.xquery_string s q)) xqueries)))

let suite =
  [
    ( "corpus",
      [
        Alcotest.test_case "scatter-gather = serial baseline" `Quick test_scatter_equals_serial;
        Alcotest.test_case "merged summary counts = sum of inputs" `Quick test_merged_counts;
        Alcotest.test_case "catalog roundtrip + merged invariants" `Quick test_catalog_roundtrip;
        Alcotest.test_case "empty shards pruned, never opened" `Quick test_empty_shard_pruning;
        Alcotest.test_case "xquery evaluates per document" `Quick test_corpus_xquery;
        Alcotest.test_case "explain plans off the merged summary" `Quick
          test_explain_and_single_doc_unchanged;
        Alcotest.test_case "fsck validates catalogs and shards" `Quick test_catalog_fsck;
        Alcotest.test_case "first and exists answer from the corpus" `Quick test_first_and_exists;
        Alcotest.test_case "traced corpus rows, one per operator path" `Quick test_traced_corpus_rows;
        qcheck prop_scatter_equals_serial;
        Alcotest.test_case "document node: one row per document" `Quick test_document_node;
        qcheck prop_document_is_one_doc_catalog;
      ] );
  ]
