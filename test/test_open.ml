(* Opening packed stores: the DOM built straight from the store, statistics
   derived from the packed path summary (equal to a naive scan, and to
   what parsed XML plans with), the summary recount that turns a tampered
   image into an I/O error, and the byte-identical save of an opened
   store. *)

module Doc = Xqp_xml.Document
module Tree = Xqp_xml.Tree
module Symtab = Xqp_xml.Symtab
module Store = Xqp_storage.Succinct_store
module Store_io = Xqp_storage.Store_io
module Ps = Xqp_storage.Path_summary
module Catalog = Xqp_storage.Catalog
module Executor = Xqp_physical.Executor
module Stats = Xqp_physical.Statistics
module Pp = Xqp_physical.Physical_plan
module Session = Xqp.Session
module Queries = Xqp_workload.Queries

let qcheck = QCheck_alcotest.to_alcotest

(* Names overlap across kinds on purpose: an element, an attribute and a
   PI target may share a name, which the document symbol table must
   intern once, in pre-order of first occurrence. *)
let gen_tree =
  let open QCheck2.Gen in
  let name = oneofl [ "a"; "b"; "c"; "id" ] in
  let leaf =
    oneof
      [
        map Tree.text (oneofl [ "x"; "y&z"; "7" ]);
        map (fun n -> Tree.elt n []) name;
        map (fun s -> Tree.Comment s) (oneofl [ "note"; "" ]);
        map (fun t -> Tree.Pi (t, "body")) name;
      ]
  in
  let tree =
    sized
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             let* tag = name in
             let* attrs =
               map (List.sort_uniq (fun (a, _) (b, _) -> compare a b))
                 (list_size (int_bound 2) (pair name (oneofl [ "v1"; "v2" ])))
             in
             let* kids = list_size (int_bound 4) (self (n / 2)) in
             return (Tree.elt ~attrs tag kids))
  in
  map (fun t -> Tree.elt "root" [ t ]) tree

let packed_image tree = Store_io.to_bytes (Store.of_tree tree)
let open_image image = Executor.of_packed ~path:"test.xqdb" image

(* Every per-node field the DOM exposes, plus the symbol table order. *)
let same_document a b =
  let n = Doc.node_count a in
  let names d = List.init (Symtab.cardinal (Doc.symtab d)) (Symtab.name (Doc.symtab d)) in
  n = Doc.node_count b
  && names a = names b
  && Doc.element_count a = Doc.element_count b
  && List.for_all
       (fun id ->
         Doc.kind a id = Doc.kind b id
         && Doc.name_id a id = Doc.name_id b id
         && Doc.content a id = Doc.content b id
         && Doc.parent a id = Doc.parent b id
         && Doc.first_child a id = Doc.first_child b id
         && Doc.next_sibling a id = Doc.next_sibling b id
         && Doc.level a id = Doc.level b id
         && Doc.subtree_size a id = Doc.subtree_size b id
         && Doc.postorder a id = Doc.postorder b id)
       (List.init n Fun.id)
  && List.for_all
       (fun sym -> Doc.nodes_by_name a sym = Doc.nodes_by_name b sym)
       (List.init (Symtab.cardinal (Doc.symtab a)) Fun.id)

let prop_store_document =
  QCheck2.Test.make ~name:"DOM from the store = of_tree of the tree" ~count:200 gen_tree
    (fun tree ->
      let store = Store.of_tree tree in
      same_document (Doc.of_tree tree) (Store.to_document store)
      && same_document (Doc.of_tree tree) (Doc.of_tree (Store.to_tree store)))

(* The statistics a naive scan of the document gives, in the accessor
   vocabulary: the oracle for the packed open path. *)
let naive_stats_agree doc stats =
  let n = Doc.node_count doc in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let tags = Hashtbl.create 16 and pc = Hashtbl.create 16 and ad = Hashtbl.create 16 in
  let fanout = ref 0 and elements = ref 0 and depth = ref 0 in
  let label id =
    match Doc.kind doc id with
    | Doc.Attribute -> "@" ^ Doc.name doc id
    | _ -> Doc.name doc id
  in
  let rec path id = match Doc.parent doc id with None -> [ label id ] | Some p -> path p @ [ label id ] in
  let ok = ref true in
  let expect what b = if not b then (ok := false; QCheck2.Test.fail_reportf "%s" what) in
  for id = 0 to n - 1 do
    depth := max !depth (Doc.level doc id);
    match Doc.kind doc id with
    | Doc.Element | Doc.Attribute ->
      let name = Doc.name doc id in
      bump tags name;
      if Doc.kind doc id = Doc.Element then begin
        incr elements;
        fanout := !fanout + List.length (Doc.children doc id)
      end;
      (match Doc.parent doc id with Some p -> bump pc (Doc.name doc p, name) | None -> ());
      let rec up = function
        | None -> ()
        | Some a ->
          bump ad (Doc.name doc a, name);
          up (Doc.parent doc a)
      in
      up (Doc.parent doc id);
      let pid = Stats.path_id stats id in
      expect (Printf.sprintf "path id of node %d" id)
        (pid >= 0 && Ps.node_path (Stats.summary stats) pid = path id)
    | Doc.Text | Doc.Comment | Doc.Pi ->
      expect (Printf.sprintf "no path id for node %d" id) (Stats.path_id stats id = -1)
  done;
  let names = List.init (Symtab.cardinal (Doc.symtab doc)) (Symtab.name (Doc.symtab doc)) in
  let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  List.iter
    (fun a ->
      expect ("tag " ^ a) (Stats.tag_count stats a = count tags a);
      List.iter
        (fun b ->
          expect
            (Printf.sprintf "pc %s/%s" a b)
            (Stats.parent_child_count stats ~parent:a ~child:b = count pc (a, b));
          expect
            (Printf.sprintf "ad %s//%s" a b)
            (Stats.ancestor_descendant_count stats ~ancestor:a ~descendant:b = count ad (a, b)))
        names)
    names;
  expect "node count" (Stats.node_count stats = n);
  expect "element count" (Stats.element_count stats = !elements);
  expect "avg fanout"
    (Stats.avg_fanout stats = float_of_int !fanout /. float_of_int (max 1 !elements));
  expect "max depth" (Stats.max_depth stats = !depth);
  !ok

let prop_packed_statistics =
  QCheck2.Test.make ~name:"packed-open statistics = naive scan" ~count:200 gen_tree (fun tree ->
      let exec = open_image (packed_image tree) in
      naive_stats_agree (Executor.doc exec) (Executor.statistics exec)
      && naive_stats_agree (Doc.of_tree tree) (Stats.build (Doc.of_tree tree)))

let test_annotate_rejects_foreign_summary () =
  let doc = Doc.of_string "<r><a x=\"1\">t</a><b/></r>" in
  let raises what summary =
    match Ps.annotate summary doc with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Failure _ -> ()
  in
  raises "missing path" (Ps.of_document (Doc.of_string "<r><a x=\"1\">t</a></r>"));
  raises "count" (Ps.of_document (Doc.of_string "<r><a x=\"1\">t</a><b/><b/></r>"));
  raises "text flag" (Ps.of_document (Doc.of_string "<r><a x=\"1\"/><b/></r>"));
  raises "extra path" (Ps.of_document (Doc.of_string "<r><a x=\"1\">t</a><b/><c/></r>"));
  Alcotest.(check int) "own summary" (Doc.node_count doc)
    (Array.length (Ps.annotate (Ps.of_document doc) doc))

(* --- sessions over a packed auction document ---------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "xqp_open" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let auction_xml = lazy (Xqp_xml.Serializer.to_string (Xqp_workload.Gen_auction.document ~seed:3 ~scale:400 ()))

(* A parsed session and the same document saved and reopened. *)
let with_pair f =
  with_temp_dir (fun dir ->
      let parsed = Result.get_ok (Session.of_string (Lazy.force auction_xml)) in
      let path = Filename.concat dir "a.xqdb" in
      Session.save parsed path;
      match Session.open_db path with
      | Ok opened -> f ~dir ~path parsed opened
      | Error e -> Alcotest.failf "open_db: %s" (Xqp.Error.message e))

let mix =
  List.map (fun q -> q.Queries.xpath) (Queries.auction_paths @ Queries.auction_complexity_sweep)

(* One or two instances of each corpus ad-hoc template (auction and bib
   shapes alike: bib names are simply absent from an auction document). *)
let corpus_templates =
  [
    "/site/regions/europe/item/name";
    "/site/regions/asia/item[quantity > 2]/name";
    "//open_auction[bidder/increase > 12]/current";
    "//open_auction[bidder/increase > 9][itemref]/initial";
    "//person[profile/@income > 45000]/name";
    "/site/people/person[address/city][profile/@income > 60000]/name";
    "//open_auction[initial > 100]/current";
    "//open_auction[current > 200]/initial";
    "//open_auction[bidder/increase > 3]/seller";
    "//person[address/city = \"Toronto\"]/name";
    "//item[location = \"Canada\"]/name";
    "//person[profile/interest/@category = \"books\"]/name";
    "//category/name";
    "//description//listitem//text";
    "//parlist//listitem//text";
    "//book[price > 40]/title";
    "/bib/book[@year > 1990]/title";
    "//book[@year = 1994]/author/last";
    "//book[price < 60]/publisher";
    "//book[author/last = \"Suciu\"]/title";
    "//book/author/last";
  ]

let plan_text s q =
  Format.asprintf "%a" Pp.pp
    (Executor.prepare (Session.executor s) ~use_cache:false (Executor.Query q)).Executor.physical

let test_plans_identical () =
  with_pair (fun ~dir:_ ~path:_ parsed opened ->
      List.iter
        (fun q -> Alcotest.(check string) q (plan_text parsed q) (plan_text opened q))
        (mix @ corpus_templates))

let test_save_roundtrip_and_answers () =
  with_pair (fun ~dir ~path parsed opened ->
      let image = Store_io.read_file path in
      Alcotest.(check bool) "adopted store re-serializes identically" true
        (String.equal image (Store_io.to_bytes (Executor.store (Session.executor opened))));
      let again = Filename.concat dir "b.xqdb" in
      Session.save opened again;
      Alcotest.(check bool) "save of an opened session" true
        (String.equal image (Store_io.read_file again));
      let answer ?engine s q =
        match Session.query ?engine s q with
        | Ok nodes -> Session.to_xml s nodes
        | Error e -> Alcotest.failf "%s: %s" q (Xqp.Error.message e)
      in
      List.iter
        (fun q ->
          let reference = answer ~engine:Executor.Reference opened q in
          Alcotest.(check string) (q ^ " (auto)") reference (answer opened q);
          Alcotest.(check string) (q ^ " (parsed)") reference (answer parsed q))
        mix)

(* --- tampered summaries ------------------------------------------------- *)

(* [f] rewrites one byte. Counts are bumped rather than flipped so that
   the tampered row stays well-formed (a zero count would already be
   rejected by the table decoder): only the recount can catch it. *)
let edit_byte s off f =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (f (Char.code (Bytes.get b off)) land 0xff));
  Bytes.to_string b

let bump c = if c = 0xff then c - 1 else c + 1
let flip_text_flag c = c lxor Ps.flag_text

let write path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let layout image =
  let read_i64 off =
    let v = ref 0 in
    for k = 0 to 7 do
      v := !v lor (Char.code image.[off + k] lsl (8 * k))
    done;
    !v
  in
  Store_io.layout_of_header ~read_i64

(* Offsets of a summary row's count and flags fields inside an image. *)
let psum_field image ~row ~field =
  (layout image).Store_io.psum_off + (row * Store_io.psum_row_bytes) + (8 * field)

let expect_io what = function
  | Error (Xqp.Error.Io _) -> ()
  | Error e -> Alcotest.failf "%s: expected an io error, got %s" what (Xqp.Error.message e)
  | Ok _ -> Alcotest.failf "%s: expected an io error, got an answer" what

let test_tampered_store () =
  with_temp_dir (fun dir ->
      let image = packed_image (Xqp_workload.Gen_auction.document ~seed:5 ~scale:60 ()) in
      let path = Filename.concat dir "t.xqdb" in
      let open_tampered off f =
        write path (edit_byte image off f);
        Session.open_db path
      in
      expect_io "count" (open_tampered (psum_field image ~row:1 ~field:2) bump);
      expect_io "text flag" (open_tampered (psum_field image ~row:0 ~field:3) flip_text_flag);
      write path image;
      Alcotest.(check bool) "intact image opens" true (Result.is_ok (Session.open_db path)))

let test_tampered_shard () =
  with_temp_dir (fun dir ->
      let docs =
        List.init 3 (fun i ->
            ( "auction" ^ string_of_int i,
              fun () -> Doc.of_tree (Xqp_workload.Gen_auction.document ~seed:i ~scale:40 ()) ))
      in
      let output = Filename.concat dir "corpus.xqdbc" in
      let cat = Catalog.pack ~shards:1 ~output docs in
      let shard = Catalog.shard_file cat 0 in
      let contents = Store_io.read_file shard in
      let image_off, image_len = (Catalog.shard_doc_table ~path:shard contents).(1) in
      let image = String.sub contents image_off image_len in
      write shard (edit_byte contents (image_off + psum_field image ~row:1 ~field:2) bump);
      let session = Result.get_ok (Session.open_db output) in
      Fun.protect
        ~finally:(fun () -> Session.close session)
        (fun () -> expect_io "shard count" (Session.query session "//item/name")))

(* --- the image format ------------------------------------------------- *)

(* Digests of known-good images: any change to the writer, the label
   interning order or the tag width shows here. [wide_tree] has 303
   labels, so 2-byte tags. *)
let small_tree =
  Tree.elt ~attrs:[ ("id", "r1"); ("lang", "en") ] "root"
    [
      Tree.Comment " head ";
      Tree.Pi ("xml-stylesheet", "href=\"s.css\"");
      Tree.elt ~attrs:[ ("k", "v") ] "a" [ Tree.text "one"; Tree.elt "b" []; Tree.text "two" ];
      Tree.Pi ("id", "");
      Tree.elt "id" [ Tree.Comment "" ];
    ]

let wide_tree =
  Tree.elt "root"
    (List.init 300 (fun i ->
         Tree.elt ~attrs:[ ("n", string_of_int i) ] ("k" ^ string_of_int i) [ Tree.text "t" ]))

let test_golden_images () =
  let digest doc = Digest.to_hex (Digest.string (Store_io.to_bytes (Store.of_document doc))) in
  List.iter
    (fun (what, doc, expected) -> Alcotest.(check string) what expected (digest (Lazy.force doc)))
    [
      ( "auction seed 1 scale 2000",
        lazy (Xqp_workload.Gen_auction.packed ~seed:1 ~scale:2000 ()),
        "1a12fc21ec04cf46a0d361bc402d8c22" );
      ( "bib seed 1, 200 books",
        lazy (Xqp_workload.Gen_bib.packed ~seed:1 ~books:200 ()),
        "ec4e8d6c7593cff6313a313a4d8cd540" );
      ( "attributes, comments, PIs",
        lazy (Doc.of_tree small_tree),
        "973b10cf39dde33cdd6a9c45e1d413a5" );
      ("2-byte tags", lazy (Doc.of_tree wide_tree), "1528cd6685521e23f080c1db9aeb11b8");
    ]

let prop_image_roundtrip =
  QCheck2.Test.make ~name:"image -> store -> image, and via the DOM, byte for byte" ~count:200
    gen_tree (fun tree ->
      let image = packed_image tree in
      let load ?verify () = Store_io.load_bytes ?verify ~path:"p.xqdb" image in
      String.equal image (Store_io.to_bytes (load ~verify:true ()))
      && String.equal image
           (Store_io.to_bytes (Store.of_document (Store.to_document (load ())))))

(* --- load-time checks ---------------------------------------------------- *)

let set_i64 s off v =
  let b = Bytes.of_string s in
  Bytes.set_int64_le b off (Int64.of_int v);
  Bytes.to_string b

let get_i64 s off = Int64.to_int (String.get_int64_le s off)

let contains s sub =
  let n = String.length sub in
  let rec from i = i + n <= String.length s && (String.sub s i n = sub || from (i + 1)) in
  from 0

(* Each corruption must fail the load as a corrupt store and the open as
   an I/O error. *)
let expect_corrupt what image =
  (match Store_io.load_bytes ~path:"t.xqdb" image with
  | _ -> Alcotest.failf "%s: load accepted" what
  | exception Failure m ->
    if not (contains m "corrupt store file") then
      Alcotest.failf "%s: unexpected failure %s" what m);
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.xqdb" in
      write path image;
      expect_io what (Session.open_db path))

let test_load_checks () =
  let image = packed_image small_tree in
  let l = layout image in
  let n = l.Store_io.node_count in
  Alcotest.(check bool) "small enough for one flag block" true (n < 256);
  (* header fields: offsets inside the fixed header *)
  expect_corrupt "structure length" (set_i64 image 32 (2 * n + 2));
  expect_corrupt "flag length" (set_i64 image 48 (n + 1));
  expect_corrupt "tag id" (edit_byte image (l.Store_io.tags_off + 2) (fun _ -> 0xff));
  expect_corrupt "flag rank sample" (edit_byte image l.Store_io.flag_samples_off bump);
  (* set the root's flag (an element has no content) and bump the total
     sample to match: only the popcount = content count check is left *)
  let last_sample = l.Store_io.flag_samples_off + (8 * (l.Store_io.flag_sample_count - 1)) in
  expect_corrupt "popcount"
    (set_i64 (edit_byte image l.Store_io.flags_off (fun c -> c lor 1)) last_sample
       (get_i64 image last_sample + 1))

(* String tables: offsets must stay inside the table's own blob. Bounded
   by the file alone, a raised last symbol offset would read the content
   offsets that follow as part of the last label. *)
let test_string_table_bounds () =
  let image = packed_image small_tree in
  let l = layout image in
  let last ~offsets_off ~count = offsets_off + (8 * count) in
  let sym_last = last ~offsets_off:l.Store_io.symbol_offsets_off ~count:l.Store_io.symbol_count in
  let content_last =
    last ~offsets_off:l.Store_io.content_offsets_off ~count:l.Store_io.content_count
  in
  let raised off k = set_i64 image off (get_i64 image off + k) in
  expect_corrupt "last symbol offset + 6" (raised sym_last 6);
  expect_corrupt "last symbol offset - 1" (raised sym_last (-1));
  expect_corrupt "first symbol offset" (raised l.Store_io.symbol_offsets_off 1);
  expect_corrupt "symbol offsets decrease"
    (set_i64 image (sym_last - 8) (get_i64 image sym_last + 1));
  expect_corrupt "last content offset + 6" (raised content_last 6);
  expect_corrupt "first content offset" (raised l.Store_io.content_offsets_off 1);
  (match Store_io.packed_summary ~path:"t.xqdb" (raised sym_last 6) with
  | _ -> Alcotest.fail "packed_summary accepted a symbol offset past its blob"
  | exception Failure _ -> ());
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.xqdb" in
      write path (raised sym_last 6);
      match Xqp_storage.Paged_store.open_store path with
      | paged ->
        Xqp_storage.Paged_store.close paged;
        Alcotest.fail "paged open accepted a symbol offset past its blob"
      | exception Failure _ -> ())

(* Tags are at most 2 bytes: a 65,537th label fails the build instead of
   wrapping to another label's id, and a header whose symbols outnumber
   what its tag width addresses fails the load. *)
let test_label_limit () =
  let many = Tree.elt "root" (List.init 70_000 (fun i -> Tree.elt ("k" ^ string_of_int i) [])) in
  (match Store.of_tree many with
  | _ -> Alcotest.fail "70,001 labels packed"
  | exception Failure m ->
    Alcotest.(check bool) ("names the limit: " ^ m) true (contains m "65536"));
  (* the 300-symbol image with its tags narrowed to 1 byte: every section
     is consistent with the header except the symbol count *)
  let wide = packed_image wide_tree in
  let l = layout wide in
  let n = l.Store_io.node_count in
  let narrow_tags = String.init n (fun r -> wide.[l.Store_io.tags_off + (2 * r)]) in
  let narrowed =
    String.concat ""
      [
        String.sub (set_i64 wide 24 1) 0 l.Store_io.tags_off;
        narrow_tags;
        String.sub wide l.Store_io.flags_off (String.length wide - l.Store_io.flags_off);
      ]
  in
  expect_corrupt "300 symbols at tag width 1" narrowed;
  Alcotest.(check bool) "fsck reports the header" true
    (List.exists
       (fun d -> d.Xqp_analysis.Diagnostic.code = "layout/header")
       (Xqp_analysis.Store_check.check_bytes narrowed))

let suite =
  [
    ( "open",
      [
        qcheck prop_store_document;
        qcheck prop_packed_statistics;
        Alcotest.test_case "annotate rejects a foreign summary" `Quick
          test_annotate_rejects_foreign_summary;
        Alcotest.test_case "plans identical to parsed XML" `Quick test_plans_identical;
        Alcotest.test_case "save roundtrip + reference answers" `Quick
          test_save_roundtrip_and_answers;
        Alcotest.test_case "tampered summary count: io error" `Quick test_tampered_store;
        Alcotest.test_case "tampered shard summary: io error" `Quick test_tampered_shard;
        Alcotest.test_case "image bytes pinned (golden digests)" `Quick test_golden_images;
        qcheck prop_image_roundtrip;
        Alcotest.test_case "load-time checks: corrupt store, io error" `Quick test_load_checks;
        Alcotest.test_case "string table offsets bounded by their blob" `Quick
          test_string_table_bounds;
        Alcotest.test_case "label limit: build fails, wide header rejected" `Quick
          test_label_limit;
      ] );
  ]
