(* Tests for xqp_storage: bit vectors, balanced parentheses, content store,
   pager, succinct store, B+-tree. *)

open Xqp_xml
open Xqp_storage

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Bitvector                                                           *)
(* ------------------------------------------------------------------ *)

let bits_of_string s =
  let b = Bitvector.builder () in
  String.iter (fun c -> Bitvector.push b (c = '1')) s;
  Bitvector.build b

let test_bitvector_basic () =
  let bv = bits_of_string "1011001" in
  check_int "length" 7 (Bitvector.length bv);
  check_bool "get 0" true (Bitvector.get bv 0);
  check_bool "get 1" false (Bitvector.get bv 1);
  check_int "pop" 4 (Bitvector.pop_count bv);
  check_int "rank1 0" 0 (Bitvector.rank1 bv 0);
  check_int "rank1 3" 2 (Bitvector.rank1 bv 3);
  check_int "rank1 7" 4 (Bitvector.rank1 bv 7);
  check_int "rank0 7" 3 (Bitvector.rank0 bv 7);
  check_int "select1 0" 0 (Bitvector.select1 bv 0);
  check_int "select1 2" 3 (Bitvector.select1 bv 3 |> fun _ -> Bitvector.select1 bv 2);
  check_int "select1 3" 6 (Bitvector.select1 bv 3);
  check_int "select0 0" 1 (Bitvector.select0 bv 0);
  check_int "select0 2" 5 (Bitvector.select0 bv 2)

let test_bitvector_empty_and_bounds () =
  let bv = bits_of_string "" in
  check_int "empty length" 0 (Bitvector.length bv);
  check_int "empty rank" 0 (Bitvector.rank1 bv 0);
  check_bool "select raises" true
    (match Bitvector.select1 bv 0 with exception Not_found -> true | _ -> false);
  let bv1 = bits_of_string "1" in
  check_bool "get oob" true
    (match Bitvector.get bv1 1 with exception Invalid_argument _ -> true | _ -> false)

let test_bitvector_large () =
  (* Cross superblock boundaries. *)
  let n = 5000 in
  let b = Bitvector.builder () in
  for i = 0 to n - 1 do
    Bitvector.push b (i mod 3 = 0)
  done;
  let bv = Bitvector.build b in
  check_int "pop" ((n + 2) / 3) (Bitvector.pop_count bv);
  (* rank/select agree with a naive recomputation at sampled points *)
  let naive_rank i =
    let r = ref 0 in
    for j = 0 to i - 1 do
      if j mod 3 = 0 then incr r
    done;
    !r
  in
  List.iter
    (fun i -> check_int (Printf.sprintf "rank %d" i) (naive_rank i) (Bitvector.rank1 bv i))
    [ 0; 1; 511; 512; 513; 1024; 4999; 5000 ];
  for k = 0 to Bitvector.pop_count bv - 1 do
    let p = Bitvector.select1 bv k in
    if not (Bitvector.get bv p) || Bitvector.rank1 bv p <> k then
      Alcotest.failf "select1 %d wrong" k
  done

let test_bitvector_push_many_concat_sub () =
  let b = Bitvector.builder () in
  Bitvector.push_many b true 10;
  Bitvector.push_many b false 5;
  let bv = Bitvector.build b in
  check_int "len" 15 (Bitvector.length bv);
  check_int "pop" 10 (Bitvector.pop_count bv);
  let s = Bitvector.sub bv 8 4 in
  check_int "sub len" 4 (Bitvector.length s);
  check_int "sub pop" 2 (Bitvector.pop_count s);
  let c = Bitvector.concat [ s; s ] in
  check_int "concat len" 8 (Bitvector.length c);
  check_bool "equal" true (Bitvector.equal c (bits_of_string "11001100"))

let test_bitvector_equal_words () =
  (* word-wise equal must catch a single differing bit anywhere, including
     inside the padded tail word *)
  let n = 200 in
  let base = List.init n (fun i -> i mod 7 = 0) in
  let bv = Bitvector.of_bools base in
  check_bool "reflexive" true (Bitvector.equal bv (Bitvector.of_bools base));
  check_bool "length differs" false
    (Bitvector.equal bv (Bitvector.of_bools (base @ [ false ])));
  List.iter
    (fun flip ->
      let flipped = List.mapi (fun i b -> if i = flip then not b else b) base in
      check_bool (Printf.sprintf "bit %d differs" flip) false
        (Bitvector.equal bv (Bitvector.of_bools flipped)))
    [ 0; 63; 64; 127; 128; n - 1 ]

let test_bitvector_push_many_bulk () =
  (* bulk run fills agree with bit-by-bit pushes across byte/word seams *)
  let runs = [ (true, 3); (false, 70); (true, 130); (false, 1); (true, 64); (false, 509) ] in
  let fast = Bitvector.builder () and slow = Bitvector.builder () in
  List.iter
    (fun (bit, k) ->
      Bitvector.push_many fast bit k;
      for _ = 1 to k do
        Bitvector.push slow bit
      done)
    runs;
  let fast = Bitvector.build fast and slow = Bitvector.build slow in
  check_bool "equal" true (Bitvector.equal fast slow);
  check_int "pop" (Bitvector.pop_count slow) (Bitvector.pop_count fast)

let prop_push_many_reference =
  QCheck2.Test.make ~name:"push_many = repeated push" ~count:200
    QCheck2.Gen.(list_size (int_range 0 12) (pair bool (int_bound 600)))
    (fun runs ->
      let fast = Bitvector.builder () and slow = Bitvector.builder () in
      List.iter
        (fun (bit, k) ->
          Bitvector.push_many fast bit k;
          for _ = 1 to k do
            Bitvector.push slow bit
          done)
        runs;
      Bitvector.equal (Bitvector.build fast) (Bitvector.build slow))

let gen_bits = QCheck2.Gen.(list_size (int_range 0 2000) bool)

let prop_rank_select_boundaries =
  (* lengths pinned to word / superblock seams, where the directory
     hand-off between levels happens *)
  let gen =
    QCheck2.Gen.(
      oneofl [ 63; 64; 65; 255; 256; 257; 511; 512; 513; 1023; 1024 ] >>= fun n ->
      list_repeat n bool)
  in
  QCheck2.Test.make ~name:"rank/select at directory boundaries" ~count:150 gen (fun bools ->
      let bv = Bitvector.of_bools bools in
      let n = Bitvector.length bv in
      let ok = ref true in
      let running = ref 0 in
      List.iteri
        (fun i bit ->
          if Bitvector.rank1 bv i <> !running then ok := false;
          if bit then incr running)
        bools;
      if Bitvector.rank1 bv n <> !running then ok := false;
      for k = 0 to Bitvector.pop_count bv - 1 do
        let p = Bitvector.select1 bv k in
        if not (Bitvector.get bv p && Bitvector.rank1 bv p = k) then ok := false
      done;
      for k = 0 to n - Bitvector.pop_count bv - 1 do
        let p = Bitvector.select0 bv k in
        if Bitvector.get bv p || Bitvector.rank0 bv p <> k then ok := false
      done;
      !ok)

let prop_rank_select =
  QCheck2.Test.make ~name:"bitvector rank/select laws" ~count:100 gen_bits (fun bools ->
      let bv = Bitvector.of_bools bools in
      let n = Bitvector.length bv in
      let ok = ref true in
      (* rank is the prefix sum *)
      let running = ref 0 in
      List.iteri
        (fun i bit ->
          if Bitvector.rank1 bv i <> !running then ok := false;
          if bit then incr running)
        bools;
      if Bitvector.rank1 bv n <> !running then ok := false;
      (* select inverts rank *)
      for k = 0 to Bitvector.pop_count bv - 1 do
        let p = Bitvector.select1 bv k in
        if not (Bitvector.get bv p && Bitvector.rank1 bv p = k) then ok := false
      done;
      for k = 0 to n - Bitvector.pop_count bv - 1 do
        let p = Bitvector.select0 bv k in
        if Bitvector.get bv p || Bitvector.rank0 bv p <> k then ok := false
      done;
      !ok)

let prop_slice_ops =
  (* append_slice / sub / concat agree with per-bit reference *)
  QCheck2.Test.make ~name:"slice ops = per-bit reference" ~count:200
    QCheck2.Gen.(pair gen_bits (pair small_nat small_nat))
    (fun (bools, (a, b)) ->
      let bv = Bitvector.of_bools bools in
      let n = Bitvector.length bv in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      let fast = Bitvector.sub bv off len in
      let slow =
        Bitvector.of_bools (List.init len (fun i -> Bitvector.get bv (off + i)))
      in
      Bitvector.equal fast slow
      &&
      let joined = Bitvector.concat [ fast; bv; fast ] in
      Bitvector.length joined = (2 * len) + n
      && Bitvector.pop_count joined = (2 * Bitvector.pop_count fast) + Bitvector.pop_count bv)

(* ------------------------------------------------------------------ *)
(* Balanced_parens                                                     *)
(* ------------------------------------------------------------------ *)

(* ((()())())  -- a root with two children, first child has two leaves,
   second child is a leaf. *)
let sample_bp () = Balanced_parens.of_bitvector (bits_of_string "1110100100")

let test_bp_navigation () =
  let bp = sample_bp () in
  check_int "node count" 5 (Balanced_parens.node_count bp);
  check_int "root" 0 (Balanced_parens.root bp);
  check_int "find_close root" 9 (Balanced_parens.find_close bp 0);
  check_int "subtree size root" 5 (Balanced_parens.subtree_size bp 0);
  check_bool "first_child root" true (Balanced_parens.first_child bp 0 = Some 1);
  check_bool "first_child c1" true (Balanced_parens.first_child bp 1 = Some 2);
  check_bool "leaf has no child" true (Balanced_parens.first_child bp 2 = None);
  check_bool "sibling of leaf" true (Balanced_parens.next_sibling bp 2 = Some 4);
  check_bool "no sibling" true (Balanced_parens.next_sibling bp 4 = None);
  check_bool "sibling of c1" true (Balanced_parens.next_sibling bp 1 = Some 7);
  check_bool "enclose leaf" true (Balanced_parens.enclose bp 4 = Some 1);
  check_bool "enclose c2" true (Balanced_parens.enclose bp 7 = Some 0);
  check_bool "enclose root" true (Balanced_parens.enclose bp 0 = None);
  check_int "rank of c2" 4 (Balanced_parens.preorder_rank bp 7);
  check_int "node_of_rank" 7 (Balanced_parens.node_of_rank bp 4);
  check_int "depth c2" 1 (Balanced_parens.depth bp 7);
  check_int "depth leaf" 2 (Balanced_parens.depth bp 4);
  check_int "find_open" 1 (Balanced_parens.find_open bp 6);
  check_bool "balanced" true (Balanced_parens.check_balanced bp)

(* Deep and wide trees exercise the block directory (blocks are 256 bits). *)
let test_bp_deep () =
  let b = Bitvector.builder () in
  let depth = 1000 in
  Bitvector.push_many b true depth;
  Bitvector.push_many b false depth;
  let bp = Balanced_parens.of_bitvector (Bitvector.build b) in
  check_int "find_close spine" (2 * depth - 1) (Balanced_parens.find_close bp 0);
  check_int "find_close innermost" depth (Balanced_parens.find_close bp (depth - 1));
  check_int "subtree innermost" 1 (Balanced_parens.subtree_size bp (depth - 1));
  check_bool "enclose innermost" true
    (Balanced_parens.enclose bp (depth - 1) = Some (depth - 2))

let test_bp_wide () =
  let b = Bitvector.builder () in
  Bitvector.push b true;
  let kids = 2000 in
  for _ = 1 to kids do
    Bitvector.push b true;
    Bitvector.push b false
  done;
  Bitvector.push b false;
  let bp = Balanced_parens.of_bitvector (Bitvector.build b) in
  check_int "count" (kids + 1) (Balanced_parens.node_count bp);
  (* walk the sibling chain *)
  let rec walk node acc =
    match Balanced_parens.next_sibling bp node with
    | None -> acc
    | Some s -> walk s (acc + 1)
  in
  check_int "siblings" (kids - 1) (walk 1 0);
  check_int "find_close root" (2 * kids + 1) (Balanced_parens.find_close bp 0)

(* Equivalence with Document navigation on random trees. *)
let gen_tree =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  sized @@ fix (fun self n ->
      if n <= 0 then map (fun t -> Tree.leaf t "x") tag
      else
        let* name = tag in
        let* kids = list_size (int_bound 4) (self (n / 2)) in
        return (Tree.elt name kids))

let prop_bp_matches_document =
  QCheck2.Test.make ~name:"BP navigation = Document navigation" ~count:150 gen_tree (fun tree ->
      let doc = Document.of_tree tree in
      let bp = Balanced_parens.of_tree tree in
      let n = Document.node_count doc in
      if Balanced_parens.node_count bp <> n then false
      else begin
        let ok = ref true in
        for id = 0 to n - 1 do
          let pos = Balanced_parens.node_of_rank bp id in
          if Balanced_parens.preorder_rank bp pos <> id then ok := false;
          if Balanced_parens.subtree_size bp pos <> Document.subtree_size doc id then ok := false;
          let bp_first =
            Option.map (Balanced_parens.preorder_rank bp) (Balanced_parens.first_child bp pos)
          in
          if bp_first <> Document.first_child doc id then ok := false;
          let bp_next =
            Option.map (Balanced_parens.preorder_rank bp) (Balanced_parens.next_sibling bp pos)
          in
          if bp_next <> Document.next_sibling doc id then ok := false;
          let bp_parent =
            Option.map (Balanced_parens.preorder_rank bp) (Balanced_parens.enclose bp pos)
          in
          if bp_parent <> Document.parent doc id then ok := false;
          if Balanced_parens.depth bp pos <> Document.level doc id then ok := false
        done;
        !ok
      end)

(* Naive bit-by-bit references for the broadword navigation kernel. *)

let naive_find_close bv pos =
  let n = Bitvector.length bv in
  let d = ref 1 and j = ref (pos + 1) and res = ref (-1) in
  while !res < 0 && !j < n do
    d := !d + (if Bitvector.get bv !j then 1 else -1);
    if !d = 0 then res := !j;
    incr j
  done;
  !res

let naive_find_open bv pos =
  let d = ref (-1) and j = ref (pos - 1) and res = ref (-1) in
  while !res < 0 && !j >= 0 do
    d := !d + (if Bitvector.get bv !j then 1 else -1);
    if !d = 0 then res := !j;
    decr j
  done;
  !res

let naive_enclose bv pos =
  (* nearest unmatched open to the left *)
  let c = ref 0 and j = ref (pos - 1) and res = ref (-1) in
  while !res < 0 && !j >= 0 do
    (if Bitvector.get bv !j then begin
       if !c = 0 then res := !j else decr c
     end
     else incr c);
    decr j
  done;
  if !res < 0 then None else Some !res

let check_bp_against_naive bp =
  let bv = Balanced_parens.bits bp in
  let dir = Balanced_parens.directory bp in
  let n = Bitvector.length bv in
  let ok = ref true in
  let ex = ref 0 and opens = ref 0 in
  for pos = 0 to n - 1 do
    if Balanced_parens.depth bp pos <> !ex then ok := false;
    if Excess_dir.excess dir pos <> !ex then ok := false;
    if Bitvector.get bv pos then begin
      if Balanced_parens.find_close bp pos <> naive_find_close bv pos then ok := false;
      if Balanced_parens.enclose bp pos <> naive_enclose bv pos then ok := false;
      if Excess_dir.select_open dir !opens <> pos then ok := false;
      incr opens;
      incr ex
    end
    else begin
      if Balanced_parens.find_open bp pos <> naive_find_open bv pos then ok := false;
      decr ex
    end
  done;
  !ok

let prop_bp_matches_naive =
  QCheck2.Test.make ~name:"BP navigation = naive bit scan" ~count:120 gen_tree (fun tree ->
      check_bp_against_naive (Balanced_parens.of_tree tree))

let test_bp_block_boundaries () =
  (* single node, plus spines and fans sized to straddle the 256-bit
     directory blocks, checked exhaustively against the naive scans *)
  check_bool "single node" true
    (check_bp_against_naive (Balanced_parens.of_bitvector (bits_of_string "10")));
  let spine depth =
    let b = Bitvector.builder () in
    Bitvector.push_many b true depth;
    Bitvector.push_many b false depth;
    Balanced_parens.of_bitvector (Bitvector.build b)
  in
  List.iter
    (fun d ->
      check_bool (Printf.sprintf "spine %d" d) true (check_bp_against_naive (spine d)))
    [ 127; 128; 129; 300 ];
  let fan kids =
    let b = Bitvector.builder () in
    Bitvector.push b true;
    for _ = 1 to kids do
      Bitvector.push b true;
      Bitvector.push b false
    done;
    Bitvector.push b false;
    Balanced_parens.of_bitvector (Bitvector.build b)
  in
  List.iter
    (fun k -> check_bool (Printf.sprintf "fan %d" k) true (check_bp_against_naive (fan k)))
    [ 127; 128; 300 ]

let prop_bp_splice_directory =
  (* splice reuses prefix directory blocks; the result must still agree
     with the naive scans everywhere *)
  QCheck2.Test.make ~name:"BP splice keeps directory consistent" ~count:80
    QCheck2.Gen.(pair gen_tree gen_tree)
    (fun (t1, t2) ->
      let bp = Balanced_parens.of_tree (Tree.elt "r" [ t1; Tree.leaf "keep" "k" ]) in
      let first = Option.get (Balanced_parens.first_child bp 0) in
      let close = Balanced_parens.find_close bp first in
      let frag = Balanced_parens.bits (Balanced_parens.of_tree t2) in
      let spliced =
        Balanced_parens.splice bp ~off:first ~removed:(close - first + 1) ~insert:frag
      in
      Balanced_parens.check_balanced spliced && check_bp_against_naive spliced)

(* ------------------------------------------------------------------ *)
(* Content_store                                                       *)
(* ------------------------------------------------------------------ *)

let test_content_store () =
  let b = Content_store.builder () in
  check_int "id0" 0 (Content_store.add b "hello");
  check_int "id1" 1 (Content_store.add b "");
  check_int "id2" 2 (Content_store.add b "world");
  let cs = Content_store.build b in
  check_int "count" 3 (Content_store.count cs);
  check_string "get0" "hello" (Content_store.get cs 0);
  check_string "get1" "" (Content_store.get cs 1);
  check_string "get2" "world" (Content_store.get cs 2);
  let spliced = Content_store.splice cs 1 1 [ "X"; "Y" ] in
  check_int "spliced count" 4 (Content_store.count spliced);
  check_string "spliced 1" "X" (Content_store.get spliced 1);
  check_string "spliced 3" "world" (Content_store.get spliced 3)

(* ------------------------------------------------------------------ *)
(* Pager                                                               *)
(* ------------------------------------------------------------------ *)

let test_pager_counting () =
  let pager = Pager.create ~page_size:100 ~pool_pages:2 () in
  Pager.read pager ~region:0 ~off:0 ~len:150;
  (* pages 0,1 *)
  let s = Pager.stats pager in
  check_int "logical" 2 s.Pager.logical_reads;
  check_int "misses" 2 s.Pager.physical_reads;
  Pager.read pager ~region:0 ~off:50 ~len:10;
  (* page 0 again: hit *)
  check_int "hit" 1 (Pager.stats pager).Pager.hits;
  (* Different region does not alias. *)
  Pager.read pager ~region:1 ~off:0 ~len:1;
  check_int "region miss" 3 (Pager.stats pager).Pager.physical_reads;
  (* pool is full (2 pages): third insert evicted someone; writing dirty then
     evicting counts a physical write. *)
  Pager.write pager ~region:2 ~off:0 ~len:1;
  Pager.read pager ~region:0 ~off:0 ~len:1;
  Pager.read pager ~region:1 ~off:0 ~len:1;
  Pager.flush pager;
  let s = Pager.stats pager in
  check_bool "some write happened" true (s.Pager.physical_writes >= 1);
  Pager.reset pager;
  let s = Pager.stats pager in
  check_int "reset" 0 s.Pager.logical_reads

(* ------------------------------------------------------------------ *)
(* Succinct_store                                                      *)
(* ------------------------------------------------------------------ *)

let sample_source =
  {|<bib><book year="1994"><title>TCP</title><author>S</author></book><book year="2000"><title>DB</title></book></bib>|}

let test_store_roundtrip () =
  let tree = Xml_parser.parse_string sample_source in
  let store = Succinct_store.of_tree tree in
  check_int "node count" 11 (Succinct_store.node_count store);
  check_bool "roundtrip" true (Tree.equal tree (Succinct_store.to_tree store))

let test_store_navigation () =
  let store = Succinct_store.of_tree (Xml_parser.parse_string sample_source) in
  let root = Succinct_store.root store in
  check_string "root tag" "bib" (Succinct_store.tag_name store root);
  let book1 =
    match Succinct_store.first_child store root with Some c -> c | None -> Alcotest.fail "child"
  in
  check_string "book tag" "book" (Succinct_store.tag_name store book1);
  let attr =
    match Succinct_store.first_child store book1 with Some c -> c | None -> Alcotest.fail "attr"
  in
  check_string "attr label" "@year" (Succinct_store.tag_name store attr);
  check_bool "attr kind" true (Succinct_store.kind_of store attr = Succinct_store.Attribute);
  check_string "attr value" "1994" (Succinct_store.content store attr);
  check_string "book1 text" "TCPS" (Succinct_store.text_content store book1);
  check_int "book1 size" 6 (Succinct_store.subtree_size store book1);
  (* ranks align with Document ids *)
  let doc = Document.of_string sample_source in
  let rank = Succinct_store.preorder_rank store book1 in
  check_string "same name via doc" (Document.name doc rank) "book"

let test_store_replace_subtree () =
  let store = Succinct_store.of_tree (Xml_parser.parse_string sample_source) in
  let root = Succinct_store.root store in
  let book1 = Option.get (Succinct_store.first_child store root) in
  let replacement = Tree.elt "book" [ Tree.leaf "title" "NEW" ] in
  let updated = Succinct_store.replace_subtree store book1 replacement in
  let expected =
    Xml_parser.parse_string
      {|<bib><book><title>NEW</title></book><book year="2000"><title>DB</title></book></bib>|}
  in
  check_bool "replace" true (Tree.equal expected (Succinct_store.to_tree updated));
  (* original untouched *)
  check_int "original intact" 11 (Succinct_store.node_count store)

let test_store_delete_insert () =
  let store = Succinct_store.of_tree (Xml_parser.parse_string "<r><a>1</a><b>2</b></r>") in
  let root = Succinct_store.root store in
  let a = Option.get (Succinct_store.first_child store root) in
  let deleted = Succinct_store.delete_subtree store a in
  check_bool "deleted" true
    (Tree.equal (Xml_parser.parse_string "<r><b>2</b></r>") (Succinct_store.to_tree deleted));
  let b = Option.get (Succinct_store.first_child deleted (Succinct_store.root deleted)) in
  let inserted = Succinct_store.insert_before deleted b (Tree.leaf "c" "3") in
  check_bool "inserted" true
    (Tree.equal (Xml_parser.parse_string "<r><c>3</c><b>2</b></r>")
       (Succinct_store.to_tree inserted));
  check_bool "delete root rejected" true
    (match Succinct_store.delete_subtree store root with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_store_footprint () =
  let tree = Xml_parser.parse_string sample_source in
  let store = Succinct_store.of_tree tree in
  let f = Succinct_store.footprint store in
  check_bool "structure nonzero" true (f.Succinct_store.structure_bytes > 0);
  check_bool "content holds text" true (f.Succinct_store.content_bytes > 0);
  check_bool "total" true (Succinct_store.total_bytes f > 0)

let test_store_pager_accounting () =
  let pager = Pager.create ~page_size:64 () in
  let tree = Xml_parser.parse_string sample_source in
  let store = Succinct_store.of_tree ~pager tree in
  Succinct_store.iter_nodes store (fun pos ->
      ignore (Succinct_store.tag_name store pos, Succinct_store.content store pos));
  let s = Pager.stats pager in
  check_bool "reads recorded" true (s.Pager.logical_reads > 0)

let prop_store_roundtrip =
  QCheck2.Test.make ~name:"succinct store roundtrip on random trees" ~count:150 gen_tree
    (fun tree ->
      let store = Succinct_store.of_tree tree in
      Tree.equal tree (Succinct_store.to_tree store))

let gen_tree_with_attrs =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c" ] in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof [ map Tree.text (oneofl [ "x"; "y&z" ]); map (fun t -> Tree.elt t []) tag ]
      else
        let* name = tag in
        let* has_attr = bool in
        let attrs = if has_attr then [ ("id", "v1") ] else [] in
        let* kids = list_size (int_bound 3) (self (n / 2)) in
        return (Tree.elt ~attrs name kids))

let prop_store_matches_document_ranks =
  QCheck2.Test.make ~name:"store pre-order ranks = Document ids" ~count:100 gen_tree_with_attrs
    (fun tree ->
      let tree = Tree.elt "root" [ tree ] in
      let doc = Document.of_tree tree in
      let store = Succinct_store.of_tree tree in
      let n = Document.node_count doc in
      if Succinct_store.node_count store <> n then false
      else begin
        let ok = ref true in
        for id = 0 to n - 1 do
          let pos = Succinct_store.node_of_rank store id in
          let doc_label =
            match Document.kind doc id with
            | Document.Attribute -> "@" ^ Document.name doc id
            | Document.Pi -> "?" ^ Document.name doc id
            | Document.Element | Document.Text | Document.Comment -> Document.name doc id
          in
          if not (String.equal (Succinct_store.tag_name store pos) doc_label) then ok := false;
          if Succinct_store.subtree_size store pos <> Document.subtree_size doc id then
            ok := false
        done;
        !ok
      end)

let prop_store_splice_equals_tree_edit =
  (* Replacing the first child of the root must equal rebuilding from the
     edited tree. *)
  QCheck2.Test.make ~name:"splice = rebuild" ~count:100
    QCheck2.Gen.(pair gen_tree gen_tree)
    (fun (t1, t2) ->
      let tree = Tree.elt "root" [ t1; Tree.leaf "keep" "k" ] in
      let store = Succinct_store.of_tree tree in
      let first = Option.get (Succinct_store.first_child store (Succinct_store.root store)) in
      let updated = Succinct_store.replace_subtree store first t2 in
      let expected = Tree.elt "root" [ t2; Tree.leaf "keep" "k" ] in
      Tree.equal expected (Succinct_store.to_tree updated))

(* ------------------------------------------------------------------ *)
(* Store_io                                                            *)
(* ------------------------------------------------------------------ *)

let temp_store_path = Filename.temp_file "xqp_test" ".xqdb"

let test_store_io_roundtrip () =
  let tree = Xml_parser.parse_string sample_source in
  let store = Succinct_store.of_tree tree in
  Store_io.save store temp_store_path;
  let loaded = Store_io.load temp_store_path in
  check_bool "tree preserved" true (Tree.equal tree (Succinct_store.to_tree loaded));
  check_int "node count" (Succinct_store.node_count store) (Succinct_store.node_count loaded);
  (* navigation works on the loaded store *)
  let root = Succinct_store.root loaded in
  check_string "root tag" "bib" (Succinct_store.tag_name loaded root);
  (* a pager can be attached at load time *)
  let pager = Pager.create () in
  let with_pager = Store_io.load ~pager temp_store_path in
  ignore (Succinct_store.text_content with_pager (Succinct_store.root with_pager));
  check_bool "pager wired" true ((Pager.stats pager).Pager.logical_reads > 0)

let test_store_io_errors () =
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let expect_failure label content =
    write temp_store_path content;
    match Store_io.load temp_store_path with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "expected failure for %s" label
  in
  expect_failure "empty file" "";
  expect_failure "bad magic" "NOTASTORExxxxxxxxxxxxxxxx";
  expect_failure "bad version" (Store_io.magic ^ String.make 8 '\xff');
  (* truncated after the header *)
  expect_failure "truncated" (Store_io.magic ^ "\x01\x00\x00\x00\x00\x00\x00\x00\x10")

let prop_store_io_roundtrip =
  QCheck2.Test.make ~name:"store save/load roundtrip" ~count:50 gen_tree_with_attrs (fun tree ->
      let tree = Tree.elt "root" [ tree ] in
      let store = Succinct_store.of_tree tree in
      Store_io.save store temp_store_path;
      let loaded = Store_io.load temp_store_path in
      Tree.equal tree (Succinct_store.to_tree loaded))

let tamper_file path off xor =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor xor));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let test_store_io_directory_sections () =
  let tree = Xml_parser.parse_string sample_source in
  let store = Succinct_store.of_tree tree in
  Store_io.save store temp_store_path;
  let pool = Buffer_pool.open_file temp_store_path in
  let layout = Store_io.read_layout pool temp_store_path in
  check_bool "has dir blocks" true (layout.Store_io.dir_block_count > 0);
  (* the serialized directory decodes to exactly what a fresh scan builds *)
  let blk =
    Store_io.read_dir_blocks
      ~get_byte:(Buffer_pool.get_byte pool)
      ~dir_off:layout.Store_io.dir_off
      ~dir_block_count:layout.Store_io.dir_block_count
  in
  let fresh =
    Excess_dir.create ~len:layout.Store_io.structure_bit_len ~byte:(fun i ->
        Buffer_pool.get_byte pool (layout.Store_io.structure_off + i))
  in
  let fb = Excess_dir.blocks fresh in
  check_bool "delta" true (blk.Excess_dir.delta = fb.Excess_dir.delta);
  check_bool "fmin" true (blk.Excess_dir.fmin = fb.Excess_dir.fmin);
  check_bool "fmax" true (blk.Excess_dir.fmax = fb.Excess_dir.fmax);
  check_bool "bmin" true (blk.Excess_dir.bmin = fb.Excess_dir.bmin);
  check_bool "bmax" true (blk.Excess_dir.bmax = fb.Excess_dir.bmax);
  Buffer_pool.close pool;
  (* flipping bits inside either trailing section must be caught by a
     verified load (the fsck / XQP_VERIFY_PLANS path; plain opens trust
     the sections) *)
  tamper_file temp_store_path layout.Store_io.dir_off 0x3f;
  check_bool "tampered excess directory rejected" true
    (match Store_io.load ~verify:true temp_store_path with
    | exception Failure _ -> true
    | _ -> false);
  Store_io.save store temp_store_path;
  tamper_file temp_store_path layout.Store_io.flag_samples_off 0x3f;
  check_bool "tampered flag samples rejected" true
    (match Store_io.load ~verify:true temp_store_path with
    | exception Failure _ -> true
    | _ -> false)

let prop_store_io_directory_roundtrip =
  QCheck2.Test.make ~name:"serialized excess directory = fresh scan" ~count:50
    gen_tree_with_attrs (fun tree ->
      let tree = Tree.elt "root" [ tree ] in
      Store_io.save (Succinct_store.of_tree tree) temp_store_path;
      let pool = Buffer_pool.open_file temp_store_path in
      let layout = Store_io.read_layout pool temp_store_path in
      let blk =
        Store_io.read_dir_blocks
          ~get_byte:(Buffer_pool.get_byte pool)
          ~dir_off:layout.Store_io.dir_off
          ~dir_block_count:layout.Store_io.dir_block_count
      in
      let fresh =
        Excess_dir.create ~len:layout.Store_io.structure_bit_len ~byte:(fun i ->
            Buffer_pool.get_byte pool (layout.Store_io.structure_off + i))
      in
      let fb = Excess_dir.blocks fresh in
      Buffer_pool.close pool;
      blk.Excess_dir.delta = fb.Excess_dir.delta
      && blk.Excess_dir.fmin = fb.Excess_dir.fmin
      && blk.Excess_dir.fmax = fb.Excess_dir.fmax
      && blk.Excess_dir.bmin = fb.Excess_dir.bmin
      && blk.Excess_dir.bmax = fb.Excess_dir.bmax)

let test_store_io_path_summary_section () =
  let tree = Xml_parser.parse_string sample_source in
  let store = Succinct_store.of_tree tree in
  Store_io.save store temp_store_path;
  let pool = Buffer_pool.open_file temp_store_path in
  let layout = Store_io.read_layout pool temp_store_path in
  Buffer_pool.close pool;
  check_bool "has summary rows" true (layout.Store_io.psum_count > 0);
  let summary = Store_io.summary_of_store (Store_io.load temp_store_path) in
  check_int "row count = distinct paths" layout.Store_io.psum_count (Path_summary.length summary);
  (* a flipped parent link breaks the pre-order invariant *)
  tamper_file temp_store_path layout.Store_io.psum_off 0x40;
  check_bool "tampered summary parent rejected" true
    (match Store_io.load ~verify:true temp_store_path with
    | exception Failure _ -> true
    | _ -> false);
  Store_io.save store temp_store_path;
  (* a flipped count only disagrees with the recomputed summary — the
     O(doc) cross-check that runs under verify *)
  tamper_file temp_store_path (layout.Store_io.psum_off + 16) 0x02;
  check_bool "tampered summary count rejected" true
    (match Store_io.load ~verify:true temp_store_path with
    | exception Failure _ -> true
    | _ -> false);
  check_bool "tampered count trusted by plain open" true
    (match Store_io.load temp_store_path with exception Failure _ -> false | _ -> true)

let prop_path_summary_counts =
  QCheck2.Test.make ~name:"path summary counts = naive scan" ~count:100 gen_tree_with_attrs
    (fun tree ->
      let tree = Tree.elt "root" [ tree ] in
      let doc = Document.of_tree tree in
      let summary = Path_summary.of_document doc in
      let label id =
        match Document.kind doc id with
        | Document.Element -> Some (Document.name doc id)
        | Document.Attribute -> Some ("@" ^ Document.name doc id)
        | Document.Text | Document.Comment | Document.Pi -> None
      in
      let rec path_of id =
        match label id with
        | None -> None
        | Some l -> (
          match Document.parent doc id with
          | None -> Some [ l ]
          | Some p -> (
            match path_of p with Some ps -> Some (ps @ [ l ]) | None -> None))
      in
      let naive = Hashtbl.create 32 in
      for id = 0 to Document.node_count doc - 1 do
        match path_of id with
        | Some p ->
          Hashtbl.replace naive p (1 + Option.value ~default:0 (Hashtbl.find_opt naive p))
        | None -> ()
      done;
      let n = Path_summary.length summary in
      let ok = ref (Hashtbl.length naive = n) in
      for i = 0 to n - 1 do
        match Hashtbl.find_opt naive (Path_summary.node_path summary i) with
        | Some c when c = Path_summary.count summary i -> ()
        | _ -> ok := false
      done;
      (* annotate partitions document nodes by path; per-id tallies must
         reproduce the stored counts *)
      let pids = Path_summary.annotate summary doc in
      let tally = Array.make (max 1 n) 0 in
      Array.iter (fun pid -> if pid >= 0 then tally.(pid) <- tally.(pid) + 1) pids;
      for i = 0 to n - 1 do
        if tally.(i) <> Path_summary.count summary i then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Buffer_pool / Paged_store                                           *)
(* ------------------------------------------------------------------ *)

let test_buffer_pool_behavior () =
  (* a small file with known bytes *)
  let path = Filename.temp_file "xqp_pool" ".bin" in
  let oc = open_out_bin path in
  for i = 0 to 999 do
    output_char oc (Char.chr (i mod 256))
  done;
  close_out oc;
  let pool = Buffer_pool.open_file ~page_size:64 ~capacity:4 path in
  check_int "file size" 1000 (Buffer_pool.file_size pool);
  check_int "byte 0" 0 (Buffer_pool.get_byte pool 0);
  check_int "byte 300" (300 mod 256) (Buffer_pool.get_byte pool 300);
  let s = Buffer_pool.read_string pool ~off:60 ~len:10 in
  check_int "spanning read len" 10 (String.length s);
  check_int "spanning content" 65 (Char.code s.[5]);
  let st = Buffer_pool.stats pool in
  check_bool "faults happened" true (st.Buffer_pool.page_faults >= 3);
  (* re-reading is a hit *)
  ignore (Buffer_pool.get_byte pool 0);
  let st2 = Buffer_pool.stats pool in
  check_bool "hit recorded" true (st2.Buffer_pool.hits > st.Buffer_pool.hits);
  (* capacity 4: touching many pages evicts *)
  for page = 0 to 15 do
    ignore (Buffer_pool.get_byte pool (page * 64))
  done;
  check_bool "evictions" true ((Buffer_pool.stats pool).Buffer_pool.evictions > 0);
  Buffer_pool.drop_cache pool;
  Buffer_pool.reset_stats pool;
  ignore (Buffer_pool.get_byte pool 0);
  check_int "cold fault" 1 (Buffer_pool.stats pool).Buffer_pool.page_faults;
  check_bool "oob" true
    (match Buffer_pool.get_byte pool 1000 with exception Invalid_argument _ -> true | _ -> false);
  Buffer_pool.close pool

let test_paged_store_navigation () =
  let tree = Xml_parser.parse_string sample_source in
  let store = Succinct_store.of_tree tree in
  Store_io.save store temp_store_path;
  let paged = Paged_store.open_store ~page_size:128 ~pool_pages:8 temp_store_path in
  check_int "node count" (Succinct_store.node_count store) (Paged_store.node_count paged);
  check_bool "to_tree equal" true (Tree.equal tree (Paged_store.to_tree paged));
  (* navigation details *)
  let root = Paged_store.root_cursor paged in
  check_string "root tag" "bib" (Paged_store.tag_name paged (Paged_store.tag_at paged root));
  let book1 = Option.get (Paged_store.first_child_cursor paged root) in
  check_int "book rank" 1 book1.Paged_store.rank;
  check_int "book size" 6 (Paged_store.subtree_size paged book1);
  check_string "book text" "TCPS" (Paged_store.text_content_at paged book1);
  (* cursor_of_rank agrees with navigation everywhere *)
  for rank = 0 to Paged_store.node_count paged - 1 do
    let c = Paged_store.cursor_of_rank paged rank in
    if c.Paged_store.rank <> rank then Alcotest.failf "cursor rank %d" rank
  done;
  check_bool "symbols resolve" true (Paged_store.find_symbol paged "book" <> None);
  check_bool "io happened" true
    ((Buffer_pool.stats (Paged_store.pool paged)).Buffer_pool.page_faults > 0);
  Paged_store.close paged

let prop_paged_navigation_matches =
  (* the paged store navigates off the serialized directory only; it must
     agree with the in-memory store's parenthesis navigation everywhere *)
  QCheck2.Test.make ~name:"paged find_close/parent = in-memory" ~count:30 gen_tree_with_attrs
    (fun tree ->
      let tree = Tree.elt "root" [ tree ] in
      let store = Succinct_store.of_tree tree in
      Store_io.save store temp_store_path;
      let paged = Paged_store.open_store ~page_size:64 ~pool_pages:8 temp_store_path in
      let bp = Succinct_store.structure store in
      let n = Succinct_store.node_count store in
      let ok = ref true in
      for rank = 0 to n - 1 do
        let c = Paged_store.cursor_of_rank paged rank in
        let pos = Succinct_store.node_of_rank store rank in
        if c.Paged_store.pos <> pos then ok := false;
        if Paged_store.find_close paged pos <> Balanced_parens.find_close bp pos then
          ok := false;
        let paged_parent =
          Option.map (fun (p : Paged_store.cursor) -> p.Paged_store.rank)
            (Paged_store.parent_cursor paged c)
        in
        let mem_parent =
          Option.map (Balanced_parens.preorder_rank bp) (Balanced_parens.enclose bp pos)
        in
        if paged_parent <> mem_parent then ok := false
      done;
      Paged_store.close paged;
      !ok)

let prop_paged_store_roundtrip =
  QCheck2.Test.make ~name:"paged store = in-memory store" ~count:40 gen_tree_with_attrs
    (fun tree ->
      let tree = Tree.elt "root" [ tree ] in
      Store_io.save (Succinct_store.of_tree tree) temp_store_path;
      let paged = Paged_store.open_store ~page_size:64 ~pool_pages:4 temp_store_path in
      let ok = Tree.equal tree (Paged_store.to_tree paged) in
      Paged_store.close paged;
      ok)

(* ------------------------------------------------------------------ *)
(* Btree                                                               *)
(* ------------------------------------------------------------------ *)

let test_btree_basic () =
  let t = Btree.create ~fanout:4 () in
  check_int "empty" 0 (Btree.cardinal t);
  Btree.insert t "b" 1;
  Btree.insert t "a" 2;
  Btree.insert t "c" 3;
  Btree.insert t "a" 4;
  check_int "cardinal" 3 (Btree.cardinal t);
  check_bool "mem" true (Btree.mem t "a");
  check_bool "not mem" false (Btree.mem t "zz");
  Alcotest.(check (list int)) "postings order" [ 2; 4 ] (Btree.find t "a");
  Alcotest.(check (list int)) "absent" [] (Btree.find t "q")

let test_btree_splits_and_range () =
  let t = Btree.create ~fanout:4 () in
  let keys = List.init 200 (fun i -> Printf.sprintf "k%03d" i) in
  List.iteri (fun i k -> Btree.insert t k i) keys;
  check_int "cardinal" 200 (Btree.cardinal t);
  check_bool "height grew" true (Btree.height t > 1);
  check_bool "invariants" true (Btree.check_invariants t);
  List.iteri
    (fun i k -> Alcotest.(check (list int)) k [ i ] (Btree.find t k))
    keys;
  let r = Btree.range t ~lo:"k010" ~hi:"k019" () in
  check_int "range size" 10 (List.length r);
  check_string "range first" "k010" (fst (List.hd r));
  let all = Btree.range t () in
  check_int "full range" 200 (List.length all);
  let above = Btree.range t ~lo:"k195" () in
  check_int "open hi" 5 (List.length above);
  let below = Btree.range t ~hi:"k004" () in
  check_int "open lo" 5 (List.length below)

let prop_btree_model =
  (* Compare against a sorted association list model. *)
  let gen =
    QCheck2.Gen.(list_size (int_range 0 300) (pair (string_size ~gen:(char_range 'a' 'f') (int_range 1 3)) small_nat))
  in
  QCheck2.Test.make ~name:"btree = assoc model" ~count:100 gen (fun pairs ->
      let t = Btree.create ~fanout:5 () in
      List.iter (fun (k, v) -> Btree.insert t k v) pairs;
      if not (Btree.check_invariants t) then false
      else begin
        let model = Hashtbl.create 16 in
        List.iter
          (fun (k, v) ->
            Hashtbl.replace model k (match Hashtbl.find_opt model k with
              | Some vs -> vs @ [ v ]
              | None -> [ v ]))
          pairs;
        Hashtbl.fold (fun k vs acc -> acc && Btree.find t k = vs) model true
        && Btree.cardinal t = Hashtbl.length model
      end)

let suite =
  [
    ( "storage.bitvector",
      [
        Alcotest.test_case "basic" `Quick test_bitvector_basic;
        Alcotest.test_case "empty and bounds" `Quick test_bitvector_empty_and_bounds;
        Alcotest.test_case "large" `Quick test_bitvector_large;
        Alcotest.test_case "push_many/concat/sub" `Quick test_bitvector_push_many_concat_sub;
        Alcotest.test_case "word-wise equal" `Quick test_bitvector_equal_words;
        Alcotest.test_case "push_many bulk fill" `Quick test_bitvector_push_many_bulk;
        qcheck prop_push_many_reference;
        qcheck prop_rank_select;
        qcheck prop_rank_select_boundaries;
        qcheck prop_slice_ops;
      ] );
    ( "storage.balanced_parens",
      [
        Alcotest.test_case "navigation" `Quick test_bp_navigation;
        Alcotest.test_case "deep tree" `Quick test_bp_deep;
        Alcotest.test_case "wide tree" `Quick test_bp_wide;
        Alcotest.test_case "block boundaries" `Quick test_bp_block_boundaries;
        qcheck prop_bp_matches_document;
        qcheck prop_bp_matches_naive;
        qcheck prop_bp_splice_directory;
      ] );
    ("storage.content_store", [ Alcotest.test_case "basic" `Quick test_content_store ]);
    ("storage.pager", [ Alcotest.test_case "counting" `Quick test_pager_counting ]);
    ( "storage.succinct_store",
      [
        Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
        Alcotest.test_case "navigation" `Quick test_store_navigation;
        Alcotest.test_case "replace subtree" `Quick test_store_replace_subtree;
        Alcotest.test_case "delete/insert" `Quick test_store_delete_insert;
        Alcotest.test_case "footprint" `Quick test_store_footprint;
        Alcotest.test_case "pager accounting" `Quick test_store_pager_accounting;
        qcheck prop_store_roundtrip;
        qcheck prop_store_matches_document_ranks;
        qcheck prop_store_splice_equals_tree_edit;
      ] );
    ( "storage.store_io",
      [
        Alcotest.test_case "roundtrip" `Quick test_store_io_roundtrip;
        Alcotest.test_case "corrupt files" `Quick test_store_io_errors;
        Alcotest.test_case "directory sections + tamper" `Quick test_store_io_directory_sections;
        Alcotest.test_case "path summary section + tamper" `Quick
          test_store_io_path_summary_section;
        qcheck prop_store_io_roundtrip;
        qcheck prop_store_io_directory_roundtrip;
        qcheck prop_path_summary_counts;
      ] );
    ( "storage.paged",
      [
        Alcotest.test_case "buffer pool" `Quick test_buffer_pool_behavior;
        Alcotest.test_case "paged navigation" `Quick test_paged_store_navigation;
        qcheck prop_paged_store_roundtrip;
        qcheck prop_paged_navigation_matches;
      ] );
    ( "storage.btree",
      [
        Alcotest.test_case "basic" `Quick test_btree_basic;
        Alcotest.test_case "splits and range" `Quick test_btree_splits_and_range;
        qcheck prop_btree_model;
      ] );
  ]
