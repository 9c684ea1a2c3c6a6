module Io = Xqp_storage.Store_io
module Bitvector = Xqp_storage.Bitvector
module Excess_dir = Xqp_storage.Excess_dir
module Btree = Xqp_storage.Btree
module Ps = Xqp_storage.Path_summary
module D = Diagnostic

let read_i64_at s off =
  let v = ref 0 in
  for shift = 0 to 7 do
    v := !v lor (Char.code s.[off + shift] lsl (8 * shift))
  done;
  !v

let check_bytes s =
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let finish () = List.rev !diags in
  let len = String.length s in
  if len < Io.header_bytes then begin
    report
      (D.errorf ~path:[ "header" ] ~code:"layout/truncated"
         "file is %d bytes, smaller than the %d-byte header" len Io.header_bytes);
    finish ()
  end
  else if not (String.equal (String.sub s 0 8) Io.magic) then begin
    report (D.error ~path:[ "header" ] ~code:"layout/magic" "bad magic string");
    finish ()
  end
  else begin
    let version = read_i64_at s 8 in
    if version <> Io.version then begin
      report
        (D.errorf ~path:[ "header" ] ~code:"layout/version" "store version %d (expected %d)" version
           Io.version);
      finish ()
    end
    else begin
      let l = Io.layout_of_header ~read_i64:(read_i64_at s) in
      let header_ok = ref true in
      let header_err fmt = Format.kasprintf (fun m -> header_ok := false; report (D.error ~path:[ "header" ] ~code:"layout/header" m)) fmt in
      if l.Io.node_count < 0 || l.Io.symbol_count < 0 || l.Io.content_count < 0 then
        header_err "negative count field";
      if l.Io.tag_width <> 1 && l.Io.tag_width <> 2 then header_err "tag width %d (expected 1 or 2)" l.Io.tag_width;
      if !header_ok then begin
        if l.Io.symbol_count > 1 lsl (8 * l.Io.tag_width) then
          header_err "%d symbols exceed what %d-byte tags address" l.Io.symbol_count l.Io.tag_width;
        if l.Io.structure_bit_len <> 2 * l.Io.node_count then
          header_err "structure is %d bits for %d nodes (expected %d)" l.Io.structure_bit_len
            l.Io.node_count (2 * l.Io.node_count);
        if l.Io.flags_bit_len <> l.Io.node_count then
          header_err "has-content flags are %d bits for %d nodes" l.Io.flags_bit_len l.Io.node_count;
        if l.Io.structure_byte_len <> (l.Io.structure_bit_len + 7) / 8 then
          header_err "structure byte length %d does not pack %d bits" l.Io.structure_byte_len
            l.Io.structure_bit_len;
        if l.Io.flags_byte_len <> (l.Io.flags_bit_len + 7) / 8 then
          header_err "flag byte length %d does not pack %d bits" l.Io.flags_byte_len l.Io.flags_bit_len;
        let want_blocks = (l.Io.structure_bit_len + Excess_dir.block_bits - 1) / Excess_dir.block_bits in
        if l.Io.dir_block_count <> want_blocks then
          header_err "excess directory has %d blocks (expected %d)" l.Io.dir_block_count want_blocks;
        let want_samples = ((l.Io.flags_bit_len + Excess_dir.block_bits - 1) / Excess_dir.block_bits) + 1 in
        if l.Io.flag_sample_count <> want_samples then
          header_err "flag rank directory has %d samples (expected %d)" l.Io.flag_sample_count
            want_samples;
        if l.Io.psum_count < 0 || l.Io.psum_count > l.Io.node_count then
          header_err "path summary has %d nodes for a %d-node document" l.Io.psum_count
            l.Io.node_count
      end;
      if not !header_ok then finish ()
      else begin
        let expected_size = l.Io.psum_off + (Io.psum_row_bytes * l.Io.psum_count) in
        if expected_size <> len then
          report
            (D.errorf ~path:[ "layout" ] ~code:"layout/size"
               "sections sum to %d bytes but the file has %d (truncated or padded)" expected_size len);
        let have off sec_len = off >= 0 && sec_len >= 0 && off + sec_len <= len in
        (* --- structure: balanced-parentheses discipline ---------------- *)
        let structure =
          if not (have l.Io.structure_off l.Io.structure_byte_len) then begin
            report
              (D.error ~path:[ "structure" ] ~code:"layout/size"
                 "structure section lies outside the file");
            None
          end
          else
            Some
              (Bitvector.of_packed_string s ~off:l.Io.structure_off ~len:l.Io.structure_bit_len)
        in
        (match structure with
        | None -> ()
        | Some bits ->
          let m = Bitvector.length bits in
          if m > 0 && not (Bitvector.get bits 0) then
            report
              (D.error ~path:[ "structure" ] ~code:"structure/unbalanced"
                 "first parenthesis is a close");
          let excess = ref 0 and first_neg = ref (-1) and zero_before_end = ref (-1) in
          for i = 0 to m - 1 do
            excess := !excess + (if Bitvector.get bits i then 1 else -1);
            if !excess < 0 && !first_neg < 0 then first_neg := i;
            if !excess = 0 && i < m - 1 && !zero_before_end < 0 then zero_before_end := i
          done;
          if !first_neg >= 0 then
            report
              (D.errorf ~path:[ "structure" ] ~code:"structure/unbalanced"
                 "excess goes negative at bit %d" !first_neg);
          if !excess <> 0 then
            report
              (D.errorf ~path:[ "structure" ] ~code:"structure/unbalanced"
                 "string ends with excess %d (expected 0)" !excess);
          if !first_neg < 0 && !excess = 0 && !zero_before_end >= 0 then
            report
              (D.warningf ~path:[ "structure" ] ~code:"structure/forest"
                 "excess returns to 0 at bit %d: more than one root" !zero_before_end);
          if Bitvector.pop_count bits <> l.Io.node_count then
            report
              (D.errorf ~path:[ "structure" ] ~code:"structure/node-count"
                 "%d open parentheses for %d nodes" (Bitvector.pop_count bits) l.Io.node_count);
          (* --- serialized excess directory vs a fresh scan ------------- *)
          if have l.Io.dir_off (l.Io.dir_block_count * 10) then begin
            let stored =
              Io.read_dir_blocks
                ~get_byte:(fun off -> Char.code s.[off])
                ~dir_off:l.Io.dir_off ~dir_block_count:l.Io.dir_block_count
            in
            let fresh =
              Excess_dir.blocks
                (Excess_dir.create ~len:l.Io.structure_bit_len ~byte:(Bitvector.byte bits))
            in
            let bad = ref 0 and first = ref (-1) in
            for b = 0 to l.Io.dir_block_count - 1 do
              if
                stored.Excess_dir.delta.(b) <> fresh.Excess_dir.delta.(b)
                || stored.Excess_dir.fmin.(b) <> fresh.Excess_dir.fmin.(b)
                || stored.Excess_dir.fmax.(b) <> fresh.Excess_dir.fmax.(b)
                || stored.Excess_dir.bmin.(b) <> fresh.Excess_dir.bmin.(b)
                || stored.Excess_dir.bmax.(b) <> fresh.Excess_dir.bmax.(b)
              then begin
                incr bad;
                if !first < 0 then first := b
              end
            done;
            if !bad > 0 then
              report
                (D.errorf ~path:[ "excess directory" ] ~code:"directory/mismatch"
                   "%d of %d blocks disagree with a fresh scan (first: block %d)" !bad
                   l.Io.dir_block_count !first)
          end
          else
            report
              (D.error ~path:[ "excess directory" ] ~code:"layout/size"
                 "excess directory section lies outside the file"));
        (* --- tag sequence ---------------------------------------------- *)
        if have l.Io.tags_off (l.Io.node_count * l.Io.tag_width) then begin
          let bad = ref 0 and first = ref (-1) in
          for rank = 0 to l.Io.node_count - 1 do
            let off = l.Io.tags_off + (rank * l.Io.tag_width) in
            let tag =
              let lo = Char.code s.[off] in
              if l.Io.tag_width = 1 then lo else lo lor (Char.code s.[off + 1] lsl 8)
            in
            if tag >= l.Io.symbol_count then begin
              incr bad;
              if !first < 0 then first := rank
            end
          done;
          if !bad > 0 then
            report
              (D.errorf ~path:[ "tags" ] ~code:"tags/out-of-range"
                 "%d tag ids exceed the %d-entry symbol table (first: rank %d)" !bad
                 l.Io.symbol_count !first)
        end
        else report (D.error ~path:[ "tags" ] ~code:"layout/size" "tag section lies outside the file");
        (* --- has-content flags and their rank samples ------------------ *)
        let flags =
          if have l.Io.flags_off l.Io.flags_byte_len then
            Some
              (Bitvector.of_packed_string s ~off:l.Io.flags_off ~len:l.Io.flags_bit_len)
          else begin
            report
              (D.error ~path:[ "flags" ] ~code:"layout/size" "flag section lies outside the file");
            None
          end
        in
        (match flags with
        | None -> ()
        | Some fl ->
          if Bitvector.pop_count fl <> l.Io.content_count then
            report
              (D.errorf ~path:[ "flags" ] ~code:"flags/content-count"
                 "%d content-bearing nodes flagged but %d contents stored" (Bitvector.pop_count fl)
                 l.Io.content_count);
          if have l.Io.flag_samples_off (8 * l.Io.flag_sample_count) then begin
            let bad = ref 0 and first = ref (-1) in
            for k = 0 to l.Io.flag_sample_count - 1 do
              let boundary = min l.Io.flags_bit_len (k * Excess_dir.block_bits) in
              if read_i64_at s (l.Io.flag_samples_off + (8 * k)) <> Bitvector.rank1 fl boundary
              then begin
                incr bad;
                if !first < 0 then first := k
              end
            done;
            if !bad > 0 then
              report
                (D.errorf ~path:[ "flag rank samples" ] ~code:"flags/rank-sample"
                   "%d of %d serialized rank samples disagree with the flag bits (first: sample %d)"
                   !bad l.Io.flag_sample_count !first)
          end
          else
            report
              (D.error ~path:[ "flag rank samples" ] ~code:"layout/size"
                 "flag rank sample section lies outside the file"));
        (* --- string sections ------------------------------------------- *)
        let offsets_ok ~what ~code ~offsets_off ~blob_off ~count ~blob_len =
          if
            (not (have offsets_off (8 * (count + 1))))
            || not (have blob_off blob_len)
          then begin
            report (D.errorf ~path:[ what ] ~code:"layout/size" "%s section lies outside the file" what);
            false
          end
          else begin
            let ok = ref true in
            let prev = ref 0 in
            if read_i64_at s offsets_off <> 0 then begin
              ok := false;
              report (D.errorf ~path:[ what ] ~code "first offset is not 0")
            end;
            for i = 0 to count do
              let v = read_i64_at s (offsets_off + (8 * i)) in
              if v < !prev || v > blob_len then
                if !ok then begin
                  ok := false;
                  report
                    (D.errorf ~path:[ what ] ~code "offset %d is %d (previous %d, blob %d bytes)" i v
                       !prev blob_len)
                end;
              prev := v
            done;
            if !ok && read_i64_at s (offsets_off + (8 * count)) <> blob_len then begin
              ok := false;
              report
                (D.errorf ~path:[ what ] ~code "final offset %d does not close the %d-byte blob"
                   (read_i64_at s (offsets_off + (8 * count)))
                   blob_len)
            end;
            !ok
          end
        in
        let symbol_blob_len = l.Io.content_offsets_off - l.Io.symbol_blob_off in
        let content_blob_len = l.Io.dir_off - l.Io.content_blob_off in
        let symbols_ok =
          offsets_ok ~what:"symbols" ~code:"symbols/offsets" ~offsets_off:l.Io.symbol_offsets_off
            ~blob_off:l.Io.symbol_blob_off ~count:l.Io.symbol_count ~blob_len:symbol_blob_len
        in
        let contents_ok =
          offsets_ok ~what:"contents" ~code:"contents/offsets" ~offsets_off:l.Io.content_offsets_off
            ~blob_off:l.Io.content_blob_off ~count:l.Io.content_count ~blob_len:content_blob_len
        in
        (* --- content-store samples ------------------------------------- *)
        (match flags with
        | Some fl when contents_ok && l.Io.content_count > 0 ->
          let samples = min 64 l.Io.content_count in
          let bad = ref 0 and first = ref (-1) in
          for k = 0 to samples - 1 do
            let c = k * (l.Io.content_count - 1) / max 1 (samples - 1) in
            let slice_ok =
              let start = read_i64_at s (l.Io.content_offsets_off + (8 * c)) in
              let stop = read_i64_at s (l.Io.content_offsets_off + (8 * (c + 1))) in
              start <= stop && stop <= content_blob_len
            in
            let node_ok =
              match Bitvector.select1 fl c with
              | rank -> rank >= 0 && rank < l.Io.node_count
              | exception Not_found -> false
            in
            if not (slice_ok && node_ok) then begin
              incr bad;
              if !first < 0 then first := c
            end
          done;
          if !bad > 0 then
            report
              (D.errorf ~path:[ "contents" ] ~code:"contents/sample"
                 "%d of %d sampled content ids are unaddressable (first: id %d)" !bad samples !first)
        | _ -> ());
        (* --- content B+-tree ------------------------------------------- *)
        (if symbols_ok && contents_ok then begin
           let string_at ~offsets_off ~blob_off i =
             let start = read_i64_at s (offsets_off + (8 * i)) in
             let stop = read_i64_at s (offsets_off + (8 * (i + 1))) in
             String.sub s (blob_off + start) (stop - start)
           in
           let postings =
             Seq.init l.Io.content_count (fun c ->
                 (string_at ~offsets_off:l.Io.content_offsets_off ~blob_off:l.Io.content_blob_off c, c))
           in
           match Btree.of_seq postings with
           | tree ->
             if not (Btree.check_invariants tree) then
               report
                 (D.error ~path:[ "content index" ] ~code:"index/btree"
                    "rebuilt content B+-tree violates key ordering / occupancy / leaf chaining")
           | exception e ->
             report
               (D.errorf ~path:[ "content index" ] ~code:"index/btree"
                  "content B+-tree rebuild failed: %s" (Printexc.to_string e))
         end);
        (* --- path summary ---------------------------------------------- *)
        (if not (have l.Io.psum_off (Io.psum_row_bytes * l.Io.psum_count)) then
           report
             (D.error ~path:[ "path summary" ] ~code:"layout/size"
                "path summary section lies outside the file")
         else begin
           let np = l.Io.psum_count in
           let rows =
             Array.init np (fun i ->
                 let off = l.Io.psum_off + (Io.psum_row_bytes * i) in
                 {
                   Ps.r_parent = read_i64_at s off;
                   r_label = read_i64_at s (off + 8);
                   r_count = read_i64_at s (off + 16);
                   r_flags = read_i64_at s (off + 24);
                 })
           in
           (* One code per row invariant, reporting the first offender. *)
           let rows_ok = ref true in
           let first_bad p =
             let rec go i = if i >= np then None else if p i rows.(i) then Some i else go (i + 1) in
             go 0
           in
           let row_err code fmt =
             Format.kasprintf
               (fun m ->
                 rows_ok := false;
                 report (D.error ~path:[ "path summary" ] ~code m))
               fmt
           in
           (match first_bad (fun i r -> r.Ps.r_parent < 0 || r.Ps.r_parent > i) with
           | Some i ->
             row_err "summary/parent-order" "node %d has parent link %d (parents must precede)" i
               rows.(i).Ps.r_parent
           | None -> ());
           (match first_bad (fun _ r -> r.Ps.r_label < 0 || r.Ps.r_label >= l.Io.symbol_count) with
           | Some i ->
             row_err "summary/tag-range" "node %d labels symbol %d of a %d-entry table" i
               rows.(i).Ps.r_label l.Io.symbol_count
           | None -> ());
           (match first_bad (fun _ r -> r.Ps.r_count < 1) with
           | Some i -> row_err "summary/count" "node %d has non-positive count %d" i rows.(i).Ps.r_count
           | None -> ());
           (match first_bad (fun _ r -> r.Ps.r_flags land lnot 1 <> 0) with
           | Some i -> row_err "summary/flags" "node %d carries unknown flag bits %#x" i rows.(i).Ps.r_flags
           | None -> ());
           if !rows_ok && symbols_ok then begin
             let symbol_name i =
               let start = read_i64_at s (l.Io.symbol_offsets_off + (8 * i)) in
               let stop = read_i64_at s (l.Io.symbol_offsets_off + (8 * (i + 1))) in
               String.sub s (l.Io.symbol_blob_off + start) (stop - start)
             in
             (* canonical form: siblings strictly label-sorted *)
             let last = Hashtbl.create 16 in
             (match
                first_bad (fun _ r ->
                    let bad =
                      match Hashtbl.find_opt last r.Ps.r_parent with
                      | Some prev ->
                        String.compare (symbol_name prev) (symbol_name r.Ps.r_label) >= 0
                      | None -> false
                    in
                    Hashtbl.replace last r.Ps.r_parent r.Ps.r_label;
                    bad)
              with
             | Some i ->
               report
                 (D.errorf ~path:[ "path summary" ] ~code:"summary/sort-order"
                    "node %d breaks the label-sorted sibling order" i)
             | None ->
               (* counts and shape vs a summary rebuilt from the tag
                  sequence — the serialized synopsis must never drift from
                  the data it summarizes *)
               (match structure with
               | Some bits when have l.Io.tags_off (l.Io.node_count * l.Io.tag_width) -> (
                 let tag_at rank =
                   let off = l.Io.tags_off + (rank * l.Io.tag_width) in
                   let lo = Char.code s.[off] in
                   if l.Io.tag_width = 1 then lo else lo lor (Char.code s.[off + 1] lsl 8)
                 in
                 try
                   let b = Ps.Builder.create () in
                   let rank = ref 0 in
                   for i = 0 to Bitvector.length bits - 1 do
                     if Bitvector.get bits i then begin
                       let tag = tag_at !rank in
                       if tag < 0 || tag >= l.Io.symbol_count then raise Exit;
                       Ps.Builder.open_node b (symbol_name tag);
                       incr rank
                     end
                     else Ps.Builder.close_node b
                   done;
                   let fresh = Ps.Builder.finish b in
                   let ids = Hashtbl.create 16 in
                   for i = 0 to l.Io.symbol_count - 1 do
                     Hashtbl.replace ids (symbol_name i) i
                   done;
                   let fresh_rows = Ps.to_rows fresh ~label_id:(Hashtbl.find ids) in
                   if fresh_rows <> rows then
                     report
                       (D.errorf ~path:[ "path summary" ] ~code:"summary/count-mismatch"
                          "serialized summary (%d nodes) disagrees with one rebuilt from the tag \
                           sequence (%d nodes)"
                          np (Array.length fresh_rows))
                 with Exit | Not_found | Failure _ | Invalid_argument _ ->
                   (* structure/tag corruption reported by earlier passes *)
                   ())
               | _ -> ()))
           end
         end);
        finish ()
      end
    end
  end

(* --- corpus catalogs ----------------------------------------------------- *)

module Catalog = Xqp_storage.Catalog

(* Catalog fsck: parse the manifest, then check every shard container and
   every packed document image (each through [check_bytes], diagnostics
   prefixed with shard/doc), plus the summary algebra the planner trusts:
   each shard summary is the merge of its documents' packed summaries,
   the merged summary is the merge of the shard summaries, and the merged
   stats version dominates every shard's. *)
let check_catalog ~path contents =
  match Catalog.of_bytes ~path contents with
  | exception Failure m -> [ D.errorf ~path:[ "catalog" ] ~code:"corpus/catalog" "%s" m ]
  | cat ->
    let diags = ref [] in
    let report d = diags := d :: !diags in
    if Array.length cat.Catalog.shards = 0 then
      report (D.error ~path:[ "catalog" ] ~code:"corpus/shard-count" "catalog has no shards");
    Array.iter
      (fun (sh : Catalog.shard) ->
        if sh.Catalog.stats_version > cat.Catalog.merged_stats_version then
          report
            (D.errorf ~path:[ sh.Catalog.shard_path ] ~code:"corpus/stats-version"
               "shard stats version %d exceeds the merged version %d" sh.Catalog.stats_version
               cat.Catalog.merged_stats_version))
      cat.Catalog.shards;
    let shard_summaries =
      Array.to_list (Array.map (fun (s : Catalog.shard) -> s.Catalog.summary) cat.Catalog.shards)
    in
    if not (Ps.equal cat.Catalog.merged (Ps.merge shard_summaries)) then
      report
        (D.error ~path:[ "catalog" ] ~code:"corpus/merged-mismatch"
           "merged summary is not the merge of the shard summaries");
    Array.iteri
      (fun i (sh : Catalog.shard) ->
        let spath = Catalog.shard_file cat i in
        let label = sh.Catalog.shard_path in
        match In_channel.with_open_bin spath In_channel.input_all with
        | exception Sys_error m ->
          report (D.errorf ~path:[ label ] ~code:"corpus/shard-missing" "%s" m)
        | scontents -> (
          match Catalog.shard_doc_table ~path:spath scontents with
          | exception Failure m ->
            report (D.errorf ~path:[ label ] ~code:"corpus/shard-container" "%s" m)
          | table ->
            if Array.length table <> Array.length sh.Catalog.doc_names then
              report
                (D.errorf ~path:[ label ] ~code:"corpus/shard-count"
                   "container holds %d documents but the catalog lists %d" (Array.length table)
                   (Array.length sh.Catalog.doc_names))
            else begin
              let summaries = ref [] in
              Array.iteri
                (fun d (off, len) ->
                  let image = String.sub scontents off len in
                  let doc_label = Printf.sprintf "%s/doc%d(%s)" label d sh.Catalog.doc_names.(d) in
                  List.iter (fun dg -> report (D.with_path doc_label dg)) (check_bytes image);
                  match Io.packed_summary ~path:spath image with
                  | summary -> summaries := summary :: !summaries
                  | exception Failure m ->
                    report (D.errorf ~path:[ doc_label ] ~code:"corpus/doc-bounds" "%s" m))
                table;
              if
                List.length !summaries = Array.length table
                && not (Ps.equal sh.Catalog.summary (Ps.merge (List.rev !summaries)))
              then
                report
                  (D.error ~path:[ label ] ~code:"corpus/shard-summary"
                     "shard summary is not the merge of its documents' packed summaries")
            end))
      cat.Catalog.shards;
    List.rev !diags

let fsck path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s ->
    if
      Catalog.is_catalog_path path
      || (String.length s >= 8 && String.equal (String.sub s 0 8) Catalog.magic)
    then check_catalog ~path s
    else check_bytes s
  | exception Sys_error m -> [ D.errorf ~code:"io/unreadable" "%s" m ]
