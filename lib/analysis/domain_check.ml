(* Static domain-safety pass: find every piece of toplevel mutable state
   under a source tree and hold it against the declared annotation table.

   The scan is purely syntactic (compiler-libs Parsetree, no typing):
   conservative for the shapes that matter — [ref]/[Hashtbl.create]/
   record literals with [mutable] fields/[lazy] at structure level — plus
   two heuristics that catch constructed state: in-file constructor
   functions whose body syntactically builds mutable state, and calls
   whose final name component is [create]/[make]/[init] (so
   [let cache = Plan_cache.create ()] is a site even though the mutable
   record lives in another compilation unit). False positives are cheap:
   an incorrectly flagged immutable value gets a [Safe_immutable] row in
   the table, which doubles as documentation. *)

module D = Diagnostic

type annotation =
  | Safe_immutable
  | Guarded_by_mutex of string
  | Atomic
  | Domain_local
  | Unsafe

let annotation_name = function
  | Safe_immutable -> "Safe_immutable"
  | Guarded_by_mutex m -> Printf.sprintf "Guarded_by_mutex(%s)" m
  | Atomic -> "Atomic"
  | Domain_local -> "Domain_local"
  | Unsafe -> "Unsafe"

type kind =
  | Global_ref
  | Mutable_table
  | Mutable_array
  | Mutable_record
  | Toplevel_lazy
  | Atomic_value

let kind_name = function
  | Global_ref -> "global ref"
  | Mutable_table -> "mutable table"
  | Mutable_array -> "mutable array"
  | Mutable_record -> "mutable record"
  | Toplevel_lazy -> "toplevel lazy"
  | Atomic_value -> "atomic"

type site = { file : string; id : string; kind : kind; line : int }

(* --- Longident helpers ------------------------------------------------- *)

let rec flatten (li : Longident.t) =
  match li with
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> flatten p @ [ s ]
  | Longident.Lapply (_, p) -> flatten p

(* --- expression classification ----------------------------------------- *)

let table_modules = [ "Hashtbl"; "Queue"; "Stack"; "Buffer"; "Weak"; "Ephemeron" ]
let array_modules = [ "Array"; "Bytes"; "Float_array"; "Bigarray" ]

let array_ctors =
  [ "make"; "create"; "init"; "make_matrix"; "make_float"; "of_list"; "copy"; "sub"; "append" ]

(* Modules whose constructors build domain-safe synchronization values —
   never sites themselves. *)
let sync_modules = [ "Mutex"; "Condition"; "Semaphore"; "DLS" ]

let generic_ctor_names = [ "create"; "make"; "init" ]

let classify_apply ~ctors path =
  match List.rev path with
  | [] -> None
  | name :: rev_rest -> (
    let parent = match rev_rest with m :: _ -> Some m | [] -> None in
    match (parent, name) with
    | _, "ref" -> Some Global_ref
    | Some m, "create" when List.mem m table_modules -> Some Mutable_table
    | Some "Atomic", "make" -> Some Atomic_value
    | Some m, _ when List.mem m sync_modules -> None
    | Some m, c when List.mem m array_modules && List.mem c array_ctors -> Some Mutable_array
    | None, f when Hashtbl.mem ctors f -> Some (Hashtbl.find ctors f)
    | _, c when List.mem c generic_ctor_names -> Some Mutable_record
    | _ -> None)

let rec classify ~mutable_fields ~ctors (expr : Parsetree.expression) =
  let recurse e = classify ~mutable_fields ~ctors e in
  match expr.Parsetree.pexp_desc with
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_coerce (e, _, _) -> recurse e
  | Parsetree.Pexp_open (_, e) | Parsetree.Pexp_sequence (_, e) -> recurse e
  | Parsetree.Pexp_let (_, _, e) -> recurse e
  | Parsetree.Pexp_lazy _ -> Some Toplevel_lazy
  | Parsetree.Pexp_array _ -> Some Mutable_array
  | Parsetree.Pexp_apply (f, _) -> (
    match f.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; _ } -> classify_apply ~ctors (flatten txt)
    | _ -> None)
  | Parsetree.Pexp_record (fields, _) ->
    if
      List.exists
        (fun ({ Asttypes.txt; _ }, _) ->
          match List.rev (flatten txt) with
          | label :: _ -> List.mem label mutable_fields
          | [] -> false)
        fields
    then Some Mutable_record
    else None
  | Parsetree.Pexp_construct (_, Some arg) -> recurse arg
  | Parsetree.Pexp_tuple es -> List.find_map recurse es
  | _ -> None

(* Peel parameters off a function body ([let f a b = body]); [None] when
   the expression is not a function. *)
let rec function_body (expr : Parsetree.expression) =
  match expr.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, _, body) -> Some (Option.value ~default:body (function_body body))
  | Parsetree.Pexp_newtype (_, body) -> Some (Option.value ~default:body (function_body body))
  | Parsetree.Pexp_constraint (e, _) -> function_body e
  | _ -> None

(* --- structure walk ----------------------------------------------------- *)

let rec binding_name (pat : Parsetree.pattern) =
  match pat.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> Some txt
  | Parsetree.Ppat_constraint (p, _) -> binding_name p
  | _ -> None

(* First pass: every [mutable] record-field name declared anywhere in the
   file (submodules included) — a record literal mentioning one of these
   is mutable no matter where the type lives. *)
let collect_mutable_fields structure =
  let fields = ref [] in
  let rec walk_module_expr (me : Parsetree.module_expr) =
    match me.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure items -> List.iter walk_item items
    | Parsetree.Pmod_constraint (me, _) -> walk_module_expr me
    | Parsetree.Pmod_functor (_, me) -> walk_module_expr me
    | _ -> ()
  and walk_item (item : Parsetree.structure_item) =
    match item.Parsetree.pstr_desc with
    | Parsetree.Pstr_type (_, decls) ->
      List.iter
        (fun (d : Parsetree.type_declaration) ->
          match d.Parsetree.ptype_kind with
          | Parsetree.Ptype_record labels ->
            List.iter
              (fun (l : Parsetree.label_declaration) ->
                if l.Parsetree.pld_mutable = Asttypes.Mutable then
                  fields := l.Parsetree.pld_name.Asttypes.txt :: !fields)
              labels
          | _ -> ())
        decls
    | Parsetree.Pstr_module mb -> walk_module_expr mb.Parsetree.pmb_expr
    | Parsetree.Pstr_recmodule mbs ->
      List.iter (fun (mb : Parsetree.module_binding) -> walk_module_expr mb.Parsetree.pmb_expr) mbs
    | Parsetree.Pstr_include incl -> walk_module_expr incl.Parsetree.pincl_mod
    | _ -> ()
  in
  List.iter walk_item structure;
  !fields

let scan_structure ~file structure =
  let mutable_fields = collect_mutable_fields structure in
  let sites = ref [] in
  let module_name =
    String.capitalize_ascii (Filename.remove_extension (Filename.basename file))
  in
  (* [ctors] maps in-file function names to the kind of mutable state
     their body builds, in declaration order, so [let default = create ()]
     inherits [create]'s kind. *)
  let ctors = Hashtbl.create 16 in
  let rec walk_items path items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match binding_name vb.Parsetree.pvb_pat with
              | None -> ()
              | Some name -> (
                match function_body vb.Parsetree.pvb_expr with
                | Some body -> (
                  match classify ~mutable_fields ~ctors body with
                  | Some kind -> Hashtbl.replace ctors name kind
                  | None -> ())
                | None -> (
                  match classify ~mutable_fields ~ctors vb.Parsetree.pvb_expr with
                  | Some kind ->
                    let id = String.concat "." (path @ [ name ]) in
                    let line =
                      vb.Parsetree.pvb_loc.Location.loc_start.Lexing.pos_lnum
                    in
                    sites := { file; id; kind; line } :: !sites
                  | None -> ())))
            vbs
        | Parsetree.Pstr_module mb ->
          let sub =
            match mb.Parsetree.pmb_name.Asttypes.txt with Some n -> [ n ] | None -> []
          in
          walk_module_expr (path @ sub) mb.Parsetree.pmb_expr
        | Parsetree.Pstr_recmodule mbs ->
          List.iter
            (fun (mb : Parsetree.module_binding) ->
              let sub =
                match mb.Parsetree.pmb_name.Asttypes.txt with Some n -> [ n ] | None -> []
              in
              walk_module_expr (path @ sub) mb.Parsetree.pmb_expr)
            mbs
        | Parsetree.Pstr_include incl -> walk_module_expr path incl.Parsetree.pincl_mod
        | _ -> ())
      items
  and walk_module_expr path (me : Parsetree.module_expr) =
    match me.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure items -> walk_items path items
    | Parsetree.Pmod_constraint (me, _) -> walk_module_expr path me
    (* state at the toplevel of a functor body is per-application, but
       toplevel applications make it global — keep flagging it *)
    | Parsetree.Pmod_functor (_, me) -> walk_module_expr path me
    | _ -> ()
  in
  walk_items [ module_name ] structure;
  List.rev !sites

let scan_file file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error m -> ([], [ D.errorf ~path:[ file ] ~code:"io/unreadable" "%s" m ])
  | source -> (
    let lexbuf = Lexing.from_string source in
    Lexing.set_filename lexbuf file;
    match Parse.implementation lexbuf with
    | structure -> (scan_structure ~file structure, [])
    | exception e ->
      ( [],
        [
          D.errorf ~path:[ file ] ~code:"domain/parse-error" "failed to parse: %s"
            (Printexc.to_string e);
        ] ))

let rec scan_path path =
  if Sys.is_directory path then begin
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun (sites, diags) entry ->
        if String.length entry > 0 && (entry.[0] = '.' || String.equal entry "_build") then
          (sites, diags)
        else
          let child = Filename.concat path entry in
          if Sys.is_directory child || Filename.check_suffix child ".ml" then begin
            let s, d = scan_path child in
            (sites @ s, diags @ d)
          end
          else (sites, diags))
      ([], []) entries
  end
  else scan_file path

(* --- the declared annotation table -------------------------------------- *)

(* One row per known toplevel mutable site under lib/. The analyzer fails
   CI when a site is missing here, so adding global mutable state forces
   writing down its sharing discipline (DESIGN.md §11). *)
let annotations =
  [
    (* lib/obs *)
    ( "Dsan.on",
      Atomic,
      "sanitizer on/off flag; read per check, toggled by tests" );
    ( "Metrics.default",
      Guarded_by_mutex "Metrics.t.guard",
      "registry table guarded; counters/gauges are Atomic.t, histograms carry their own mutex" );
    ( "Trace.default",
      Domain_local,
      "tracing is a single-domain debugging facility; spans/ring are owned by the tracing \
       domain and off by default" );
    ( "Trace.null_span",
      Safe_immutable,
      "sentinel returned while tracing is off; s_real = false so add_attrs never writes it" );
    ( "Flight_recorder.default",
      Guarded_by_mutex "per-shard s_guard + slow-ring r_guard",
      "mutex-sharded fingerprint store; every record/stats locks the key's shard, the slow \
       ring has its own guard, on/refused are Atomic.t" );
    (* lib/physical *)
    ( "Executor.next_id",
      Atomic,
      "executor identity counter; fetch_and_add per create" );
    ( "Executor.verify_plans",
      Atomic,
      "debug gate read per run_physical, toggled by tests" );
    ( "Executor.shared_plan_cache",
      Guarded_by_mutex "Plan_cache per-shard guards",
      "mutex-sharded LRU; every find/add locks the key's shard" );
    (* lib/storage: per-byte lookup tables, filled by Array.init at module
       initialization and only ever indexed afterwards *)
    ("Bitvector.byte_pop", Safe_immutable, "256-entry popcount table, read-only after init");
    ("Excess_dir.byte_excess", Safe_immutable, "per-byte excess table, read-only after init");
    ("Excess_dir.byte_fmin", Safe_immutable, "per-byte forward-min table, read-only after init");
    ("Excess_dir.byte_fmax", Safe_immutable, "per-byte forward-max table, read-only after init");
    ("Excess_dir.byte_bmin", Safe_immutable, "per-byte backward-min table, read-only after init");
    ("Excess_dir.byte_bmax", Safe_immutable, "per-byte backward-max table, read-only after init");
    ("Paged_store.byte_pop", Safe_immutable, "256-entry popcount table, read-only after init");
    ("Entity.classes", Safe_immutable, "256-entry escape class table, read-only after init");
    ("Entity.json_escapes", Safe_immutable, "per-byte JSON escape strings, read-only after init");
    ("Pattern_graph.exact_pow10", Safe_immutable, "powers of ten 10^0..10^22, read-only after init");
    (* lib/workload: word-pool array literals for the synthetic document
       generators; written never, only Array.length/get *)
    ("Gen_auction.words", Safe_immutable, "generator word pool, read-only");
    ("Gen_auction.cities", Safe_immutable, "generator word pool, read-only");
    ("Gen_auction.countries", Safe_immutable, "generator word pool, read-only");
    ("Gen_auction.continents", Safe_immutable, "generator word pool, read-only");
    ("Gen_auction.categories_pool", Safe_immutable, "generator word pool, read-only");
    ("Gen_bib.title_words", Safe_immutable, "generator word pool, read-only");
    ("Gen_bib.surnames", Safe_immutable, "generator word pool, read-only");
    ("Gen_bib.publishers", Safe_immutable, "generator word pool, read-only");
    ("Gen_dblp.first_names", Safe_immutable, "generator word pool, read-only");
    ("Gen_dblp.last_names", Safe_immutable, "generator word pool, read-only");
    ("Gen_dblp.venues", Safe_immutable, "generator word pool, read-only");
    ("Gen_dblp.title_words", Safe_immutable, "generator word pool, read-only");
  ]

(* --- checking ------------------------------------------------------------ *)

let code_of_kind = function
  | Global_ref -> "domain/global-ref"
  | Mutable_table -> "domain/unguarded-table"
  | Mutable_array -> "domain/mutable-array"
  | Mutable_record -> "domain/mutable-state"
  | Toplevel_lazy -> "domain/toplevel-lazy"
  | Atomic_value -> "domain/missing-annotation"

let check ?(table = annotations) ?(stale = true) sites =
  let used = Hashtbl.create 16 in
  let site_diags =
    List.concat_map
      (fun s ->
        let where = [ s.file; Printf.sprintf "%s (line %d)" s.id s.line ] in
        match List.find_opt (fun (id, _, _) -> String.equal id s.id) table with
        | None ->
          [
            D.errorf ~path:where ~code:(code_of_kind s.kind)
              "unannotated toplevel %s: declare it in Domain_check.annotations \
               (Safe_immutable / Guarded_by_mutex / Atomic / Domain_local) or confine it"
              (kind_name s.kind);
          ]
        | Some (id, ann, why) -> (
          Hashtbl.replace used id ();
          match ann with
          | Unsafe ->
            [
              D.errorf ~path:where ~code:"domain/unsafe"
                "site is declared Unsafe (%s): fix it before domains can share it" why;
            ]
          | Atomic when s.kind <> Atomic_value ->
            [
              D.warningf ~path:where ~code:"domain/annotation-mismatch"
                "annotated Atomic but the site is a %s, not an Atomic.t" (kind_name s.kind);
            ]
          | Safe_immutable when s.kind = Global_ref || s.kind = Atomic_value ->
            [
              D.warningf ~path:where ~code:"domain/annotation-mismatch"
                "annotated Safe_immutable but a %s exists to be written" (kind_name s.kind);
            ]
          | Safe_immutable | Guarded_by_mutex _ | Atomic | Domain_local -> []))
      sites
  in
  let stale_diags =
    if not stale then []
    else
      List.filter_map
        (fun (id, ann, _) ->
          if Hashtbl.mem used id then None
          else
            Some
              (D.warningf
                 ~path:[ id ]
                 ~code:"domain/stale-annotation"
                 "annotation %s matches no discovered site: the code moved or the row is dead"
                 (annotation_name ann)))
        table
  in
  site_diags @ stale_diags

let audit ?table ?stale paths =
  let sites, scan_diags =
    List.fold_left
      (fun (sites, diags) p ->
        let s, d = scan_path p in
        (sites @ s, diags @ d))
      ([], []) paths
  in
  scan_diags @ check ?table ?stale sites
