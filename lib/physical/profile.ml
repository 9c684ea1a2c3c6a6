module Lp = Xqp_algebra.Logical_plan
module Tr = Xqp_obs.Trace

type row = {
  path : string;
  depth : int;
  op : string;
  engine : string option;
  est_rows : float;
  actual_rows : int option;
  time_ms : float option;
  io : (string * int) list;
}

(* The static half from the IR: engines and estimates are read off the
   compiled plan's annotations, never re-derived through the cost
   model — what the planner bound is what the profile reports. *)
let rows_of_physical physical =
  let module Pp = Physical_plan in
  let rec walk path depth (p : Pp.t) acc =
    (* children first: rows come out in execution order *)
    let acc =
      match p.Pp.op with
      | Pp.Root | Pp.Context | Pp.Empty _ -> acc
      | Pp.Step (base, _) | Pp.Tau (base, _) -> walk (path ^ ".0") (depth + 1) base acc
      | Pp.Union (a, b) ->
        walk (path ^ ".1") (depth + 1) b (walk (path ^ ".0") (depth + 1) a acc)
    in
    let engine =
      match p.Pp.op with
      | Pp.Tau (_, tau) -> Some (Pp.engine_label tau.Pp.engine)
      | Pp.Root | Pp.Context | Pp.Step _ | Pp.Union _ | Pp.Empty _ -> None
    in
    {
      path;
      depth;
      op = Pp.op_label p;
      engine;
      est_rows = p.Pp.est_rows;
      actual_rows = None;
      time_ms = None;
      io = [];
    }
    :: acc
  in
  List.rev (walk "0" 0 physical [])

let is_io_attr name =
  String.length name > 5
  && (String.sub name 0 6 = "pager." || (String.length name > 4 && String.sub name 0 5 = "pool."))

let analyze_physical exec physical ~context =
  let tr = Tr.default in
  let was_enabled = Tr.enabled tr in
  Tr.clear tr;
  Tr.set_enabled tr true;
  let result =
    Fun.protect
      ~finally:(fun () -> Tr.set_enabled tr was_enabled)
      (fun () -> Executor.run_physical exec physical ~context)
  in
  let events = Tr.events tr in
  let by_path = Hashtbl.create 16 in
  List.iter
    (fun e -> match Tr.attr_str e "path" with Some p -> Hashtbl.replace by_path p e | None -> ())
    events;
  let rows =
    List.map
      (fun row ->
        match Hashtbl.find_opt by_path row.path with
        | None -> row
        | Some e ->
          {
            row with
            engine = (match Tr.attr_str e "engine" with Some _ as s -> s | None -> row.engine);
            actual_rows = Tr.attr_int e "out";
            time_ms = Some (Tr.duration_us e /. 1000.0);
            io =
              List.filter_map
                (fun (name, v) ->
                  match v with Tr.Int d when is_io_attr name -> Some (name, d) | _ -> None)
                e.Tr.attrs;
          })
      (rows_of_physical physical)
  in
  (result, rows)

let analyze exec ?strategy plan ~context =
  let physical =
    Executor.compile exec ?strategy ~context_card:(float_of_int (List.length context)) plan
  in
  analyze_physical exec physical ~context

type explain = {
  rendered : string;
  cache : Executor.cache_status;
  estimate : float option;
  estimate_source : string option;
  chosen : string;
  physical : Physical_plan.t;
}

(* The logical half is rendered from the query text; the physical plan
   comes from [Executor.prepare] — the cached path every query takes — so
   the plan printed is the plan that runs and the cache outcome is this
   call's own lookup. *)
let explain exec ?strategy ?(optimize = true) ?use_cache ?(rewrites = false) query =
  let module Rw = Xqp_algebra.Rewrite in
  let buffer = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buffer in
  let plan = Xqp_xpath.Parser.parse query in
  let simplified = Rw.simplify plan in
  let optimized, fires = if optimize then Rw.optimize_traced plan else (simplified, []) in
  Format.fprintf ppf "parsed plan:     %a@." Lp.pp simplified;
  Format.fprintf ppf "optimized plan:  %a@." Lp.pp optimized;
  if rewrites then begin
    if fires = [] then Format.fprintf ppf "rewrites:        (no rule fired)@."
    else begin
      Format.fprintf ppf "rewrites:@.";
      List.iter (fun f -> Format.fprintf ppf "  %a@." Rw.pp_rule_fire f) fires
    end
  end;
  let estimate, estimate_source, chosen =
    match optimized with
    | Lp.Tpm (_, pattern) ->
      let module Pg = Xqp_algebra.Pattern_graph in
      Format.fprintf ppf "pattern graph:   %a@." Pg.pp pattern;
      Format.fprintf ppf "NoK partition:   %a@." Nok_partition.pp
        (Nok_partition.partition pattern);
      let stats = Executor.statistics exec in
      let est, src = Cost_model.estimate_plan_detail stats optimized in
      let src = Statistics.source_label src in
      Format.fprintf ppf "estimated rows:  %.1f (%s)@." est src;
      List.iter
        (fun engine ->
          if Cost_model.supports pattern engine then
            Format.fprintf ppf "  cost[%s] = %.0f@." (Cost_model.engine_name engine)
              (Cost_model.estimate stats pattern engine))
        Cost_model.all_engines;
      let chosen = Cost_model.engine_name (Cost_model.choose stats pattern) in
      Format.fprintf ppf "chosen engine:   %s@." chosen;
      (Some est, Some src, chosen)
    | _ ->
      Format.fprintf ppf "(plan is not a single pattern; steps run navigationally)@.";
      (None, None, "navigation")
  in
  let compiled = Executor.prepare exec ?strategy ~optimize ?use_cache (Executor.Query query) in
  Format.fprintf ppf "plan cache:      %s@." (Executor.cache_status_label compiled.Executor.cache);
  Format.fprintf ppf "physical plan:@.%a@." Physical_plan.pp compiled.Executor.physical;
  {
    rendered = Buffer.contents buffer;
    cache = compiled.Executor.cache;
    estimate;
    estimate_source;
    chosen;
    physical = compiled.Executor.physical;
  }

let pp_table ppf rows =
  let opt_str f = function Some v -> f v | None -> "-" in
  let io_str io =
    if io = [] then "-"
    else String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) io)
  in
  let cells =
    List.map
      (fun r ->
        ( String.make (2 * r.depth) ' ' ^ r.op,
          opt_str Fun.id r.engine,
          Printf.sprintf "%.1f" r.est_rows,
          opt_str string_of_int r.actual_rows,
          opt_str (Printf.sprintf "%.3f") r.time_ms,
          io_str r.io ))
      rows
  in
  let header = ("operator", "engine", "est", "actual", "ms", "io") in
  let width f = List.fold_left (fun w row -> max w (String.length (f row))) 0 (header :: cells) in
  let w1 = width (fun (a, _, _, _, _, _) -> a)
  and w2 = width (fun (_, b, _, _, _, _) -> b)
  and w3 = width (fun (_, _, c, _, _, _) -> c)
  and w4 = width (fun (_, _, _, d, _, _) -> d)
  and w5 = width (fun (_, _, _, _, e, _) -> e) in
  let line (a, b, c, d, e, f) =
    Format.fprintf ppf "%-*s  %-*s  %*s  %*s  %*s  %s@." w1 a w2 b w3 c w4 d w5 e f
  in
  line header;
  List.iter line cells
