module Lp = Xqp_algebra.Logical_plan
module Tr = Xqp_obs.Trace

type row = Xqp_obs.Op_row.t = {
  path : string;
  depth : int;
  op : string;
  engine : string option;
  est_rows : float;
  actual_rows : int option;
  time_ms : float option;
  q_error : float option;
  io : (string * int) list;
}

(* One walk over the compiled plan, children first so rows come out in
   execution order. Engines and estimates are read off the plan's
   annotations, never re-derived through the cost model — what the
   planner bound is what the profile reports. [measure ~produces row]
   fills in the measured half; [produces] marks the τ and Step operators,
   whose output cardinality the estimate predicts. *)
let walk physical measure =
  let module Pp = Physical_plan in
  let rec go path depth (p : Pp.t) acc =
    let acc =
      match p.Pp.op with
      | Pp.Root | Pp.Context | Pp.Empty _ -> acc
      | Pp.Step (base, _) | Pp.Tau (base, _) -> go (path ^ ".0") (depth + 1) base acc
      | Pp.Union (a, b) -> go (path ^ ".1") (depth + 1) b (go (path ^ ".0") (depth + 1) a acc)
    in
    let engine, produces =
      match p.Pp.op with
      | Pp.Tau (_, tau) -> (Some (Pp.engine_label tau.Pp.engine), true)
      | Pp.Step _ -> (None, true)
      | Pp.Root | Pp.Context | Pp.Union _ | Pp.Empty _ -> (None, false)
    in
    let row =
      {
        path;
        depth;
        op = Pp.op_label p;
        engine;
        est_rows = p.Pp.est_rows;
        actual_rows = None;
        time_ms = None;
        q_error = None;
        io = [];
      }
    in
    measure ~produces row :: acc
  in
  List.rev (go "0" 0 physical [])

let rows_of_physical physical = walk physical (fun ~produces:_ row -> row)

let is_io_attr name =
  String.starts_with ~prefix:"pager." name || String.starts_with ~prefix:"pool." name

let rows_of_spans physical events =
  let by_path = Hashtbl.create 16 in
  List.iter
    (fun e -> match Tr.attr_str e "path" with Some p -> Hashtbl.replace by_path p e | None -> ())
    events;
  walk physical (fun ~produces row ->
      match Hashtbl.find_opt by_path row.path with
      | None -> row
      | Some e ->
        let actual_rows = Tr.attr_int e "out" in
        {
          row with
          engine = (match Tr.attr_str e "engine" with Some _ as s -> s | None -> row.engine);
          actual_rows;
          time_ms = Some (Tr.duration_us e /. 1000.0);
          q_error =
            (if produces then Option.map (Xqp_obs.Op_row.q_error row.est_rows) actual_rows
             else None);
          io =
            List.filter_map
              (fun (name, v) ->
                match v with Tr.Int d when is_io_attr name -> Some (name, d) | _ -> None)
              e.Tr.attrs;
        })

(* A tracer of its own, sized to the plan (one span per operator), so a
   profile never disturbs spans recorded elsewhere — [Trace.default]
   included. *)
let analyze_physical exec physical ~context =
  let tr = Tr.create ~capacity:(List.length (rows_of_physical physical)) () in
  Tr.set_enabled tr true;
  let result = Executor.run_physical exec ~trace:tr physical ~context in
  let events = Tr.events tr in
  (result, rows_of_spans physical events, events)

let analyze exec ?strategy plan ~context =
  let physical =
    Executor.compile exec ?strategy ~context_card:(float_of_int (List.length context)) plan
  in
  let result, rows, _ = analyze_physical exec physical ~context in
  (result, rows)

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
      (* Every supported engine's estimated time; the runner-up is the
         cheapest engine Auto did not bind. *)
      let chosen = Cost_model.choose stats pattern in
      let costs = Cost_model.costs stats pattern in
      let runner_up =
        List.fold_left
          (fun best (e, c) ->
            match best with
            | Some (_, bc) when bc <= c -> best
            | _ when e = chosen -> best
            | _ -> Some (e, c))
          None costs
        |> Option.map fst
      in
      Format.fprintf ppf "engine costs:    estimated ms (* chosen, + runner-up)@.";
      List.iter
        (fun (e, c) ->
          Format.fprintf ppf "  %-12s %9.3f%s@." (Cost_model.engine_name e) (c /. 1e6)
            (if e = chosen then " *" else if Some e = runner_up then " +" else ""))
        costs;
      let chosen = Cost_model.engine_name chosen in
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
