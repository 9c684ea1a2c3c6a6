module Lp = Xqp_algebra.Logical_plan
module Pp = Physical_plan

(* One capability predicate per engine — each delegates to the engine
   module itself, the same predicates [Cost_model.supports] consults, so
   the planner, the cost model and the engines cannot disagree. *)
let supports (s : Pp.strategy) pattern =
  match s with
  | Pp.Pathstack -> Path_stack.supported pattern
  | Pp.Twigstack -> Twig_stack.supported pattern
  | Pp.Nok -> Nok.supported pattern
  | Pp.Binary_default | Pp.Binary_best -> Binary_join.supported pattern
  | Pp.Reference | Pp.Navigation | Pp.Auto -> true

let strategy_of_engine = function
  | Cost_model.Naive_nav -> Pp.Navigation
  | Cost_model.Nok_navigation -> Pp.Nok
  | Cost_model.Twig_join -> Pp.Twigstack
  | Cost_model.Binary_joins -> Pp.Binary_default

(* The single home of engine fallbacks: PathStack covers chains only and
   falls back to TwigStack; TwigStack rejects sibling arcs and falls back
   to the (total) binary semijoin engine. *)
let rec fallback strategy pattern =
  if supports strategy pattern then strategy
  else
    match (strategy : Pp.strategy) with
    | Pp.Pathstack -> fallback Pp.Twigstack pattern
    | Pp.Twigstack -> fallback Pp.Binary_default pattern
    | other -> other

let effective ~choose strategy pattern =
  let concrete =
    match (strategy : Pp.strategy) with
    | Pp.Auto -> strategy_of_engine (choose pattern)
    | s -> s
  in
  fallback concrete pattern

let cost_engine = function
  | Pp.Navigation -> Some Cost_model.Naive_nav
  | Pp.Nok -> Some Cost_model.Nok_navigation
  | Pp.Pathstack | Pp.Twigstack -> Some Cost_model.Twig_join
  | Pp.Binary_default | Pp.Binary_best -> Some Cost_model.Binary_joins
  | Pp.Reference | Pp.Auto -> None

let compile_tau ?choose stats strategy pattern =
  let choose = match choose with Some f -> f | None -> Cost_model.choose stats in
  let concrete = effective ~choose strategy pattern in
  let engine =
    match concrete with
    | Pp.Reference -> Pp.Reference_match
    | Pp.Navigation ->
      Pp.Navigation_steps (Lp.of_steps ~base:Lp.Context (Navigation.steps_of_pattern pattern))
    | Pp.Nok -> Pp.Nok_kernel
    | Pp.Pathstack -> Pp.Path_stack_join
    | Pp.Twigstack -> Pp.Twig_stack_join
    | Pp.Binary_default -> Pp.Binary_semijoin { use_index = Binary_join.index_answerable pattern }
    | Pp.Binary_best -> Pp.Binary_ordered (Cost_model.best_join_order stats pattern)
    | Pp.Auto -> assert false (* effective never returns Auto *)
  in
  let est_cost =
    match cost_engine concrete with
    | Some e -> Some (Cost_model.estimate stats pattern e)
    | None -> None
  in
  { Pp.pattern; engine; est_cost }

let m_empty_plans = Xqp_obs.Metrics.counter Xqp_obs.Metrics.default "planner.empty_plans"

let compile ?(strategy = Pp.Auto) ?(context_card = 1.0) ?choose stats plan =
  let rec go lp =
    (* Plan-time pruning: when the path summary proves a subplan can match
       no document path, compile the whole subtree to [Empty] — the
       executor answers [] without touching any store. *)
    if Cost_model.plan_certainly_empty stats lp then begin
      Xqp_obs.Metrics.incr m_empty_plans;
      { Pp.op = Pp.Empty lp; est_rows = 0.0 }
    end
    else
      let est_rows = Cost_model.estimate_plan stats ~context_card lp in
      let op =
        match (lp : Lp.t) with
        | Lp.Root -> Pp.Root
        | Lp.Context -> Pp.Context
        | Lp.Step (base, s) -> Pp.Step (go base, s)
        | Lp.Tpm (base, pattern) -> Pp.Tau (go base, compile_tau ?choose stats strategy pattern)
        | Lp.Union (a, b) -> Pp.Union (go a, go b)
      in
      { Pp.op; est_rows }
  in
  go plan
