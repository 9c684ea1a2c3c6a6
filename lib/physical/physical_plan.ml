module Lp = Xqp_algebra.Logical_plan
module Pg = Xqp_algebra.Pattern_graph

type strategy =
  | Reference
  | Navigation
  | Nok
  | Pathstack
  | Twigstack
  | Binary_default
  | Binary_best
  | Auto

let strategy_name = function
  | Reference -> "reference"
  | Navigation -> "navigation"
  | Nok -> "nok"
  | Pathstack -> "pathstack"
  | Twigstack -> "twigstack"
  | Binary_default -> "binary-default"
  | Binary_best -> "binary-best"
  | Auto -> "auto"

let all_strategies = [ Navigation; Nok; Pathstack; Twigstack; Binary_default; Binary_best ]

let strategy_of_string name =
  let candidates = Auto :: Reference :: all_strategies in
  match List.find_opt (fun s -> String.equal (strategy_name s) name) candidates with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown engine %S; valid engines: %s" name
         (String.concat ", " (List.map strategy_name candidates)))

type tau_engine =
  | Reference_match
  | Navigation_steps of Lp.t
  | Nok_store
  | Path_stack_join
  | Twig_stack_join
  | Binary_semijoin of { use_index : bool }
  | Binary_ordered of (int * int) list

let engine_strategy = function
  | Reference_match -> Reference
  | Navigation_steps _ -> Navigation
  | Nok_store -> Nok
  | Path_stack_join -> Pathstack
  | Twig_stack_join -> Twigstack
  | Binary_semijoin _ -> Binary_default
  | Binary_ordered _ -> Binary_best

let engine_label e = strategy_name (engine_strategy e)

type tau = { pattern : Pg.t; engine : tau_engine; est_cost : float option }

type t = { op : op; est_rows : float }

and op =
  | Root
  | Context
  | Step of t * Lp.step
  | Tau of t * tau
  | Union of t * t
  | Empty of Lp.t

let rec to_logical p =
  match p.op with
  | Root -> Lp.Root
  | Context -> Lp.Context
  | Step (base, s) -> Lp.Step (to_logical base, s)
  | Tau (base, tau) -> Lp.Tpm (to_logical base, tau.pattern)
  | Union (a, b) -> Lp.Union (to_logical a, to_logical b)
  | Empty lp -> lp

let rec taus p =
  match p.op with
  | Root | Context | Empty _ -> []
  | Step (base, _) -> taus base
  | Tau (base, tau) -> taus base @ [ tau ]
  | Union (a, b) -> taus a @ taus b

let op_label p = match p.op with Empty _ -> "empty" | _ -> Lp.op_label (to_logical p)

let rec size p =
  match p.op with
  | Root | Context -> 0
  | Empty _ -> 1
  | Step (base, _) -> size base + 1
  | Tau (base, _) -> size base + 1
  | Union (a, b) -> size a + size b + 1

let tau_engine_equal a b =
  match (a, b) with
  | Reference_match, Reference_match
  | Nok_store, Nok_store
  | Path_stack_join, Path_stack_join
  | Twig_stack_join, Twig_stack_join ->
    true
  | Navigation_steps p1, Navigation_steps p2 -> Lp.equal p1 p2
  | Binary_semijoin a1, Binary_semijoin a2 -> a1.use_index = a2.use_index
  | Binary_ordered o1, Binary_ordered o2 -> o1 = o2
  | ( ( Reference_match | Navigation_steps _ | Nok_store | Path_stack_join | Twig_stack_join
      | Binary_semijoin _ | Binary_ordered _ ),
      _ ) ->
    false

let tau_equal a b =
  Pg.equal a.pattern b.pattern
  && tau_engine_equal a.engine b.engine
  && a.est_cost = b.est_cost

let rec equal a b =
  Float.equal a.est_rows b.est_rows
  &&
  match (a.op, b.op) with
  | Root, Root | Context, Context -> true
  | Step (b1, s1), Step (b2, s2) ->
    equal b1 b2 && Lp.equal (Lp.Step (Lp.Context, s1)) (Lp.Step (Lp.Context, s2))
  | Tau (b1, t1), Tau (b2, t2) -> equal b1 b2 && tau_equal t1 t2
  | Union (a1, a2), Union (b1, b2) -> equal a1 b1 && equal a2 b2
  | Empty l1, Empty l2 -> Lp.equal l1 l2
  | (Root | Context | Step _ | Tau _ | Union _ | Empty _), _ -> false

(* One line per operator, indented by depth, annotations on τ — the
   [xqp explain] "physical plan" section. Children print below their
   parent, base first, matching the executor's span-path scheme. *)
let pp ppf plan =
  let lines = ref [] in
  let rec go depth p =
    let text =
      match p.op with
      | Root -> Printf.sprintf "root  est=%.1f" p.est_rows
      | Context -> Printf.sprintf "context  est=%.1f" p.est_rows
      | Step (_, _) -> Printf.sprintf "%s  est=%.1f" (op_label p) p.est_rows
      | Tau (_, tau) ->
        let cost =
          match tau.est_cost with Some c -> Printf.sprintf "  cost=%.3fms" (c /. 1e6) | None -> ""
        in
        Format.asprintf "tau %a  engine=%s  est=%.1f%s" Pg.pp tau.pattern
          (engine_label tau.engine) p.est_rows cost
      | Union (_, _) -> Printf.sprintf "union  est=%.1f" p.est_rows
      | Empty _ -> "empty  est=0.0  (pruned: no matching document path)"
    in
    lines := (depth, text) :: !lines;
    match p.op with
    | Root | Context | Empty _ -> ()
    | Step (base, _) | Tau (base, _) -> go (depth + 1) base
    | Union (a, b) ->
      go (depth + 1) a;
      go (depth + 1) b
  in
  go 0 plan;
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i (depth, text) ->
      if i > 0 then Format.pp_print_cut ppf ();
      Format.fprintf ppf "%s%s" (String.make (2 * depth) ' ') text)
    (List.rev !lines);
  Format.pp_close_box ppf ()
