module Lp = Logical_plan
module Pg = Pattern_graph

(* --- rewrite tracing -------------------------------------------------- *)

type rule_fire = { stage : string; rule : string; before_ops : int; after_ops : int }

(* Operator count of a plan fragment, predicates included — the
   before/after sizes a rule fire reports. *)
let rec op_count plan =
  match (plan : Lp.t) with
  | Lp.Root | Lp.Context -> 1
  | Lp.Union (a, b) -> 1 + op_count a + op_count b
  | Lp.Tpm (base, _) -> 1 + op_count base
  | Lp.Step (base, s) ->
    1 + op_count base
    + List.fold_left
        (fun acc p -> match p with Lp.Exists sub -> acc + op_count sub | _ -> acc)
        0 s.Lp.predicates

(* The collector is installed only by the [*_traced] entry points, so the
   plain [simplify]/[fuse]/[optimize] pay one DLS read per rule site.
   Domain-local storage keeps a trace collected on one domain invisible
   to rewrites running concurrently on another (DESIGN.md §11). *)
let collector : rule_fire list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let fire stage rule ~before ~after =
  match Domain.DLS.get collector with
  | None -> ()
  | Some fires ->
    fires :=
      { stage; rule; before_ops = op_count before; after_ops = op_count after } :: !fires

let collect_fires f =
  let fires = ref [] in
  let saved = Domain.DLS.get collector in
  Domain.DLS.set collector (Some fires);
  Fun.protect ~finally:(fun () -> Domain.DLS.set collector saved) f |> fun result ->
  (result, List.rev !fires)

(* --- R0: axis normalization ----------------------------------------- *)

let rec simplify plan =
  match plan with
  | Lp.Root | Lp.Context -> plan
  | Lp.Union (a, b) -> Lp.Union (simplify a, simplify b)
  | Lp.Tpm (base, pg) -> Lp.Tpm (simplify base, pg)
  | Lp.Step (base, s) -> (
    let s = { s with Lp.predicates = List.map simplify_predicate s.Lp.predicates } in
    let base = simplify base in
    match (base, s) with
    (* descendant-or-self::* / child::T  ==>  descendant::T *)
    | ( Lp.Step (inner, { axis = Axis.Descendant_or_self; test = Lp.Any; predicates = [] }),
        { axis = Axis.Child; test; predicates } ) ->
      let result = Lp.Step (inner, { Lp.axis = Axis.Descendant; test; predicates }) in
      fire "simplify" "collapse-desc-or-self-child" ~before:(Lp.Step (base, s)) ~after:result;
      result
    | ( Lp.Step (inner, { axis = Axis.Descendant_or_self; test = Lp.Any; predicates = [] }),
        { axis = Axis.Attribute; test; predicates } ) ->
      (* //@a: any attribute of any descendant-or-self element *)
      Lp.Step
        ( Lp.Step (inner, { Lp.axis = Axis.Descendant_or_self; test = Lp.Any; predicates = [] }),
          { Lp.axis = Axis.Attribute; test; predicates } )
    (* self::* with no predicates is the identity *)
    | base, { axis = Axis.Self; test = Lp.Any; predicates = [] } ->
      fire "simplify" "drop-self-any" ~before:(Lp.Step (base, s)) ~after:base;
      base
    | base, s -> Lp.Step (base, s))

and simplify_predicate = function
  | Lp.Exists sub -> Lp.Exists (simplify sub)
  | (Lp.Value_pred _ | Lp.Position _) as p -> p

(* --- R1/R2: fusion into τ -------------------------------------------- *)

let rel_of_axis = function
  | Axis.Child -> Some Pg.Child
  | Axis.Descendant -> Some Pg.Descendant
  | Axis.Attribute -> Some Pg.Attribute
  | Axis.Self | Axis.Descendant_or_self | Axis.Parent | Axis.Ancestor | Axis.Ancestor_or_self
  | Axis.Following_sibling | Axis.Preceding_sibling | Axis.Following | Axis.Preceding ->
    None

let label_of_test = function
  | Lp.Name n -> Some (Pg.Tag n)
  | Lp.Any -> Some Pg.Wildcard
  | Lp.Text_node | Lp.Node -> None

(* Accumulating builder for pattern graphs. *)
type builder = { mutable rev_vertices : Pg.vertex list; mutable rev_arcs : (int * int * Pg.rel) list; mutable n : int }

let new_builder () =
  { rev_vertices = [ { Pg.label = Pg.Wildcard; predicates = []; output = false } ]; rev_arcs = []; n = 1 }

let add_vertex b vertex =
  let id = b.n in
  b.rev_vertices <- vertex :: b.rev_vertices;
  b.n <- id + 1;
  id

let add_arc b source target rel = b.rev_arcs <- (source, target, rel) :: b.rev_arcs

let finish b =
  Pg.make
    ~vertices:(Array.of_list (List.rev b.rev_vertices))
    ~arcs:(List.rev b.rev_arcs)

(* Attach the chain of [steps] below vertex [parent]; returns the id of the
   last vertex, or None if some step is not fusible. [output_last] marks the
   last spine vertex as an output. *)
let rec attach_steps b parent ~output_last steps =
  match steps with
  | [] -> Some parent
  | s :: rest -> (
    match (rel_of_axis s.Lp.axis, label_of_test s.Lp.test) with
    | Some rel, Some label ->
      (* Split predicates into value constraints and branches. *)
      let rec gather preds value_preds branches =
        match preds with
        | [] -> Some (List.rev value_preds, List.rev branches)
        | Lp.Value_pred p :: more -> gather more (p :: value_preds) branches
        | Lp.Exists sub :: more -> (
          match Lp.steps_of sub with
          | Some (Lp.Context, sub_steps) -> gather more value_preds (sub_steps :: branches)
          | Some _ | None -> None)
        | Lp.Position _ :: _ -> None
      in
      (match gather s.Lp.predicates [] [] with
      | None -> None
      | Some (value_preds, branches) ->
        let is_last = rest = [] in
        let v =
          add_vertex b { Pg.label; predicates = value_preds; output = output_last && is_last }
        in
        add_arc b parent v rel;
        let branches_ok =
          List.for_all
            (fun branch_steps ->
              match attach_steps b v ~output_last:false branch_steps with
              | Some _ -> true
              | None -> false)
            branches
        in
        if branches_ok then attach_steps b v ~output_last rest else None)
    | _, _ -> None)

let pattern_of_steps steps =
  if steps = [] then None
  else begin
    let b = new_builder () in
    match attach_steps b 0 ~output_last:true steps with
    | Some _ -> ( try Some (finish b) with Invalid_argument _ -> None)
    | None -> None
  end

(* A step is fusible in isolation (used for segmentation). *)
let step_fusible s = pattern_of_steps [ { s with Lp.predicates = s.Lp.predicates } ] <> None

let rec fuse plan =
  match plan with
  | Lp.Root | Lp.Context -> plan
  | Lp.Union (a, b) -> Lp.Union (fuse a, fuse b)
  | Lp.Tpm (base, pg) -> Lp.Tpm (fuse base, pg)
  | Lp.Step _ ->
    (* Unwind the maximal trailing step run above a non-step base. *)
    let rec unwind plan acc =
      match plan with
      | Lp.Step (base, s) -> unwind base (s :: acc)
      | other -> (other, acc)
    in
    let base, steps = unwind plan [] in
    let base = fuse base in
    (* Greedy segmentation: longest fusible run, then one non-fusible step,
       repeat. Runs of length >= 2 (or any run with a branch predicate)
       become τ; singletons stay navigational steps. *)
    let emit_run base run =
      let run = List.rev run in
      let has_branch =
        List.exists
          (fun s -> List.exists (function Lp.Exists _ -> true | _ -> false) s.Lp.predicates)
          run
      in
      if List.length run >= 2 || has_branch then
        match pattern_of_steps run with
        | Some pg ->
          let result = Lp.Tpm (base, pg) in
          fire "fuse" "fuse-steps-into-tau" ~before:(Lp.of_steps ~base run) ~after:result;
          result
        | None -> Lp.of_steps ~base run
      else Lp.of_steps ~base run
    in
    let rec consume base run steps =
      match steps with
      | [] -> if run = [] then base else emit_run base run
      | s :: rest ->
        let s =
          { s with Lp.predicates = List.map fuse_predicate s.Lp.predicates }
        in
        if step_fusible s then consume base (s :: run) rest
        else begin
          let base = if run = [] then base else emit_run base run in
          consume (Lp.Step (base, s)) [] rest
        end
    in
    consume base [] steps

and fuse_predicate = function
  | Lp.Exists sub -> Lp.Exists sub (* branch predicates are fused as part of the pattern *)
  | (Lp.Value_pred _ | Lp.Position _) as p -> p

let optimize plan = fuse (simplify plan)

let optimize_traced plan = collect_fires (fun () -> optimize plan)

let pp_rule_fire ppf f =
  Format.fprintf ppf "[%s] %-28s %d -> %d ops" f.stage f.rule f.before_ops f.after_ops
