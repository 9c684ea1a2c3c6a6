module Pg = Xqp_algebra.Pattern_graph
module D = Diagnostic

(* --- value-predicate satisfiability ------------------------------------ *)

(* An interval with optional bounds; [lo_strict] means the bound itself is
   excluded. Works for both floats and strings through [cmp]. *)
type 'a interval = {
  lo : 'a option;
  lo_strict : bool;
  hi : 'a option;
  hi_strict : bool;
  ne : 'a list; (* excluded points *)
}

let top = { lo = None; lo_strict = false; hi = None; hi_strict = false; ne = [] }

let tighten_lo cmp iv v strict =
  match iv.lo with
  | None -> { iv with lo = Some v; lo_strict = strict }
  | Some l ->
    let c = cmp v l in
    if c > 0 || (c = 0 && strict) then { iv with lo = Some v; lo_strict = strict } else iv

let tighten_hi cmp iv v strict =
  match iv.hi with
  | None -> { iv with hi = Some v; hi_strict = strict }
  | Some h ->
    let c = cmp v h in
    if c < 0 || (c = 0 && strict) then { iv with hi = Some v; hi_strict = strict } else iv

let add_constraint cmp iv (c : Pg.comparison) v =
  match c with
  | Pg.Eq -> tighten_hi cmp (tighten_lo cmp iv v false) v false
  | Pg.Ne -> { iv with ne = v :: iv.ne }
  | Pg.Lt -> tighten_hi cmp iv v true
  | Pg.Le -> tighten_hi cmp iv v false
  | Pg.Gt -> tighten_lo cmp iv v true
  | Pg.Ge -> tighten_lo cmp iv v false
  | Pg.Contains -> iv (* handled separately *)

(* Emptiness of the interval. Strings and floats are both dense enough for
   our purposes: an open interval between two distinct values is treated as
   nonempty (conservative: no false contradiction), and a point interval
   killed by a [ne] exclusion is empty. *)
let interval_empty cmp iv =
  match (iv.lo, iv.hi) with
  | Some l, Some h ->
    let c = cmp l h in
    if c > 0 then true
    else if c = 0 then iv.lo_strict || iv.hi_strict || List.exists (fun x -> cmp x l = 0) iv.ne
    else false
  | _ -> false

let float_in cmp iv v =
  (match iv.lo with
  | None -> true
  | Some l ->
    let c = cmp v l in
    if iv.lo_strict then c > 0 else c >= 0)
  && (match iv.hi with
     | None -> true
     | Some h ->
       let c = cmp v h in
       if iv.hi_strict then c < 0 else c <= 0)
  && not (List.exists (fun x -> cmp x v = 0) iv.ne)

let contradiction preds =
  let contains_num =
    List.exists
      (fun p -> match (p.Pg.comparison, p.Pg.literal) with Pg.Contains, Pg.Num _ -> true | _ -> false)
      preds
  in
  if contains_num then Some "contains() with a numeric literal never matches"
  else begin
    let num_iv =
      List.fold_left
        (fun iv p ->
          match p.Pg.literal with Pg.Num n -> add_constraint Float.compare iv p.Pg.comparison n | Pg.Str _ -> iv)
        top preds
    in
    let str_iv =
      List.fold_left
        (fun iv p ->
          match (p.Pg.comparison, p.Pg.literal) with
          | Pg.Contains, _ -> iv
          | _, Pg.Str s -> add_constraint String.compare iv p.Pg.comparison s
          | _, Pg.Num _ -> iv)
        top preds
    in
    if interval_empty Float.compare num_iv then Some "numeric constraints have an empty intersection"
    else if interval_empty String.compare str_iv then Some "string constraints have an empty intersection"
    else begin
      (* A string equality pins the value exactly; the numeric constraints
         must then hold of that witness (non-numeric strings fail them). *)
      let str_eq =
        List.find_map
          (fun p ->
            match (p.Pg.comparison, p.Pg.literal) with Pg.Eq, Pg.Str s -> Some s | _ -> None)
          preds
      in
      let has_num_constraint =
        List.exists
          (fun p ->
            match (p.Pg.comparison, p.Pg.literal) with
            | (Pg.Eq | Pg.Lt | Pg.Le | Pg.Gt | Pg.Ge), Pg.Num _ -> true
            | _ -> false)
          preds
      in
      match str_eq with
      | Some s when has_num_constraint -> (
        match Pg.number_of_string s with
        | None -> Some (Printf.sprintf "value pinned to non-numeric %S but numerically constrained" s)
        | Some v ->
          if float_in Float.compare num_iv v then None
          else Some (Printf.sprintf "value pinned to %S, outside the numeric constraints" s))
      | _ -> None
    end
  end

(* --- graph validation --------------------------------------------------- *)

let check pg =
  let n = Pg.vertex_count pg in
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let vpath v = [ Printf.sprintf "vertex %d" v ] in
  if n = 0 then report (D.error ~code:"pattern/output" "pattern has no vertices")
  else begin
    (* outputs *)
    (match Pg.outputs pg with
    | [] -> report (D.error ~code:"pattern/output" "pattern has no output vertex")
    | [ v ] ->
      if v = 0 then report (D.error ~code:"pattern/output" "context vertex marked as output")
    | several ->
      report
        (D.errorf ~code:"pattern/output" "pattern has %d output vertices (expected exactly one)"
           (List.length several)));
    (* arcs: ranges, single parent, none into the context vertex *)
    let parent_seen = Array.make n false in
    List.iter
      (fun (s, t, _) ->
        if s < 0 || s >= n || t < 0 || t >= n then
          report (D.errorf ~code:"pattern/arc" "arc (%d, %d) has an endpoint out of range" s t)
        else begin
          if t = 0 then report (D.error ~code:"pattern/arc" "arc enters the context vertex");
          if parent_seen.(t) then
            report (D.errorf ~path:(vpath t) ~code:"pattern/arc" "vertex %d has two parents" t)
          else parent_seen.(t) <- true
        end)
      (Pg.arcs pg);
    (* connectivity / acyclicity: climb the parent chain from each vertex *)
    for v = 1 to n - 1 do
      let rec climb u steps =
        if steps > n then report (D.errorf ~path:(vpath v) ~code:"pattern/cycle" "vertex %d lies on a parent cycle" v)
        else
          match Pg.parent pg u with
          | None ->
            if u <> 0 then
              report
                (D.errorf ~path:(vpath v) ~code:"pattern/disconnected"
                   "vertex %d does not reach the context vertex" v)
          | Some (p, _) -> climb p (steps + 1)
      in
      climb v 0
    done;
    (* adjacency views agree with the arc list *)
    List.iter
      (fun (s, t, rel) ->
        if s >= 0 && s < n && t >= 0 && t < n && t <> 0 then begin
          (match Pg.parent pg t with
          | Some (s', rel') when s' = s && rel' = rel -> ()
          | _ ->
            report
              (D.errorf ~path:(vpath t) ~code:"pattern/adjacency"
                 "parent view disagrees with arc (%d, %d)" s t));
          if not (List.exists (fun (c, rel') -> c = t && rel' = rel) (Pg.children pg s)) then
            report
              (D.errorf ~path:(vpath s) ~code:"pattern/adjacency"
                 "children view is missing arc (%d, %d)" s t)
        end)
      (Pg.arcs pg);
    (if List.length (Pg.arcs pg) <> List.fold_left (fun acc v -> acc + List.length (Pg.children pg v)) 0 (List.init n (fun i -> i))
     then report (D.error ~code:"pattern/adjacency" "children views and arc list have different sizes"));
    (* attribute vertices are leaves *)
    for v = 1 to n - 1 do
      match Pg.parent pg v with
      | Some (_, Pg.Attribute) ->
        if Pg.children pg v <> [] then
          report
            (D.errorf ~path:(vpath v) ~code:"pattern/attr-internal"
               "vertex %d is reached over an attribute arc but has children" v)
      | _ -> ()
    done;
    (* per-vertex predicate satisfiability *)
    for v = 0 to n - 1 do
      let vx = Pg.vertex pg v in
      match contradiction vx.Pg.predicates with
      | None -> ()
      | Some msg ->
        let code =
          if
            List.exists
              (fun p ->
                match (p.Pg.comparison, p.Pg.literal) with Pg.Contains, Pg.Num _ -> true | _ -> false)
              vx.Pg.predicates
          then "pattern/contains-num"
          else "pattern/contradiction"
        in
        report (D.error ~path:(vpath v) ~code msg)
    done
  end;
  List.rev !diags
