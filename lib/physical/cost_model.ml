module Pg = Xqp_algebra.Pattern_graph
module Lp = Xqp_algebra.Logical_plan
module Ps = Xqp_storage.Path_summary
module Axis = Xqp_algebra.Axis

type engine = Naive_nav | Nok_navigation | Twig_join | Binary_joins

let all_engines = [ Naive_nav; Nok_navigation; Twig_join; Binary_joins ]

let engine_name = function
  | Naive_nav -> "navigation"
  | Nok_navigation -> "nok"
  | Twig_join -> "twigstack"
  | Binary_joins -> "binary-join"

(* Delegates to each engine's own capability predicate so that the cost
   model, the planner and the engines themselves cannot disagree about
   what runs where. *)
let supports pattern = function
  | Twig_join -> Twig_stack.supported pattern
  | Nok_navigation -> Nok.supported pattern
  | Binary_joins -> Binary_join.supported pattern
  | Naive_nav -> true

(* Elements or attributes examined to build a vertex's candidate stream
   ([Binary_join.stream]): its whole tag stream, or every node for a
   wildcard; the context vertex streams the one document node. *)
let stream_length stats pattern v =
  if v = 0 then 1.0
  else
    match (Pg.vertex pattern v).Pg.label with
    | Pg.Tag name -> float_of_int (Statistics.tag_count stats name)
    | Pg.Wildcard -> float_of_int (Statistics.node_count stats)

(* Estimated intermediate tuples after joining a connected subset S of
   vertices: under independence, ≈ max over v∈S of card(v) × amplification
   of many-to-one arcs; we approximate by the product of per-arc output
   sizes divided by shared-vertex cardinalities — standard chain estimate:
   |join over arcs A| ≈ Π_{(p,c)∈A} pairs(p,c) / Π_{v internal} card(v). *)
let arc_pairs stats pattern (s, t) =
  let rel =
    match List.find_opt (fun (s', t', _) -> s' = s && t' = t) (Pg.arcs pattern) with
    | Some (_, _, rel) -> rel
    | None -> Pg.Child
  in
  let parent_label = if s = 0 then Pg.Wildcard else (Pg.vertex pattern s).Pg.label in
  let child_label = (Pg.vertex pattern t).Pg.label in
  let raw =
    if s = 0 then
      match rel with
      | Pg.Descendant -> stream_length stats pattern t
      | Pg.Child | Pg.Attribute -> 1.0
      | Pg.Following_sibling -> 0.0
    else Statistics.estimate_rel stats rel ~parent:parent_label ~child:child_label
  in
  let selectivity =
    List.fold_left
      (fun acc pred -> acc *. Statistics.predicate_selectivity pred)
      1.0 (Pg.vertex pattern t).Pg.predicates
  in
  Float.max 0.0 (raw *. selectivity)

let estimate_join_order stats pattern order =
  let cost = ref 0.0 in
  let bound = ref [] in
  let tuples = ref 0.0 in
  List.iteri
    (fun i (s, t) ->
      let left = stream_length stats pattern s and right = stream_length stats pattern t in
      let pairs = arc_pairs stats pattern (s, t) in
      if i = 0 then tuples := pairs
      else begin
        (* joining the pair list against current tuples through the shared
           vertex: tuples × pairs / card(shared) *)
        let shared = if List.mem s !bound then s else t in
        let shared_card = Float.max 1.0 (stream_length stats pattern shared) in
        tuples := !tuples *. pairs /. shared_card
      end;
      bound := s :: t :: !bound;
      cost := !cost +. left +. right +. !tuples)
    order;
  !cost

(* Greedy order construction: repeatedly append the connected arc with the
   cheapest resulting prefix. O(arcs^2) estimate calls — planning must stay
   far below execution cost (exhaustive search over all orders is used only
   by the E5 ground-truth study). *)
let best_join_order stats pattern =
  let arcs = List.map (fun (s, t, _) -> (s, t)) (Pg.arcs pattern) in
  let connected chosen (s, t) =
    chosen = []
    || List.exists (fun (s', t') -> s' = s || s' = t || t' = s || t' = t) chosen
  in
  let rec build chosen remaining =
    if remaining = [] then List.rev chosen
    else begin
      let candidates = List.filter (connected chosen) remaining in
      let candidates = if candidates = [] then remaining else candidates in
      let score arc = estimate_join_order stats pattern (List.rev (arc :: chosen)) in
      let best =
        List.fold_left
          (fun (ba, bc) arc ->
            let c = score arc in
            if c < bc then (arc, c) else (ba, bc))
          (List.hd candidates, score (List.hd candidates))
          (List.tl candidates)
      in
      let arc = fst best in
      build (arc :: chosen) (List.filter (fun a -> a <> arc) remaining)
    end
  in
  build [] arcs

(* --- per-engine work units ---------------------------------------------- *)

(* Each engine is costed in the counts its [*_with_stats] returns, in
   this order; [Executor.count_units] counts the same vector by running
   the engine. *)
let unit_names = function
  | Naive_nav -> [| "nodes_visited" |]
  | Nok_navigation -> [| "nodes_visited"; "join_pairs" |]
  | Twig_join -> [| "streamed"; "pushes"; "path_solutions" |]
  | Binary_joins -> [| "streamed"; "scanned" |]

(* The path summary seen from the virtual document node ([Ps.super_root]):
   one instance, whose children are the root-level paths. Dense arrays
   over it are indexed by [slot]: 0 for the document node, [i + 1] for
   summary node [i]. Canonical order puts every parent before its
   children, so one forward pass sums over ancestors and one backward
   pass over descendants. *)
let slot i = i + 1

(* Dense arrays come from a per-domain free list and go back to it once
   read, so a compile on a warm domain allocates none: on a corpus
   summary of a few hundred paths each would be a major-heap block.
   [take n] is a zeroed array of at least [n] slots. *)
let free_dense : float array list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let take n =
  let free = Domain.DLS.get free_dense in
  match !free with
  | a :: rest when Array.length a >= n ->
    free := rest;
    Array.fill a 0 n 0.0;
    a
  | _ :: rest ->
    free := rest;
    Array.make n 0.0
  | [] -> Array.make n 0.0

let give a =
  let free = Domain.DLS.get free_dense in
  free := a :: !free

let s_count summary i = if i = Ps.super_root then 1.0 else float_of_int (Ps.count summary i)
let s_children summary i = if i = Ps.super_root then Ps.roots summary else Ps.children summary i
let is_attribute_label l = String.length l > 0 && l.[0] = '@'

(* [acc.(slot i)] = Σ of [dense] over the proper ancestors of [i]. *)
let ancestor_sums summary dense =
  let acc = take (Ps.length summary + 1) in
  for i = 0 to Ps.length summary - 1 do
    let p = slot (Ps.parent summary i) in
    acc.(slot i) <- acc.(p) +. dense.(p)
  done;
  acc

let dense_of summary dist =
  let d = take (Ps.length summary + 1) in
  List.iter (fun (i, w) -> d.(slot i) <- d.(slot i) +. w) dist;
  d

(* Weighted summary-node sets: (summary node, expected document nodes on
   that path). *)
let total dist = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 dist

let total_count summary ids = float_of_int (Ps.total_count summary ids)

(* Sum the weights of repeated nodes, capped at the path's node count —
   what a dedup of the engine's per-context results leaves. *)
let merge summary dist =
  let d = dense_of summary dist in
  let out = ref [] in
  for x = Ps.length summary downto 0 do
    if d.(x) > 0.0 then out := (x - 1, Float.min d.(x) (s_count summary (x - 1))) :: !out
  done;
  give d;
  !out

(* Every summary node [d] passing [keep], weighted [f d] when that is
   positive. *)
let nodes_where summary keep f =
  let out = ref [] in
  for d = Ps.length summary - 1 downto 0 do
    if keep d then
      let w = f d in
      if w > 0.0 then out := (d, w) :: !out
  done;
  !out

let vertex_selectivity pattern v =
  List.fold_left
    (fun acc pred -> acc *. Statistics.predicate_selectivity pred)
    1.0 (Pg.vertex pattern v).Pg.predicates

let is_attribute_vertex pattern v =
  match Pg.parent pattern v with Some (_, Pg.Attribute) -> true | _ -> false

let vertex_label_matches pattern v lab =
  let attribute = is_attribute_vertex pattern v in
  match (Pg.vertex pattern v).Pg.label with
  | Pg.Tag n -> String.equal lab (if attribute then "@" ^ n else n)
  | Pg.Wildcard -> if attribute then is_attribute_label lab else Ps.is_element_label lab

(* Root-path embeddings of the context-to-[v] chain, per summary node:
   [(k, ways)] says every document node on path [k] ends [ways] chains
   (more than one when a // step matches nested ancestors). Exact for the
   chain; sibling arcs and branches are not projected. *)
let chain_ways stats pattern =
  let summary = Statistics.summary stats in
  let ways = Array.make (Pg.vertex_count pattern) [] in
  ways.(0) <- [ (Ps.super_root, 1.0) ];
  let rec fill v =
    List.iter
      (fun (c, (rel : Pg.rel)) ->
        let matches d = vertex_label_matches pattern c (Ps.label summary d) in
        let from = dense_of summary ways.(v) in
        ways.(c) <-
          (match rel with
          | Pg.Child | Pg.Attribute ->
            nodes_where summary matches (fun d -> from.(slot (Ps.parent summary d)))
          | Pg.Descendant ->
            let above = ancestor_sums summary from in
            let w = nodes_where summary matches (fun d -> above.(slot d)) in
            give above;
            w
          | Pg.Following_sibling -> []);
        give from;
        fill c)
      (Pg.children pattern v)
  in
  fill 0;
  ways

(* Product of the predicate selectivities on the context-to-[v] chain. *)
let chain_selectivity pattern v =
  let rec up v acc =
    match Pg.parent pattern v with
    | None -> acc
    | Some (p, _) -> up p (acc *. vertex_selectivity pattern v)
  in
  up v 1.0

(* Nodes on [v]'s chain, ignoring branches: the TwigStack pushes and the
   candidates a summary-pruned stream keeps. *)
let chain_nodes stats pattern ways v =
  let summary = Statistics.summary stats in
  if v = 0 then 1.0 else total_count summary (List.map fst ways.(v)) *. chain_selectivity pattern v

(* Navigation: simulate the step plan the planner binds
   ([Navigation.steps_of_pattern]) over the path summary. Every step
   visits, per context node, its children or attributes, or — for a
   descendant step — every non-attribute node below it except inside the
   subtrees the summary lets it skip (the same [Ps.skip_labels] sets
   [Navigation] uses). Existence predicates run their sub-plan per
   selected node; a node survives with probability min(1, matches per
   node). Downward chains come out exact. *)
let navigation_units stats pattern =
  let summary = Statistics.summary stats in
  let len = Ps.length summary in
  let leaves i = if i = Ps.super_root then 0.0 else Statistics.leaf_children stats i in
  (* Per node test: nodes a descendant scan visits below all instances
     of each summary node, skipped subtrees left out. *)
  let scans = Hashtbl.create 4 in
  let scan_below (test : Lp.node_test) =
    let key =
      match test with Lp.Name n -> "n:" ^ n | Lp.Any -> "*" | Lp.Text_node -> "#" | Lp.Node -> "."
    in
    match Hashtbl.find_opt scans key with
    | Some below -> below
    | None ->
      let ids p = List.filter p (List.init len Fun.id) in
      let targets, self =
        match test with
        | Lp.Name n -> (ids (fun i -> String.equal (Ps.label summary i) n), false)
        | Lp.Any -> (ids (fun i -> Ps.is_element_label (Ps.label summary i)), false)
        | Lp.Text_node -> (ids (fun i -> Ps.has_text summary i), true)
        | Lp.Node -> (ids (fun _ -> true), true)
      in
      let skip = Ps.skip_labels summary ~targets ~self in
      let below = take (len + 1) in
      for i = len - 1 downto 0 do
        let lab = Ps.label summary i in
        if not (is_attribute_label lab) then begin
          let p = slot (Ps.parent summary i) in
          below.(p) <-
            below.(p) +. s_count summary i
            +. if skip lab then 0.0 else leaves i +. below.(slot i)
        end
      done;
      Hashtbl.add scans key below;
      below
  in
  let test_matches (test : Lp.node_test) ~attribute k =
    let lab = Ps.label summary k in
    is_attribute_label lab = attribute
    &&
    match test with
    | Lp.Name n -> String.equal lab (if attribute then "@" ^ n else n)
    | Lp.Any -> attribute || Ps.is_element_label lab
    | Lp.Node -> true
    | Lp.Text_node -> false
  in
  let fanout = Float.max 1.0 (Statistics.avg_fanout stats) in
  (* One step from every context: (visited, matches before predicates,
     uncapped: nested contexts select a node once each). *)
  let step (s : Lp.step) contexts =
    let per (i, w) = w /. s_count summary i in
    let local ~attribute =
      List.fold_left
        (fun (visited, out) ((i, _) as c) ->
          let f = per c in
          List.fold_left
            (fun (visited, out) k ->
              if is_attribute_label (Ps.label summary k) <> attribute then (visited, out)
              else
                let n = f *. s_count summary k in
                (visited +. n, if test_matches s.Lp.test ~attribute k then (k, n) :: out else out))
            ((visited +. if attribute then 0.0 else f *. leaves i), out)
            (s_children summary i))
        (0.0, []) contexts
    in
    match s.Lp.axis with
    | Axis.Child -> local ~attribute:false
    | Axis.Attribute -> local ~attribute:true
    | Axis.Descendant | Axis.Descendant_or_self ->
      let self = s.Lp.axis = Axis.Descendant_or_self in
      let below = scan_below s.Lp.test in
      let visited =
        List.fold_left
          (fun acc ((i, w) as c) ->
            acc
            +. (per c *. (leaves i +. below.(slot i)))
            +. if self && i <> Ps.super_root then w else 0.0)
          0.0 contexts
      in
      let dense = dense_of summary (List.map (fun ((i, _) as c) -> (i, per c)) contexts) in
      let above = ancestor_sums summary dense in
      let matches d = test_matches s.Lp.test ~attribute:false d in
      let found =
        nodes_where summary matches (fun d ->
            (above.(slot d) +. if self then dense.(slot d) else 0.0) *. s_count summary d)
      in
      give above;
      give dense;
      (visited, found)
    | Axis.Self ->
      ( total contexts,
        List.filter
          (fun (i, _) ->
            if i = Ps.super_root then s.Lp.test = Lp.Any || s.Lp.test = Lp.Node
            else test_matches s.Lp.test ~attribute:false i)
          contexts )
    | Axis.Parent | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Following_sibling
    | Axis.Preceding_sibling | Axis.Following | Axis.Preceding ->
      (total contexts *. fanout, [])
  in
  let rec run ctx (plan : Lp.t) =
    match plan with
    | Lp.Root -> (0.0, [ (Ps.super_root, 1.0) ])
    | Lp.Context -> (0.0, ctx)
    | Lp.Union (a, b) ->
      let va, da = run ctx a and vb, db = run ctx b in
      (va +. vb, merge summary (da @ db))
    | Lp.Tpm _ -> (0.0, [])
    | Lp.Step (base, s) ->
      let visited, contexts = run ctx base in
      let v, matches = step s contexts in
      let v', kept = filter s.Lp.predicates ~contexts:(total contexts) matches in
      (visited +. v +. v', merge summary kept)
  and filter preds ~contexts matches =
    List.fold_left
      (fun (visited, m) (pred : Lp.predicate) ->
        match pred with
        | Lp.Value_pred p ->
          let f = Statistics.predicate_selectivity p in
          (visited, List.map (fun (k, w) -> (k, w *. f)) m)
        | Lp.Position _ ->
          let f = Float.min 1.0 (contexts /. Float.max 1.0 (total m)) in
          (visited, List.map (fun (k, w) -> (k, w *. f)) m)
        | Lp.Exists sub ->
          List.fold_left
            (fun (visited, kept) (k, w) ->
              let v, found = run [ (k, w) ] sub in
              (visited +. v, (k, Float.min w (total found)) :: kept))
            (visited, []) m)
      (0.0, matches) preds
  in
  let plan = Lp.of_steps ~base:Lp.Context (Navigation.steps_of_pattern pattern) in
  let visited = fst (run [ (Ps.super_root, 1.0) ] plan) in
  Hashtbl.iter (fun _ below -> give below) scans;
  [| visited |]

(* NoK, as the kernel counts: per fragment, one visit per root candidate
   the summary prune keeps (one for the context), then per embedding the
   local arcs in the kernel's order — existence arcs first, each tried
   only where the earlier ones matched, then the arcs leading to a
   binding. A binding arc scans every child (attributes included; an
   attribute arc only the attributes); an existence arc stops at its
   first witness, expected after (children + 1) / (matches + 1). The
   link joins keep the targets under a kept source. *)
let nok_units stats pattern =
  let summary = Statistics.summary stats in
  let n = Pg.vertex_count pattern in
  let parts = Nok_partition.partition pattern in
  let leaves i = if i = Ps.super_root then 0.0 else Statistics.leaf_children stats i in
  let in_fragment = Array.make n (-1) and interesting = Array.make n false in
  List.iteri
    (fun fi f ->
      List.iter (fun v -> in_fragment.(v) <- fi) f.Nok_partition.members;
      List.iter (fun v -> interesting.(v) <- true) f.Nok_partition.interesting)
    parts.Nok_partition.fragments;
  let local_children v =
    List.filter
      (fun (c, rel) -> rel <> Pg.Descendant && in_fragment.(c) = in_fragment.(v))
      (Pg.children pattern v)
  in
  let rec binds c = interesting.(c) || List.exists (fun (c', _) -> binds c') (local_children c) in
  let fanout = Float.max 1.0 (Statistics.avg_fanout stats) in
  let visited = ref 0.0 in
  let reached = Array.make n [] in
  let rec embed v dist =
    reached.(v) <- merge summary (dist @ reached.(v));
    let alive = ref 1.0 in
    let exists, collects = List.partition (fun (c, _) -> not (binds c)) (local_children v) in
    List.iter
      (fun (c, (rel : Pg.rel)) ->
        let scanned, matched =
          List.fold_left
            (fun (scanned, matched) (i, w) ->
              let per = w /. s_count summary i in
              match rel with
              | Pg.Child | Pg.Attribute ->
                let kids =
                  List.filter
                    (fun k -> is_attribute_label (Ps.label summary k) || rel = Pg.Child)
                    (s_children summary i)
                in
                let children =
                  (total_count summary kids +. if rel = Pg.Child then leaves i else 0.0)
                  /. s_count summary i
                in
                let hits =
                  List.filter_map
                    (fun k ->
                      if vertex_label_matches pattern c (Ps.label summary k) then
                        Some (k, per *. s_count summary k *. vertex_selectivity pattern c)
                      else None)
                    kids
                in
                let tried =
                  if binds c then children
                  else
                    let m = total hits /. Float.max 1e-9 w in
                    Float.min children ((children +. 1.0) /. (m +. 1.0))
                in
                (scanned +. (w *. tried), hits @ matched)
              | Pg.Following_sibling | Pg.Descendant -> (scanned +. (w *. fanout /. 2.0), matched))
            (0.0, []) dist
        in
        visited := !visited +. (!alive *. scanned);
        embed c (List.map (fun (k, w) -> (k, w *. !alive)) matched);
        alive := !alive *. Float.min 1.0 (total matched /. Float.max 1e-9 (total dist)))
      (exists @ collects)
  in
  List.iter
    (fun f ->
      let r = f.Nok_partition.root in
      if r = 0 then begin
        visited := !visited +. 1.0;
        embed 0 [ (Ps.super_root, 1.0) ]
      end
      else
        let roots =
          match Statistics.vertex_summary_nodes stats pattern r with
          | Some ids ->
            visited := !visited +. total_count summary ids;
            List.map (fun k -> (k, s_count summary k *. vertex_selectivity pattern r)) ids
          | None ->
            visited := !visited +. stream_length stats pattern r;
            []
        in
        embed r roots)
    parts.Nok_partition.fragments;
  let join_pairs =
    List.fold_left
      (fun acc (src, dst) ->
        let dense =
          dense_of summary (List.map (fun (s, w) -> (s, w /. s_count summary s)) reached.(src))
        in
        let above = ancestor_sums summary dense in
        let acc =
          List.fold_left
            (fun acc (d, wd) -> acc +. (wd *. Float.min 1.0 above.(slot d)))
            acc reached.(dst)
        in
        give above;
        give dense;
        acc)
      0.0 parts.Nok_partition.links
  in
  [| !visited; join_pairs |]

(* TwigStack: every candidate stream is built in full, each node on a
   vertex's chain is pushed, and every leaf push emits one path solution
   per root chain above it. *)
let twig_units stats pattern =
  let n = Pg.vertex_count pattern in
  let vertices = List.init n Fun.id in
  let ways = chain_ways stats pattern in
  let summary = Statistics.summary stats in
  let streamed = List.fold_left (fun acc v -> acc +. stream_length stats pattern v) 0.0 vertices in
  let pushes = List.fold_left (fun acc v -> acc +. chain_nodes stats pattern ways v) 0.0 vertices in
  let solutions =
    List.fold_left
      (fun acc v ->
        if v = 0 || Pg.children pattern v <> [] then acc
        else
          acc
          +. List.fold_left (fun acc (k, w) -> acc +. (s_count summary k *. w)) 0.0 ways.(v)
             *. chain_selectivity pattern v)
      0.0 vertices
  in
  [| streamed; pushes; solutions |]

(* Binary semijoins: the candidate streams (a covered string predicate
   reads the content index instead of the tag stream), then a bottom-up
   and a top-down pass, each scanning both candidate lists of every arc:
   filtered streams on the way up, chain-reduced ones on the way down. *)
let binary_units stats pattern =
  let n = Pg.vertex_count pattern in
  let vertices = List.init n Fun.id in
  let ways = chain_ways stats pattern in
  let use_index = Binary_join.index_answerable pattern in
  let filtered v =
    if v = 0 then 1.0 else stream_length stats pattern v *. vertex_selectivity pattern v
  in
  let streamed =
    List.fold_left
      (fun acc v ->
        acc
        +.
        if use_index && (Pg.vertex pattern v).Pg.predicates <> [] then filtered v
        else stream_length stats pattern v)
      0.0 vertices
  in
  let scanned =
    List.fold_left
      (fun acc (s, t, _) ->
        acc +. filtered s +. filtered t
        +. chain_nodes stats pattern ways s
        +. chain_nodes stats pattern ways t)
      0.0 (Pg.arcs pattern)
  in
  [| streamed; scanned |]

let estimate_units stats pattern = function
  | Naive_nav -> navigation_units stats pattern
  | Nok_navigation -> nok_units stats pattern
  | Twig_join -> twig_units stats pattern
  | Binary_joins -> binary_units stats pattern

(* --- fitted time -------------------------------------------------------- *)

let fitted = function
  | Naive_nav -> Cost_weights.navigation
  | Nok_navigation -> Cost_weights.nok
  | Twig_join -> Cost_weights.twigstack
  | Binary_joins -> Cost_weights.binary

let cost_of_units engine units =
  List.fold_left ( +. ) 0.0 (List.mapi (fun i w -> w *. units.(i)) (fitted engine))

let estimate stats pattern engine = cost_of_units engine (estimate_units stats pattern engine)

let costs stats pattern =
  List.filter_map
    (fun e -> if supports pattern e then Some (e, estimate stats pattern e) else None)
    all_engines

(* --- plan-level cardinality estimation --------------------------------- *)

(* Legacy per-step estimate: base cardinality × average per-node fan-out of
   the (axis, test) relation, capped by the target tag's total count. Used
   when the path summary cannot answer (unknown context paths, upward or
   sideways axes) and for the PSUM before/after comparison. *)
let step_estimate_stats stats ~base_card (s : Lp.step) =
  let elements = Float.max 1.0 (float_of_int (Statistics.element_count stats)) in
  let label_total = function
    | Lp.Name n -> float_of_int (Statistics.tag_count stats n)
    | Lp.Any | Lp.Text_node | Lp.Node -> elements
  in
  let rel_estimate rel =
    let child =
      match s.Lp.test with
      | Lp.Name n -> Pg.Tag n
      | Lp.Any | Lp.Text_node | Lp.Node -> Pg.Wildcard
    in
    let pairs = Statistics.estimate_rel stats rel ~parent:Pg.Wildcard ~child in
    Float.min (base_card *. (pairs /. elements)) (label_total s.Lp.test)
  in
  match s.Lp.axis with
  | Xqp_algebra.Axis.Child -> rel_estimate Pg.Child
  | Xqp_algebra.Axis.Descendant | Xqp_algebra.Axis.Descendant_or_self ->
    rel_estimate Pg.Descendant
  | Xqp_algebra.Axis.Attribute -> rel_estimate Pg.Attribute
  | Xqp_algebra.Axis.Following_sibling | Xqp_algebra.Axis.Preceding_sibling ->
    rel_estimate Pg.Following_sibling
  | Xqp_algebra.Axis.Self -> base_card
  | Xqp_algebra.Axis.Parent | Xqp_algebra.Axis.Ancestor | Xqp_algebra.Axis.Ancestor_or_self ->
    base_card
  | Xqp_algebra.Axis.Following | Xqp_algebra.Axis.Preceding ->
    Float.min (base_card *. Statistics.avg_fanout stats) (label_total s.Lp.test)

let step_selectivity (s : Lp.step) =
  List.fold_left
    (fun acc p ->
      match (p : Lp.predicate) with
      | Lp.Value_pred vp -> acc *. Statistics.predicate_selectivity vp
      | Lp.Exists _ -> acc *. 0.5
      | Lp.Position _ -> acc)
    1.0 s.Lp.predicates

let step_test_selector = function
  | Lp.Name n -> Some (Ps.Label n)
  | Lp.Any -> Some Ps.Any_element
  | Lp.Text_node | Lp.Node -> None

let worse (a : Statistics.source) (b : Statistics.source) =
  match (a, b) with
  | Statistics.Stats, _ | _, Statistics.Stats -> Statistics.Stats
  | Statistics.Bound, _ | _, Statistics.Bound -> Statistics.Bound
  | Statistics.Exact, Statistics.Exact -> Statistics.Exact

(* Estimated output cardinality of each plan operator, the "est" column of
   [explain], with its provenance. The path-summary node set reachable by
   the plan is threaded through Root/Step/Tpm chains: while it is known,
   downward steps are answered exactly (summed path counts); predicates
   keep the set as a sound superset but degrade the source to [Bound]; any
   unprojectable axis drops to the legacy tag-pair estimator ([Stats]). *)
let m_summary_exact = Xqp_obs.Metrics.counter Xqp_obs.Metrics.default "cost.summary_exact"
let m_summary_bound = Xqp_obs.Metrics.counter Xqp_obs.Metrics.default "cost.summary_bound"
let m_summary_fallback = Xqp_obs.Metrics.counter Xqp_obs.Metrics.default "cost.summary_fallback"

let estimate_plan_detail stats ?(context_card = 1.0) ?(use_summary = true) plan =
  let summary = Statistics.summary stats in
  let anywhere = Statistics.anywhere_context stats in
  (* (cardinality, summary nodes reachable (sound superset) or None, source) *)
  let rec go plan =
    match (plan : Lp.t) with
    | Lp.Root ->
      (1.0, (if use_summary then Some [ Ps.super_root ] else None), Statistics.Exact)
    | Lp.Context -> (context_card, None, Statistics.Stats)
    | Lp.Union (a, b) ->
      let ca, pa, sa = go a and cb, pb, sb = go b in
      let paths =
        match (pa, pb) with
        | Some a', Some b' -> Some (List.sort_uniq compare (a' @ b'))
        | _ -> None
      in
      (ca +. cb, paths, worse sa sb)
    | Lp.Tpm (base, pattern) -> (
      let bcard, bpaths, bsrc = go base in
      if bcard <= 0.0 then
        (0.0, (if bsrc = Statistics.Exact then Some [] else None), bsrc)
      else if use_summary && Statistics.pattern_certainly_empty ~anywhere:true stats pattern
      then (0.0, Some [], Statistics.Exact)
      else
        match bpaths with
        | Some [ root ] when root = Ps.super_root ->
          let est, src = Statistics.estimate_result_detail stats pattern in
          let out_paths =
            match Pg.outputs pattern with
            | v :: _ -> Statistics.vertex_summary_nodes stats pattern v
            | [] -> None
          in
          (est, out_paths, worse bsrc src)
        | _ ->
          let est =
            if use_summary then Statistics.estimate_result stats pattern
            else Statistics.estimate_result_stats stats pattern
          in
          (est, None, Statistics.Stats))
    | Lp.Step (base, s) ->
      let bcard, bpaths, bsrc = go base in
      let selectivity = step_selectivity s in
      let positional = List.exists (function Lp.Position _ -> true | _ -> false) s.Lp.predicates in
      let cap card = if positional then Float.min card 1.0 else card in
      let fallback () =
        let from = if use_summary then Some anywhere else None in
        legacy ~from ~bcard s ~selectivity ~cap
      in
      if bcard <= 0.0 && bsrc = Statistics.Exact then (0.0, Some [], Statistics.Exact)
      else (
        match bpaths with
        | None -> fallback ()
        | Some ids -> (
          match project ids s with
          | None -> fallback ()
          | Some [] -> (0.0, Some [], Statistics.Exact)
          | Some ids' ->
            (* When the incoming cardinality is already below the incoming
               set's path count (upstream predicates), scale proportionally
               — exact bases have ratio 1, so pure downward chains stay
               exact. *)
            let base_total = Float.max 1.0 (float_of_int (Ps.total_count summary ids)) in
            let ratio = Float.min 1.0 (bcard /. base_total) in
            let card = float_of_int (Ps.total_count summary ids') *. ratio *. selectivity in
            let src =
              if selectivity < 1.0 || positional || ratio < 1.0 then Statistics.Bound
              else worse bsrc Statistics.Exact
            in
            (cap card, Some ids', src)))
  (* Project one navigation step over a known summary node set. *)
  and project ids (s : Lp.step) =
    match (s.Lp.axis, step_test_selector s.Lp.test) with
    | Xqp_algebra.Axis.Child, Some sel ->
      Some (Ps.matching_from summary ids [ { Ps.descendant = false; selector = sel } ])
    | Xqp_algebra.Axis.Descendant, Some sel ->
      Some (Ps.matching_from summary ids [ { Ps.descendant = true; selector = sel } ])
    | Xqp_algebra.Axis.Descendant_or_self, Some sel ->
      let below = Ps.matching_from summary ids [ { Ps.descendant = true; selector = sel } ] in
      let self =
        List.filter
          (fun id ->
            id <> Ps.super_root
            &&
            match sel with
            | Ps.Label n -> String.equal (Ps.label summary id) n
            | Ps.Any_element -> Ps.is_element_label (Ps.label summary id)
            | Ps.Any_attribute ->
              let l = Ps.label summary id in
              String.length l > 0 && l.[0] = '@')
          ids
      in
      Some (List.sort_uniq compare (self @ below))
    | Xqp_algebra.Axis.Attribute, _ ->
      let sel =
        match s.Lp.test with
        | Lp.Name n -> Some (Ps.Label ("@" ^ n))
        | Lp.Any -> Some Ps.Any_attribute
        | Lp.Text_node | Lp.Node -> None
      in
      Option.map
        (fun sel -> Ps.matching_from summary ids [ { Ps.descendant = false; selector = sel } ])
        sel
    | Xqp_algebra.Axis.Self, Some (Ps.Label n) ->
      Some (List.filter (fun id -> id <> Ps.super_root && String.equal (Ps.label summary id) n) ids)
    | Xqp_algebra.Axis.Self, Some Ps.Any_element -> Some ids
    | _ -> None
  (* No usable context path set: legacy estimate, but still use the summary
     for a document-wide emptiness check (sound from any context). *)
  and legacy ~from ~bcard s ~selectivity ~cap =
    let empty_anywhere =
      match from with
      | Some anywhere -> ( match project anywhere s with Some [] -> true | _ -> false)
      | None -> false
    in
    if empty_anywhere then (0.0, Some [], Statistics.Exact)
    else
      let card = step_estimate_stats stats ~base_card:bcard s *. selectivity in
      (cap card, None, Statistics.Stats)
  in
  let card, _, src = go plan in
  Xqp_obs.Metrics.incr
    (match src with
    | Statistics.Exact -> m_summary_exact
    | Statistics.Bound -> m_summary_bound
    | Statistics.Stats -> m_summary_fallback);
  (card, src)

let estimate_plan stats ?context_card ?use_summary plan =
  fst (estimate_plan_detail stats ?context_card ?use_summary plan)

let plan_certainly_empty stats plan =
  match estimate_plan_detail stats plan with
  | 0.0, Statistics.Exact -> true
  | _ -> false

(* The least estimated time among the engines that support the pattern
   (navigation supports every one). *)
let choose stats pattern =
  match costs stats pattern with
  | [] -> Naive_nav
  | first :: rest ->
    fst (List.fold_left (fun (be, bc) (e, c) -> if c < bc then (e, c) else (be, bc)) first rest)
