(* The NoK kernel: a pattern compiled, once per call, into loops over the
   document arrays. Fragments ([Nok_partition]) are matched bottom-up:
   each fragment root's candidates come from its tag stream, and a
   candidate survives when its local twig embeds below it. Local arcs are
   scans of pre-order ranges (children are [d + 1] then
   [subtree_end d + 1] onward); an existence branch stops at its first
   witness; a // link out of a vertex is a search in the target
   fragment's sorted root set, started where the previous one ended. A
   top-down pass then keeps the target roots below a surviving link
   source (one merge over sorted arrays) and the bindings whose fragment
   root survived. Nothing on a per-node path allocates: counts live in
   the kernel record, bindings go to [Node_set] buffers. A row limit
   stops the output's fragment early ([take_until], [Enough]). *)

module Doc = Xqp_xml.Document
module Ns = Xqp_xml.Node_set
module Pg = Xqp_algebra.Pattern_graph
module M = Xqp_obs.Metrics

type stats = { nodes_visited : int; fragment_matches : int; join_pairs : int }

(* Partitioning + link joins handle any twig, so NoK is total. *)
let supported (_ : Pg.t) = true

let m_nodes_visited = M.counter M.default "engine.nok.nodes_visited"
let m_fragment_matches = M.counter M.default "engine.nok.fragment_matches"
let m_join_pairs = M.counter M.default "engine.nok.join_pairs"
let m_pruned = M.counter M.default "engine.nok.pruned"
let m_predicate_tests = M.counter M.default "engine.nok.predicate_tests"

(* Name tests: a symbol id of the document, or one of these. *)
let any = -1
let absent = -2 (* the name does not occur in the document *)

(* Fragment roots are checked against the deadline once per this many
   candidates. *)
let deadline_every = 256

type kernel = {
  doc : Doc.t;
  kinds : Doc.kind array; (* the document's arrays, read in place *)
  names : int array;
  sizes : int array;
  next_siblings : int array;
  last : int; (* the last node id *)
  sym : int array;
  attr : bool array; (* the vertex binds attribute nodes *)
  preds : Pg.predicate list array;
  exists_arcs : (int * Pg.rel) list array; (* local arcs with nothing to bind below *)
  collect_arcs : (int * Pg.rel) list array; (* local arcs leading to a binding *)
  links : int list array; (* fragment roots a vertex's // links lead to *)
  roots : Ns.t array; (* per fragment root: its candidates that embed *)
  fingers : int array; (* per fragment root: the last index [links_ok] sought *)
  record : bool array; (* a binding to keep: interesting, not a fragment root *)
  found : Ns.Buffer.t array; (* per recorded vertex: its bindings ... *)
  owner : Ns.Buffer.t array; (* ... and the fragment-root node of each *)
  below : int list array; (* recorded vertices under a vertex, its fragment *)
  marks : int array array; (* rollback marks, for vertices with several collect arcs *)
  mutable stop_at : int; (* the output, when [limit] of one root's bindings end it; else -1 *)
  mutable limit : int; (* the row limit; [max_int] without one *)
  mutable root_start : int; (* [found.(stop_at)]'s length when this root began *)
  mutable root_node : int; (* the fragment-root candidate being matched *)
  mutable visited : int;
  mutable tested : int; (* value predicates evaluated *)
}

let end_of k n = if n < 0 then k.last else n + k.sizes.(n) - 1

(* The nodes one local arc reaches from [n], as a first/next pair over
   ids; [-1] ends. [stop] is [n]'s subtree end, read once per scan. The
   virtual document node ([n < 0]) has one child, the root element; an
   attribute has no following sibling. *)
let stop_of k n = if n < 0 then 0 else n + k.sizes.(n) - 1

let first k (rel : Pg.rel) n stop =
  if n < 0 then (match rel with Pg.Child -> 0 | _ -> -1)
  else
    match rel with
    | Pg.Child -> if n < stop then n + 1 else -1
    | Pg.Attribute -> if n < stop && k.kinds.(n + 1) = Doc.Attribute then n + 1 else -1
    | Pg.Following_sibling -> if k.kinds.(n) = Doc.Attribute then -1 else k.next_siblings.(n)
    | Pg.Descendant -> -1

let next k (rel : Pg.rel) stop d =
  match rel with
  | Pg.Child ->
    let d' = d + k.sizes.(d) in
    if d' <= stop then d' else -1
  | Pg.Attribute -> if d < stop && k.kinds.(d + 1) = Doc.Attribute then d + 1 else -1
  | Pg.Following_sibling -> k.next_siblings.(d)
  | Pg.Descendant -> -1

(* Raised once the current root has recorded [limit] output bindings and
   nothing recorded can be rolled back: the rest of that root's scans
   could only add later bindings. *)
exception Enough

let rec preds_hold k value = function
  | [] -> true
  | p :: rest ->
    k.tested <- k.tested + 1;
    Pg.predicate_holds_on p value && preds_hold k value rest

(* The vertex's own test: name (most scanned nodes fail here), node
   kind, value predicates. *)
let kind_ok k v d =
  match k.kinds.(d) with
  | Doc.Element -> not k.attr.(v)
  | Doc.Attribute -> k.attr.(v)
  | Doc.Text | Doc.Comment | Doc.Pi -> false

let preds_ok k v d =
  match k.preds.(v) with [] -> true | preds -> preds_hold k (Doc.typed_value k.doc d) preds

let node_ok k v d =
  (k.sym.(v) = any || k.names.(d) = k.sym.(v)) && kind_ok k v d && preds_ok k v d

(* Has every link target a root strictly below [n]? Sources are mostly
   met in document order, so each target's search starts where the last
   one ended. *)
let rec links_ok k n = function
  | [] -> true
  | dst :: rest ->
    let s = k.roots.(dst) in
    let i = Ns.seek s k.fingers.(dst) n in
    k.fingers.(dst) <- i;
    i < Ns.length s && (s :> int array).(i) <= end_of k n && links_ok k n rest

(* Existence: does vertex [v]'s local twig (nothing to bind in it) embed
   at [n]? *)
let rec sat k v n = arcs_exist k n k.exists_arcs.(v)

and arcs_exist k n = function
  | [] -> true
  | (c, rel) :: rest -> witness k c rel n && arcs_exist k n rest

and witness k c rel n =
  let stop = stop_of k n in
  let d = ref (first k rel n stop) and hit = ref false in
  while (not !hit) && !d >= 0 do
    k.visited <- k.visited + 1;
    if node_ok k c !d && sat k c !d then hit := true else d := next k rel stop !d
  done;
  !hit

(* Does [v]'s local twig and links embed at [n] (which passed [v]'s own
   test)? When it does, every recorded vertex below [v] has appended its
   bindings in those embeddings; when not, the buffers are as before. *)
let rec collect k v n =
  links_ok k n k.links.(v)
  && arcs_exist k n k.exists_arcs.(v)
  &&
  match k.collect_arcs.(v) with
  | [] -> true
  | [ (c, rel) ] -> scan k c rel n
  | arcs ->
    let marks = k.marks.(v) in
    save k marks k.below.(v);
    all_scan k n arcs || (restore k marks k.below.(v); false)

and all_scan k n = function
  | [] -> true
  | (c, rel) :: rest -> scan k c rel n && all_scan k n rest

(* Every node on the arc where [c] embeds, recorded; true if any. *)
and scan k c rel n =
  let stop = stop_of k n in
  let d = ref (first k rel n stop) and hit = ref false in
  let limited = c = k.stop_at in
  while !d >= 0 do
    let x = !d in
    k.visited <- k.visited + 1;
    if node_ok k c x && collect k c x then begin
      hit := true;
      if k.record.(c) then begin
        Ns.Buffer.add k.found.(c) x;
        Ns.Buffer.add k.owner.(c) k.root_node;
        if limited && Ns.Buffer.length k.found.(c) - k.root_start >= k.limit then
          raise_notrace Enough
      end
    end;
    d := next k rel stop x
  done;
  !hit

and save k marks = function
  | [] -> ()
  | u :: rest ->
    marks.(u) <- Ns.Buffer.length k.found.(u);
    save k marks rest

and restore k marks = function
  | [] -> ()
  | u :: rest ->
    Ns.Buffer.truncate k.found.(u) marks.(u);
    Ns.Buffer.truncate k.owner.(u) marks.(u);
    restore k marks rest

(* Nodes of [desc] strictly below some node of [anc]: one merge. Ancestor
   intervals nest or are disjoint, so [m] is covered exactly when the
   furthest subtree end among the ancestors starting before it reaches
   it. *)
let below_any k anc desc =
  let a = (anc : Ns.t :> int array) in
  if Array.length a > 0 && a.(0) < 0 then desc (* the virtual document node *)
  else begin
    let i = ref 0 and reach = ref min_int in
    Ns.filter_sorted (desc : Ns.t :> int array) (fun m ->
        while !i < Array.length a && a.(!i) < m do
          let e = end_of k a.(!i) in
          if e > !reach then reach := e;
          incr i
        done;
        !reach >= m)
  end

(* A recorded vertex's bindings whose fragment root is in [kept]. Owners
   were appended in increasing order, so this is one merge too. *)
let kept_bindings k v kept =
  let kept = (kept : Ns.t :> int array) in
  let out = Ns.Buffer.create () in
  let j = ref 0 in
  for i = 0 to Ns.Buffer.length k.found.(v) - 1 do
    let o = Ns.Buffer.get k.owner.(v) i in
    while !j < Array.length kept && kept.(!j) < o do
      incr j
    done;
    if !j < Array.length kept && kept.(!j) = o then Ns.Buffer.add out (Ns.Buffer.get k.found.(v) i)
  done;
  Ns.Buffer.contents out

let compile doc pattern (parts : Nok_partition.t) =
  let n = Pg.vertex_count pattern in
  let in_fragment = Array.make n (-1) and interesting = Array.make n false in
  let is_root = Array.make n false in
  List.iteri
    (fun fi (f : Nok_partition.fragment) ->
      is_root.(f.root) <- true;
      List.iter (fun v -> in_fragment.(v) <- fi) f.members;
      List.iter (fun v -> interesting.(v) <- true) f.interesting)
    parts.fragments;
  let local v =
    List.filter
      (fun (c, rel) -> rel <> Pg.Descendant && in_fragment.(c) = in_fragment.(v))
      (Pg.children pattern v)
  in
  (* interesting vertices strictly below [v] along local arcs *)
  let rec under v =
    List.concat_map (fun (c, _) -> (if interesting.(c) then [ c ] else []) @ under c) (local v)
  in
  let below = Array.init n under in
  let attr =
    Array.init n (fun v ->
        match Pg.parent pattern v with Some (_, Pg.Attribute) -> true | _ -> false)
  in
  let arrays = Doc.arrays doc in
  let binds c = interesting.(c) || below.(c) <> [] in
  let collect_arcs = Array.init n (fun v -> List.filter (fun (c, _) -> binds c) (local v)) in
  let record = Array.init n (fun v -> interesting.(v) && not is_root.(v)) in
  {
    doc;
    kinds = arrays.Doc.kinds;
    names = arrays.Doc.names;
    sizes = arrays.Doc.sizes;
    next_siblings = arrays.Doc.next_siblings;
    last = Doc.node_count doc - 1;
    sym =
      Array.init n (fun v ->
          match (Pg.vertex pattern v).Pg.label with
          | Pg.Wildcard -> any
          | Pg.Tag name -> (
            match Xqp_xml.Symtab.find_opt (Doc.symtab doc) name with
            | Some s -> s
            | None -> absent));
    attr;
    preds = Array.init n (fun v -> (Pg.vertex pattern v).Pg.predicates);
    exists_arcs = Array.init n (fun v -> List.filter (fun (c, _) -> not (binds c)) (local v));
    collect_arcs;
    links =
      Array.init n (fun v ->
          List.filter_map (fun (src, dst) -> if src = v then Some dst else None) parts.links);
    roots = Array.make n (Ns.of_list []);
    fingers = Array.make n 0;
    record;
    found = Array.init n (fun _ -> Ns.Buffer.create ());
    owner = Array.init n (fun _ -> Ns.Buffer.create ());
    below = Array.map (List.filter (fun u -> record.(u))) below;
    marks =
      Array.init n (fun v ->
          if List.compare_length_with collect_arcs.(v) 1 > 0 then Array.make n 0 else [||]);
    stop_at = -1;
    limit = max_int;
    root_start = 0;
    root_node = -1;
    visited = 0;
    tested = 0;
  }

(* Where a row limit can stop early: the fragment holding the single
   output, when it is the document fragment or hangs off vertex 0 under
   the document context. The top-down pass keeps every root of such a
   fragment, so a binding is final once its root has embedded. Inside
   one root, the scans stop after [limit] bindings when every vertex on
   the way down to the output has one binding arc, a child or attribute
   arc: then nothing recorded can be rolled back and the bindings arrive
   in document order, each once. *)
let limited_fragment k pattern (parts : Nok_partition.t) ~context =
  match Pg.outputs pattern with
  | [ out ] ->
    let f =
      List.find (fun (f : Nok_partition.fragment) -> List.mem out f.members) parts.fragments
    in
    let r = f.root in
    let rec one_path v =
      v = r
      ||
      match Pg.parent pattern v with
      | Some (p, (Pg.Child | Pg.Attribute)) ->
        List.compare_length_with k.collect_arcs.(p) 1 = 0 && one_path p
      | Some _ | None -> false
    in
    if r = 0 || (context = [ Xqp_algebra.Operators.document_context ] && List.mem (0, r) parts.links)
    then begin
      if out <> r && one_path out then k.stop_at <- out;
      Some (r, out)
    end
    else None
  | _ -> None

(* The limited fragment's roots: candidates [nth 0 .. count - 1], in
   document order, until the output holds [limit] distinct bindings that
   all precede the next candidate. A root's bindings all follow it, so no
   later root can enter the first [limit]; a nested later root can still
   precede an earlier root's bindings, hence the test against each next
   candidate. [least] holds the [limit] smallest bindings so far, sorted. *)
let take_until k ~root ~out count nth keep =
  let limit = k.limit in
  let least = Array.make limit max_int and have = ref 0 and seen = ref 0 in
  let note b =
    let n = !have in
    if n < limit || b < least.(n - 1) then begin
      let i = ref 0 in
      while !i < n && least.(!i) < b do
        incr i
      done;
      if !i = n || least.(!i) <> b then begin
        Array.blit least !i least (!i + 1) (min n (limit - 1) - !i);
        least.(!i) <- b;
        have := min limit (n + 1)
      end
    end
  in
  let kept = Ns.Buffer.create () and found = k.found.(out) in
  let i = ref 0 in
  while !i < count && not (!have = limit && least.(limit - 1) < nth !i) do
    let d = nth !i in
    k.root_start <- Ns.Buffer.length found;
    if (try keep d with Enough -> true) then begin
      Ns.Buffer.add kept d;
      if out = root then note d
    end;
    for j = !seen to Ns.Buffer.length found - 1 do
      note (Ns.Buffer.get found j)
    done;
    seen := Ns.Buffer.length found;
    incr i
  done;
  Ns.Buffer.contents kept

(* Fragments bottom-up (targets of a fragment's links before it), then
   top-down: the link joins narrow each fragment's roots to those below a
   surviving source, and a recorded vertex keeps the bindings whose root
   survived. *)
let match_pattern_with_stats ?prune ?deadline ?limit doc pattern ~context =
  let parts = Nok_partition.partition pattern in
  let k = compile doc pattern parts in
  let limited =
    match limit with
    | None -> None
    | Some l ->
      if l < 1 then invalid_arg "Nok.match_pattern: limit below 1";
      k.limit <- l;
      limited_fragment k pattern parts ~context
  in
  let pre = Pg.vertices_in_document_order pattern in
  let position = Array.make (Pg.vertex_count pattern) 0 in
  List.iteri (fun i v -> position.(v) <- i) pre;
  let fragments =
    List.sort
      (fun (a : Nok_partition.fragment) b -> compare position.(a.root) position.(b.root))
      parts.fragments
  in
  let candidates = ref 0 and pruned = ref 0 in
  let tick () =
    if !candidates land (deadline_every - 1) = 0 then Deadline.check deadline;
    incr candidates
  in
  List.iter
    (fun (f : Nok_partition.fragment) ->
      let r = f.root in
      (* every candidate the prune keeps is a visit *)
      let visit () =
        tick ();
        k.visited <- k.visited + 1
      in
      let embeds d =
        k.root_node <- d;
        collect k r d
      in
      (* the candidate stream ([None]: every node) and its test *)
      let stream, candidate =
        if r = 0 then
          ( Some (Ns.of_list context :> int array),
            fun c ->
              visit ();
              embeds c )
        else begin
          let keep = match prune with None -> None | Some p -> p r in
          (* a stream node carries the name: test the kind and values *)
          let candidate d =
            if match keep with None -> true | Some f -> f d then begin
              visit ();
              kind_ok k r d && preds_ok k r d && embeds d
            end
            else begin
              tick ();
              incr pruned;
              false
            end
          in
          if k.sym.(r) = any then (None, candidate)
          else if k.sym.(r) >= 0 then (Some (Doc.nodes_by_name_array doc k.sym.(r)), candidate)
          else (Some [||], candidate)
        end
      in
      k.roots.(r) <-
        (match (limited, stream) with
        | Some (root, out), Some s when root = r ->
          take_until k ~root ~out (Array.length s) (Array.get s) candidate
        | Some (root, out), None when root = r -> take_until k ~root ~out (k.last + 1) Fun.id candidate
        | _, Some s -> Ns.filter_sorted s candidate
        | _, None ->
          let out = Ns.Buffer.create () in
          for d = 0 to k.last do
            if candidate d then Ns.Buffer.add out d
          done;
          Ns.Buffer.contents out))
    (List.rev fragments);
  let fragment_matches =
    List.fold_left
      (fun acc (f : Nok_partition.fragment) -> acc + Ns.length k.roots.(f.root))
      0 fragments
  in
  let kept = Array.make (Pg.vertex_count pattern) (Ns.of_list []) in
  kept.(0) <- k.roots.(0);
  let join_pairs = ref 0 in
  List.iter
    (fun (f : Nok_partition.fragment) ->
      let r = f.root in
      let all = Ns.length kept.(r) = Ns.length k.roots.(r) in
      List.iter
        (fun v ->
          if k.record.(v) then
            kept.(v) <-
              (if all then Ns.Buffer.contents k.found.(v) else kept_bindings k v kept.(r)))
        f.interesting;
      List.iter
        (fun (src, dst) ->
          if List.mem src f.members then begin
            kept.(dst) <- below_any k kept.(src) k.roots.(dst);
            join_pairs := !join_pairs + Ns.length kept.(dst)
          end)
        parts.links)
    fragments;
  M.add m_nodes_visited k.visited;
  M.add m_fragment_matches fragment_matches;
  M.add m_join_pairs !join_pairs;
  if !pruned > 0 then M.add m_pruned !pruned;
  if k.tested > 0 then M.add m_predicate_tests k.tested;
  let output v =
    match limit with
    | Some l when Pg.outputs pattern = [ v ] ->
      let taken = ref 0 in
      (v, Ns.filter_sorted (kept.(v) :> int array) (fun _ -> incr taken; !taken <= l))
    | _ -> (v, kept.(v))
  in
  ( List.map output (Pg.outputs pattern),
    { nodes_visited = k.visited; fragment_matches; join_pairs = !join_pairs } )

let match_pattern ?prune ?deadline ?limit doc pattern ~context =
  fst (match_pattern_with_stats ?prune ?deadline ?limit doc pattern ~context)
