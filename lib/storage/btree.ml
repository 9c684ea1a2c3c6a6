(* Nodes are arrays kept sorted by key. A leaf stores parallel arrays of
   keys and postings (postings in reverse insertion order internally);
   an interior node stores separator keys k_1..k_m and children c_0..c_m,
   where subtree c_i holds keys in [k_i, k_{i+1}) (k_0 = -inf). *)

type leaf = {
  keys : string array;
  posts : int list array; (* reversed *)
  mutable nkeys : int;
  mutable next : leaf option; (* leaf chain, key order *)
}

type interior = {
  seps : string array;
  kids : node array;
  mutable nseps : int;
}

and node = Leaf of leaf | Interior of interior

type t = { fanout : int; mutable root : node; mutable distinct : int }

let new_leaf fanout = { keys = Array.make fanout ""; posts = Array.make fanout []; nkeys = 0; next = None }

let create ?(fanout = 64) () =
  if fanout < 4 then invalid_arg "Btree.create: fanout < 4";
  { fanout; root = Leaf (new_leaf fanout); distinct = 0 }

(* Index of the first key >= [key] in keys[0..n). *)
let lower_bound keys n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child index to descend into for [key]. *)
let child_index interior key =
  let lo = ref 0 and hi = ref interior.nseps in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare interior.seps.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

type split = No_split | Split of string * node (* separator, new right sibling *)

let insert_into_leaf t leaf key v =
  let i = lower_bound leaf.keys leaf.nkeys key in
  if i < leaf.nkeys && String.equal leaf.keys.(i) key then begin
    leaf.posts.(i) <- v :: leaf.posts.(i);
    No_split
  end
  else begin
    (* Shift right and insert. *)
    for j = leaf.nkeys downto i + 1 do
      leaf.keys.(j) <- leaf.keys.(j - 1);
      leaf.posts.(j) <- leaf.posts.(j - 1)
    done;
    leaf.keys.(i) <- key;
    leaf.posts.(i) <- [ v ];
    leaf.nkeys <- leaf.nkeys + 1;
    t.distinct <- t.distinct + 1;
    if leaf.nkeys < t.fanout then No_split
    else begin
      let mid = leaf.nkeys / 2 in
      let right = new_leaf t.fanout in
      right.nkeys <- leaf.nkeys - mid;
      Array.blit leaf.keys mid right.keys 0 right.nkeys;
      Array.blit leaf.posts mid right.posts 0 right.nkeys;
      (* Clear moved slots to avoid pinning strings. *)
      for j = mid to leaf.nkeys - 1 do
        leaf.keys.(j) <- "";
        leaf.posts.(j) <- []
      done;
      leaf.nkeys <- mid;
      right.next <- leaf.next;
      leaf.next <- Some right;
      Split (right.keys.(0), Leaf right)
    end
  end

let rec insert_into t node key v =
  match node with
  | Leaf leaf -> insert_into_leaf t leaf key v
  | Interior interior -> (
    let ci = child_index interior key in
    match insert_into t interior.kids.(ci) key v with
    | No_split -> No_split
    | Split (sep, right) ->
      (* Insert sep/right after position ci. *)
      if interior.nseps + 1 >= Array.length interior.seps then begin
        (* seps array sized fanout: we split before overflow below, so grow
           is never needed when arrays are allocated to fanout; defensive: *)
        ()
      end;
      for j = interior.nseps downto ci + 1 do
        interior.seps.(j) <- interior.seps.(j - 1);
        interior.kids.(j + 1) <- interior.kids.(j)
      done;
      interior.seps.(ci) <- sep;
      interior.kids.(ci + 1) <- right;
      interior.nseps <- interior.nseps + 1;
      if interior.nseps < t.fanout then No_split
      else begin
        let mid = interior.nseps / 2 in
        let up = interior.seps.(mid) in
        let right_node =
          {
            seps = Array.make (t.fanout + 1) "";
            kids = Array.make (t.fanout + 2) interior.kids.(0);
            nseps = interior.nseps - mid - 1;
          }
        in
        Array.blit interior.seps (mid + 1) right_node.seps 0 right_node.nseps;
        Array.blit interior.kids (mid + 1) right_node.kids 0 (right_node.nseps + 1);
        for j = mid to interior.nseps - 1 do
          interior.seps.(j) <- ""
        done;
        interior.nseps <- mid;
        Split (up, Interior right_node)
      end)

let insert t key v =
  match insert_into t t.root key v with
  | No_split -> ()
  | Split (sep, right) ->
    let seps = Array.make (t.fanout + 1) "" in
    let kids = Array.make (t.fanout + 2) t.root in
    seps.(0) <- sep;
    kids.(0) <- t.root;
    kids.(1) <- right;
    t.root <- Interior { seps; kids; nseps = 1 }

let rec find_leaf node key =
  match node with
  | Leaf leaf -> leaf
  | Interior interior -> find_leaf interior.kids.(child_index interior key) key

let find t key =
  let leaf = find_leaf t.root key in
  let i = lower_bound leaf.keys leaf.nkeys key in
  if i < leaf.nkeys && String.equal leaf.keys.(i) key then List.rev leaf.posts.(i) else []

let mem t key = find t key <> []

let rec leftmost_leaf = function
  | Leaf leaf -> leaf
  | Interior interior -> leftmost_leaf interior.kids.(0)

let fold_range t ?lo ?hi f init =
  let start_leaf = match lo with Some key -> find_leaf t.root key | None -> leftmost_leaf t.root in
  let within_hi key = match hi with Some h -> String.compare key h <= 0 | None -> true in
  let within_lo key = match lo with Some l -> String.compare key l >= 0 | None -> true in
  let rec walk_leaf leaf i acc =
    if i >= leaf.nkeys then
      match leaf.next with None -> acc | Some next -> walk_leaf next 0 acc
    else begin
      let key = leaf.keys.(i) in
      if not (within_hi key) then acc
      else if within_lo key then walk_leaf leaf (i + 1) (f acc key (List.rev leaf.posts.(i)))
      else walk_leaf leaf (i + 1) acc
    end
  in
  walk_leaf start_leaf 0 init

let range t ?lo ?hi () =
  List.rev (fold_range t ?lo ?hi (fun acc key posts -> (key, posts) :: acc) [])

let cardinal t = t.distinct

let rec node_height = function
  | Leaf _ -> 1
  | Interior interior -> 1 + node_height interior.kids.(0)

let height t = node_height t.root

let check_invariants t =
  let ok = ref true in
  let rec check node ~lo ~hi ~depth ~expected_depth =
    (match node with
    | Leaf leaf ->
      if depth <> expected_depth then ok := false;
      for i = 0 to leaf.nkeys - 1 do
        let key = leaf.keys.(i) in
        (match lo with Some l -> if String.compare key l < 0 then ok := false | None -> ());
        (match hi with Some h -> if String.compare key h >= 0 then ok := false | None -> ());
        if i > 0 && String.compare leaf.keys.(i - 1) key >= 0 then ok := false
      done
    | Interior interior ->
      if interior.nseps < 1 then ok := false;
      for i = 0 to interior.nseps - 1 do
        if i > 0 && String.compare interior.seps.(i - 1) interior.seps.(i) >= 0 then ok := false
      done;
      for i = 0 to interior.nseps do
        let child_lo = if i = 0 then lo else Some interior.seps.(i - 1) in
        let child_hi = if i = interior.nseps then hi else Some interior.seps.(i) in
        check interior.kids.(i) ~lo:child_lo ~hi:child_hi ~depth:(depth + 1) ~expected_depth
      done);
  in
  let expected_depth = height t in
  (match t.root with
  | Leaf _ -> ()
  | Interior _ ->
    check t.root ~lo:None ~hi:None ~depth:1 ~expected_depth);
  (* Leaf chain covers all keys in order. *)
  let chained =
    let rec collect leaf acc =
      let acc = ref acc in
      for i = 0 to leaf.nkeys - 1 do
        acc := leaf.keys.(i) :: !acc
      done;
      match leaf.next with None -> List.rev !acc | Some next -> collect next !acc
    in
    collect (leftmost_leaf t.root) []
  in
  if List.length chained <> t.distinct then ok := false;
  let rec sorted = function
    | a :: (b :: _ as rest) -> String.compare a b < 0 && sorted rest
    | _ -> true
  in
  if not (sorted chained) then ok := false;
  !ok

let of_seq ?fanout seq =
  let t = create ?fanout () in
  Seq.iter (fun (key, v) -> insert t key v) seq;
  t
