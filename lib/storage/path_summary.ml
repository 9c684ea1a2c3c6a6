(* DataGuide-style path summary (see the .mli). The canonical form — nodes in
   pre-order, siblings sorted by label — makes equality of two summaries plain
   array equality, which is what the Store_io load-time cross-check and the
   fsck invariants rely on. *)

type t = {
  labels : string array;
  parents : int array; (* -1 for root-level paths *)
  counts : int array;
  text_flags : bool array;
  child_lists : int list array; (* label-sorted *)
  root_list : int list;
  child_index : (int * string, int) Hashtbl.t; (* (parent | -1, label) -> id *)
}

let super_root = -1

let is_element_label l =
  String.length l = 0 || (l.[0] <> '@' && l.[0] <> '#' && l.[0] <> '?')

(* Derive navigation structures from canonical parallel arrays. Children are
   appended in array order, which is label-sorted order in canonical form. *)
let make ~labels ~parents ~counts ~text_flags =
  let n = Array.length labels in
  let child_lists = Array.make (max 1 n) [] in
  let roots = ref [] in
  let child_index = Hashtbl.create (max 16 n) in
  for i = n - 1 downto 0 do
    let p = parents.(i) in
    if p = super_root then roots := i :: !roots else child_lists.(p) <- i :: child_lists.(p);
    Hashtbl.replace child_index (p, labels.(i)) i
  done;
  { labels; parents; counts; text_flags; child_lists; root_list = !roots; child_index }

let length t = Array.length t.labels
let label t i = t.labels.(i)
let parent t i = t.parents.(i)
let count t i = t.counts.(i)
let has_text t i = t.text_flags.(i)
let children t i = t.child_lists.(i)
let roots t = t.root_list

let node_path t i =
  let rec up i acc = if i = super_root then acc else up t.parents.(i) (t.labels.(i) :: acc) in
  up i []

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  let rec go indent id =
    Format.fprintf fmt "%s%s  count=%d%s@," indent t.labels.(id) t.counts.(id)
      (if t.text_flags.(id) then " text" else "");
    List.iter (go (indent ^ "  ")) t.child_lists.(id)
  in
  List.iter (go "") t.root_list;
  Format.fprintf fmt "@]"

(* --- construction ------------------------------------------------------- *)

module Builder = struct
  type builder = {
    mutable b_labels : string array;
    mutable b_parents : int array;
    mutable b_counts : int array;
    mutable b_texts : bool array;
    mutable b_len : int;
    b_index : (int * string, int) Hashtbl.t;
    mutable b_stack : int list; (* summary id per open node; -2 = non-path *)
  }

  let non_path = -2

  let create () =
    {
      b_labels = Array.make 16 "";
      b_parents = Array.make 16 0;
      b_counts = Array.make 16 0;
      b_texts = Array.make 16 false;
      b_len = 0;
      b_index = Hashtbl.create 64;
      b_stack = [];
    }

  let grow b =
    let cap = Array.length b.b_labels in
    if b.b_len = cap then begin
      let resize a fill = Array.append a (Array.make cap fill) in
      b.b_labels <- resize b.b_labels "";
      b.b_parents <- resize b.b_parents 0;
      b.b_counts <- resize b.b_counts 0;
      b.b_texts <- resize b.b_texts false
    end

  let enter b parent lab =
    match Hashtbl.find_opt b.b_index (parent, lab) with
    | Some id ->
        b.b_counts.(id) <- b.b_counts.(id) + 1;
        id
    | None ->
        grow b;
        let id = b.b_len in
        b.b_len <- id + 1;
        b.b_labels.(id) <- lab;
        b.b_parents.(id) <- parent;
        b.b_counts.(id) <- 1;
        Hashtbl.replace b.b_index (parent, lab) id;
        id

  (* Like [enter] but adds a whole pre-counted subpopulation at once — the
     grafting primitive behind [merge]. *)
  let add b parent lab ~count ~text =
    let id =
      match Hashtbl.find_opt b.b_index (parent, lab) with
      | Some id ->
          b.b_counts.(id) <- b.b_counts.(id) + count;
          id
      | None ->
          grow b;
          let id = b.b_len in
          b.b_len <- id + 1;
          b.b_labels.(id) <- lab;
          b.b_parents.(id) <- parent;
          b.b_counts.(id) <- count;
          Hashtbl.replace b.b_index (parent, lab) id;
          id
    in
    if text then b.b_texts.(id) <- true;
    id

  let open_node b lab =
    let parent = match b.b_stack with top :: _ -> top | [] -> super_root in
    if parent = non_path then b.b_stack <- non_path :: b.b_stack
    else if is_element_label lab || (String.length lab > 0 && lab.[0] = '@') then
      b.b_stack <- enter b parent lab :: b.b_stack
    else begin
      if String.equal lab "#text" && parent >= 0 then b.b_texts.(parent) <- true;
      b.b_stack <- non_path :: b.b_stack
    end

  let close_node b =
    match b.b_stack with
    | _ :: rest -> b.b_stack <- rest
    | [] -> failwith "Path_summary.Builder: close without open"

  (* Canonicalize: renumber into pre-order with siblings sorted by label. *)
  let finish b =
    if b.b_stack <> [] then failwith "Path_summary.Builder: unclosed node";
    let n = b.b_len in
    let raw_children = Array.make (max 1 n) [] in
    let raw_roots = ref [] in
    for i = n - 1 downto 0 do
      let p = b.b_parents.(i) in
      if p = super_root then raw_roots := i :: !raw_roots
      else raw_children.(p) <- i :: raw_children.(p)
    done;
    let by_label ids = List.sort (fun a b' -> String.compare b.b_labels.(a) b.b_labels.(b')) ids in
    let order = Array.make (max 1 n) (-1) in
    let next = ref 0 in
    let rec assign old =
      order.(old) <- !next;
      incr next;
      List.iter assign (by_label raw_children.(old))
    in
    List.iter assign (by_label !raw_roots);
    let labels = Array.make n "" and parents = Array.make n super_root in
    let counts = Array.make n 0 and text_flags = Array.make n false in
    for old = 0 to n - 1 do
      let i = order.(old) in
      labels.(i) <- b.b_labels.(old);
      parents.(i) <- (let p = b.b_parents.(old) in if p = super_root then super_root else order.(p));
      counts.(i) <- b.b_counts.(old);
      text_flags.(i) <- b.b_texts.(old)
    done;
    make ~labels ~parents ~counts ~text_flags
end

let of_document doc =
  let module Doc = Xqp_xml.Document in
  let b = Builder.create () in
  let n = Doc.node_count doc in
  let stack = ref [] in
  for id = 0 to n - 1 do
    while (match !stack with e :: _ -> e < id | [] -> false) do
      Builder.close_node b;
      stack := List.tl !stack
    done;
    let lab =
      match Doc.kind doc id with
      | Doc.Element -> Doc.name doc id
      | Doc.Attribute -> "@" ^ Doc.name doc id
      | Doc.Text -> "#text"
      | Doc.Comment -> "#comment"
      | Doc.Pi -> "#pi"
    in
    Builder.open_node b lab;
    stack := Doc.subtree_end doc id :: !stack
  done;
  List.iter (fun _ -> Builder.close_node b) !stack;
  Builder.finish b

(* --- merging ------------------------------------------------------------ *)

(* Union of path sets with summed counts and or'd text flags: graft every
   input tree into one builder, then canonicalize. The result is what
   [of_document] would produce over the concatenation of the inputs'
   documents, which is the invariant corpus fsck checks. *)
let merge ts =
  let b = Builder.create () in
  List.iter
    (fun t ->
      let rec graft parent id =
        let nid =
          Builder.add b parent t.labels.(id) ~count:t.counts.(id) ~text:t.text_flags.(id)
        in
        List.iter (graft nid) t.child_lists.(id)
      in
      List.iter (graft super_root) t.root_list)
    ts;
  Builder.finish b

(* Canonical form makes structural equality plain array equality. *)
let equal a b =
  a.labels = b.labels && a.parents = b.parents && a.counts = b.counts
  && a.text_flags = b.text_flags

(* --- path matching ------------------------------------------------------ *)

type selector = Label of string | Any_element | Any_attribute
type step = { descendant : bool; selector : selector }

let selector_matches t sel id =
  let l = t.labels.(id) in
  match sel with
  | Label s -> String.equal s l
  | Any_element -> is_element_label l
  | Any_attribute -> String.length l > 0 && l.[0] = '@'

let children_of t id = if id = super_root then t.root_list else t.child_lists.(id)

let matching_from t from steps =
  let n = max 1 (length t) in
  let apply current step =
    let seen = Array.make n false in
    let out = ref [] in
    let visit id =
      if not seen.(id) then begin
        seen.(id) <- true;
        if selector_matches t step.selector id then out := id :: !out
      end
    in
    if step.descendant then begin
      let visited = Array.make n false in
      let rec down id =
        List.iter
          (fun c ->
            if not visited.(c) then begin
              visited.(c) <- true;
              visit c;
              down c
            end)
          (children_of t id)
      in
      List.iter down current
    end
    else List.iter (fun id -> List.iter visit (children_of t id)) current;
    List.sort compare !out
  in
  List.fold_left apply (List.sort_uniq compare from) steps

let matching t steps = matching_from t [ super_root ] steps

let total_count t ids =
  List.fold_left (fun acc id -> acc + if id = super_root then 1 else t.counts.(id)) 0 ids

let descendant_or_self_set t ids =
  let marks = Array.make (max 1 (length t)) false in
  let rec down id =
    List.iter
      (fun c ->
        if not marks.(c) then begin
          marks.(c) <- true;
          down c
        end)
      (children_of t id)
  in
  List.iter
    (fun id ->
      if id = super_root then Array.fill marks 0 (Array.length marks) true
      else if not marks.(id) then begin
        marks.(id) <- true;
        down id
      end)
    ids;
  marks

let skip_labels t ~targets ~self =
  let allowed = Hashtbl.create 16 in
  let marked = Array.make (max 1 (length t)) false in
  let rec up id =
    if id >= 0 && not marked.(id) then begin
      marked.(id) <- true;
      Hashtbl.replace allowed t.labels.(id) ();
      up t.parents.(id)
    end
  in
  List.iter (fun tgt -> if tgt >= 0 then up (if self then tgt else t.parents.(tgt))) targets;
  fun lab -> not (Hashtbl.mem allowed lab)

(* --- per-node path ids -------------------------------------------------- *)

(* One pre-order pass: a node's path is its parent's path id extended by
   its own label, resolved through the summary's child index once per
   (parent path, symbol id, attribute?) key rather than per node. The
   same pass recounts every path and its text flag, so a summary that
   disagrees with the document is caught here, before anything plans off
   it. *)
let annotate ?leaves t doc =
  let module Doc = Xqp_xml.Document in
  let n = Doc.node_count doc and len = length t in
  let nsym = Xqp_xml.Symtab.cardinal (Doc.symtab doc) in
  let pids = Array.make n (-1) in
  let counts = Array.make len 0 and texts = Array.make len false in
  let resolved = Hashtbl.create 64 in
  let path_text parent lab = "/" ^ String.concat "/" (node_path t parent @ [ lab ]) in
  let lookup parent sym attribute =
    let key = ((((parent + 1) * nsym) + sym) * 2) + Bool.to_int attribute in
    match Hashtbl.find_opt resolved key with
    | Some sid -> sid
    | None ->
        let name = Xqp_xml.Symtab.name (Doc.symtab doc) sym in
        let lab = if attribute then "@" ^ name else name in
        let sid =
          match Hashtbl.find_opt t.child_index (parent, lab) with
          | Some sid -> sid
          | None -> failwith (Printf.sprintf "path %s not in summary" (path_text parent lab))
        in
        Hashtbl.add resolved key sid;
        sid
  in
  for id = 0 to n - 1 do
    let parent = match Doc.parent doc id with Some p -> pids.(p) | None -> super_root in
    match Doc.kind doc id with
    | (Doc.Element | Doc.Attribute) as kind ->
        let sid = lookup parent (Doc.name_id doc id) (kind = Doc.Attribute) in
        pids.(id) <- sid;
        counts.(sid) <- counts.(sid) + 1
    | (Doc.Text | Doc.Comment | Doc.Pi) as kind ->
        if parent >= 0 then begin
          if kind = Doc.Text then texts.(parent) <- true;
          match leaves with Some l -> l.(parent) <- l.(parent) + 1 | None -> ()
        end
  done;
  for i = 0 to len - 1 do
    let path () = path_text t.parents.(i) t.labels.(i) in
    if counts.(i) <> t.counts.(i) then
      failwith
        (Printf.sprintf "path %s: %d document nodes, summary count %d" (path ()) counts.(i)
           t.counts.(i));
    if texts.(i) <> t.text_flags.(i) then
      failwith (Printf.sprintf "path %s: text flag disagrees with the document" (path ()))
  done;
  pids

(* --- serialization ------------------------------------------------------ *)

type row = { r_parent : int; r_label : int; r_count : int; r_flags : int }

let flag_text = 1

let to_rows t ~label_id =
  Array.init (length t) (fun i ->
      {
        r_parent = t.parents.(i) + 1;
        r_label = label_id t.labels.(i);
        r_count = t.counts.(i);
        r_flags = (if t.text_flags.(i) then flag_text else 0);
      })

let of_rows rows ~label_of =
  let n = Array.length rows in
  let bad what = failwith (Printf.sprintf "Path_summary.of_rows: %s" what) in
  let labels = Array.make n "" and parents = Array.make n super_root in
  let counts = Array.make n 0 and text_flags = Array.make n false in
  let last_child = Hashtbl.create (max 16 n) in
  for i = 0 to n - 1 do
    let r = rows.(i) in
    if r.r_parent < 0 || r.r_parent > i then bad "parent order";
    if r.r_count < 1 then bad "non-positive count";
    if r.r_flags land lnot flag_text <> 0 then bad "unknown flags";
    let p = r.r_parent - 1 in
    let lab = label_of r.r_label in
    (match Hashtbl.find_opt last_child p with
    | Some prev when String.compare prev lab >= 0 -> bad "sibling sort order"
    | _ -> ());
    Hashtbl.replace last_child p lab;
    labels.(i) <- lab;
    parents.(i) <- p;
    counts.(i) <- r.r_count;
    text_flags.(i) <- r.r_flags land flag_text <> 0
  done;
  make ~labels ~parents ~counts ~text_flags
