type kind = Element | Attribute | Text | Comment | Pi
type node = int

(* The markup of one output flavour, per symbol id, built once per
   document: plain XML, or the same bytes escaped for the inside of a
   JSON string. *)
type flavour = {
  labels : string array; (* the name, as the writer prints it *)
  open_tags : string array; (* "<name" *)
  close_tags : string array; (* "</name>" *)
  attr_tags : string array; (* " name=\"" *)
  quote : string; (* around an attribute value *)
  text : Entity.escape;
  attr : Entity.escape;
  raw : Entity.escape;
}

let flavour ~json names =
  let labels = if json then Array.map (Entity.escape (Entity.json Entity.raw)) names else names in
  let quote = if json then "\\\"" else "\"" in
  {
    labels;
    open_tags = Array.map (fun l -> "<" ^ l) labels;
    close_tags = Array.map (fun l -> "</" ^ l ^ ">") labels;
    attr_tags = Array.map (fun l -> " " ^ l ^ "=" ^ quote) labels;
    quote;
    text = (if json then Entity.(json text) else Entity.text);
    attr = (if json then Entity.(json attr) else Entity.attr);
    raw = (if json then Entity.(json raw) else Entity.raw);
  }

type t = {
  symtab : Symtab.t;
  kinds : kind array;
  names : int array;
  parents : int array;
  first_children : int array;
  next_siblings : int array;
  sizes : int array;
  levels : int array;
  postorders : int array;
  contents : string array;
  by_name : node array array; (* symbol id -> nodes in document order *)
  n_elements : int;
  plain : flavour;
  json : flavour;
  escapes : Bytes.t;
      (* per node, whether its content needs escaping: '\000' not known
         yet, '\001' no, '\002' yes; filled by the writer *)
}

(* Number of packed nodes a Tree.t occupies (attributes count). *)
let rec packed_count tree =
  match tree with
  | Tree.Element e ->
    List.fold_left (fun acc c -> acc + packed_count c) (1 + List.length e.attrs) e.children
  | Tree.Text _ | Tree.Comment _ | Tree.Pi _ -> 1

module Builder = struct
  type builder = {
    symtab : Symtab.t;
    kinds : kind array;
    names : int array;
    parents : int array;
    first_children : int array;
    next_siblings : int array;
    sizes : int array;
    levels : int array;
    postorders : int array;
    contents : string array;
    mutable next_pre : int;
    mutable next_post : int;
    mutable open_id : int; (* innermost open node, -1 above the root *)
    mutable closed_id : int; (* most recently closed node, -1 before any *)
  }

  let create n =
    {
      symtab = Symtab.create ();
      kinds = Array.make n Element;
      names = Array.make n (-1);
      parents = Array.make n (-1);
      first_children = Array.make n (-1);
      next_siblings = Array.make n (-1);
      sizes = Array.make n 1;
      levels = Array.make n 0;
      postorders = Array.make n 0;
      contents = Array.make n "";
      next_pre = 0;
      next_post = 0;
      open_id = -1;
      closed_id = -1;
    }

  let intern b name = Symtab.intern b.symtab name

  let open_node b kind ~name content =
    let id = b.next_pre in
    if id >= Array.length b.kinds then invalid_arg "Document.Builder: more nodes than declared";
    b.next_pre <- id + 1;
    let p = b.open_id in
    b.kinds.(id) <- kind;
    b.names.(id) <- name;
    b.contents.(id) <- content;
    b.parents.(id) <- p;
    if p >= 0 then begin
      b.levels.(id) <- b.levels.(p) + 1;
      (* The node closed last is this node's previous sibling exactly when
         it shares the parent; otherwise this is the parent's first child. *)
      let c = b.closed_id in
      if c >= 0 && b.parents.(c) = p then b.next_siblings.(c) <- id
      else b.first_children.(p) <- id
    end;
    b.open_id <- id

  let close_node b =
    let id = b.open_id in
    if id < 0 then invalid_arg "Document.Builder: close without open";
    b.sizes.(id) <- b.next_pre - id;
    b.postorders.(id) <- b.next_post;
    b.next_post <- b.next_post + 1;
    b.closed_id <- id;
    b.open_id <- b.parents.(id)

  let finish b =
    let n = Array.length b.kinds in
    if b.next_pre <> n || b.open_id <> -1 then
      invalid_arg "Document.Builder: unbalanced or short node stream";
    (* Per-tag node lists, in document order. *)
    let tags = Symtab.cardinal b.symtab in
    let counts = Array.make tags 0 in
    let n_elements = ref 0 in
    for id = 0 to n - 1 do
      match b.kinds.(id) with
      | Element ->
        incr n_elements;
        counts.(b.names.(id)) <- counts.(b.names.(id)) + 1
      | Attribute -> counts.(b.names.(id)) <- counts.(b.names.(id)) + 1
      | Text | Comment | Pi -> ()
    done;
    let by_name = Array.init tags (fun sym -> Array.make counts.(sym) 0) in
    let names = Array.init tags (Symtab.name b.symtab) in
    let fill = Array.make tags 0 in
    for id = 0 to n - 1 do
      match b.kinds.(id) with
      | Element | Attribute ->
        let sym = b.names.(id) in
        by_name.(sym).(fill.(sym)) <- id;
        fill.(sym) <- fill.(sym) + 1
      | Text | Comment | Pi -> ()
    done;
    {
      symtab = b.symtab;
      kinds = b.kinds;
      names = b.names;
      parents = b.parents;
      first_children = b.first_children;
      next_siblings = b.next_siblings;
      sizes = b.sizes;
      levels = b.levels;
      postorders = b.postorders;
      contents = b.contents;
      by_name;
      n_elements = !n_elements;
      plain = flavour ~json:false names;
      json = flavour ~json:true names;
      escapes = Bytes.make n '\000';
    }
end

let of_tree tree =
  let b = Builder.create (packed_count tree) in
  let leaf kind ~name content =
    Builder.open_node b kind ~name content;
    Builder.close_node b
  in
  let rec pack = function
    | Tree.Text s -> leaf Text ~name:(-1) s
    | Tree.Comment s -> leaf Comment ~name:(-1) s
    | Tree.Pi (target, body) -> leaf Pi ~name:(Builder.intern b target) body
    | Tree.Element e ->
      Builder.open_node b Element ~name:(Builder.intern b e.name) "";
      List.iter (fun (key, value) -> leaf Attribute ~name:(Builder.intern b key) value) e.attrs;
      List.iter pack e.children;
      Builder.close_node b
  in
  pack tree;
  Builder.finish b

let of_string ?strip s = of_tree (Xml_parser.parse_string ?strip s)
let root (_ : t) = 0
let node_count doc = Array.length doc.kinds
let symtab doc = doc.symtab
let kind doc id = doc.kinds.(id)
let name_id doc id = doc.names.(id)

let name doc id =
  match doc.kinds.(id) with
  | Element | Attribute | Pi -> doc.plain.labels.(doc.names.(id))
  | Text -> "#text"
  | Comment -> "#comment"

let content doc id = doc.contents.(id)
let parent doc id = if doc.parents.(id) = -1 then None else Some doc.parents.(id)
let first_child doc id = if doc.first_children.(id) = -1 then None else Some doc.first_children.(id)

let next_sibling doc id =
  if doc.next_siblings.(id) = -1 then None else Some doc.next_siblings.(id)


let first_content_child doc id =
  let rec skip child =
    if child = -1 then None
    else if doc.kinds.(child) = Attribute then skip doc.next_siblings.(child)
    else Some child
  in
  skip doc.first_children.(id)

let prev_sibling doc id =
  match doc.parents.(id) with
  | -1 -> None
  | p ->
    let rec walk child prev =
      if child = id then prev else walk doc.next_siblings.(child) (Some child)
    in
    walk doc.first_children.(p) None

let level doc id = doc.levels.(id)
let subtree_size doc id = doc.sizes.(id)
let subtree_end doc id = id + doc.sizes.(id) - 1
let postorder doc id = doc.postorders.(id)
let is_ancestor doc a d = a < d && d <= subtree_end doc a
let is_parent doc p c = doc.parents.(c) = p

let iter_children doc id f =
  let rec loop child =
    if child <> -1 then begin
      if doc.kinds.(child) <> Attribute then f child;
      loop doc.next_siblings.(child)
    end
  in
  loop doc.first_children.(id)

let children doc id =
  let acc = ref [] in
  iter_children doc id (fun c -> acc := c :: !acc);
  List.rev !acc

let attributes doc id =
  let rec loop child acc =
    if child = -1 then List.rev acc
    else if doc.kinds.(child) = Attribute then loop doc.next_siblings.(child) (child :: acc)
    else List.rev acc (* attributes precede content children *)
  in
  loop doc.first_children.(id) []

let attribute_value doc id key =
  let rec find child =
    if child = -1 then None
    else if doc.kinds.(child) = Attribute then
      if String.equal (Symtab.name doc.symtab doc.names.(child)) key then Some doc.contents.(child)
      else find doc.next_siblings.(child)
    else None
  in
  find doc.first_children.(id)

let iter_descendants doc id f =
  let stop = subtree_end doc id in
  for d = id + 1 to stop do
    f d
  done

let fold_descendants doc id f init =
  let stop = subtree_end doc id in
  let rec loop acc d = if d > stop then acc else loop (f acc d) (d + 1) in
  loop init (id + 1)

let text_content doc id =
  match doc.kinds.(id) with
  | Text | Attribute -> doc.contents.(id)
  | Comment | Pi -> ""
  | Element ->
    let stop = subtree_end doc id in
    (* one text child and nothing else: its own string, no copy *)
    if stop = id + 1 && doc.kinds.(stop) = Text then doc.contents.(stop)
    else
    let buffer = Buffer.create 32 in
    for d = id + 1 to stop do
      if doc.kinds.(d) = Text then Buffer.add_string buffer doc.contents.(d)
    done;
    Buffer.contents buffer

let typed_value = text_content

let nodes_by_name_array doc sym =
  if sym < 0 || sym >= Array.length doc.by_name then [||] else doc.by_name.(sym)

let nodes_by_name doc sym = Array.to_list (nodes_by_name_array doc sym)
let element_count doc = doc.n_elements

let rec to_tree doc id =
  match doc.kinds.(id) with
  | Text -> Tree.Text doc.contents.(id)
  | Comment -> Tree.Comment doc.contents.(id)
  | Pi -> Tree.Pi (name doc id, doc.contents.(id))
  | Attribute -> invalid_arg "Document.to_tree: attribute node"
  | Element ->
    let attrs = List.map (fun a -> (name doc a, doc.contents.(a))) (attributes doc id) in
    let children = List.map (to_tree doc) (children doc id) in
    Tree.Element { name = name doc id; attrs; children }

(* A node's own content under the escape [e]. Content that no escape
   touches goes out in one copy; the first write of a node scans it and
   keeps the answer in [doc.escapes]. Domains may race on that byte, but
   each one stores the same value, computed from immutable content. *)
let add_content sink doc e d =
  let s = doc.contents.(d) in
  match Bytes.unsafe_get doc.escapes d with
  | '\001' -> Sink.add_string sink s
  | '\002' -> Entity.add e sink s
  | _ ->
    if Entity.verbatim s then begin
      Bytes.unsafe_set doc.escapes d '\001';
      Sink.add_string sink s
    end
    else begin
      Bytes.unsafe_set doc.escapes d '\002';
      Entity.add e sink s
    end

(* One walk over the subtree's pre-order range: an element's attributes
   are the leaves right after it, and each content child's subtree ends
   where the next one starts. Like [to_tree], it leaves out an attribute
   that is not among the leading children of its owner. *)
let rec write_subtree f sink doc d =
  match doc.kinds.(d) with
  | Text ->
    add_content sink doc f.text d;
    d + 1
  | Comment ->
    Sink.add_string sink "<!--";
    add_content sink doc f.raw d;
    Sink.add_string sink "-->";
    d + 1
  | Pi ->
    Sink.add_string sink "<?";
    Sink.add_string sink f.labels.(doc.names.(d));
    Sink.add_char sink ' ';
    add_content sink doc f.raw d;
    Sink.add_string sink "?>";
    d + 1
  | Attribute -> d + 1
  | Element ->
    let sym = doc.names.(d) in
    Sink.add_string sink f.open_tags.(sym);
    let last = d + doc.sizes.(d) - 1 in
    let child = ref (d + 1) in
    while !child <= last && doc.kinds.(!child) = Attribute do
      Sink.add_string sink f.attr_tags.(doc.names.(!child));
      add_content sink doc f.attr !child;
      Sink.add_string sink f.quote;
      incr child
    done;
    if !child > last then Sink.add_string sink "/>"
    else begin
      Sink.add_char sink '>';
      while !child <= last do
        child := write_subtree f sink doc !child
      done;
      Sink.add_string sink f.close_tags.(sym)
    end;
    last + 1

let add_item ~json sink doc node =
  let f = if json then doc.json else doc.plain in
  match doc.kinds.(node) with
  | Attribute ->
    Sink.add_char sink '@';
    Sink.add_string sink f.labels.(doc.names.(node));
    Sink.add_char sink '=';
    Sink.add_string sink f.quote;
    add_content sink doc f.raw node;
    Sink.add_string sink f.quote
  | Text -> add_content sink doc f.raw node
  | Element | Comment | Pi -> ignore (write_subtree f sink doc node)

let pp_stats ppf doc =
  let n = node_count doc in
  let count k = Array.fold_left (fun acc k' -> if k' = k then acc + 1 else acc) 0 doc.kinds in
  let max_level = Array.fold_left max 0 doc.levels in
  Format.fprintf ppf "nodes=%d elements=%d attributes=%d texts=%d depth=%d tags=%d" n
    doc.n_elements (count Attribute) (count Text) max_level (Symtab.cardinal doc.symtab)

type arrays = {
  kinds : kind array;
  names : int array;
  sizes : int array;
  next_siblings : int array;
}

let arrays (doc : t) : arrays =
  { kinds = doc.kinds; names = doc.names; sizes = doc.sizes; next_siblings = doc.next_siblings }
