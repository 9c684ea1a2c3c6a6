module Doc = Xqp_xml.Document
module SS = Set.Make (String)
module SM = Map.Make (String)

type entry = {
  children : SS.t;   (** child element names *)
  attrs : SS.t;      (** attribute names *)
  open_ : bool;      (** content not statically known *)
}

type t = { elements : entry SM.t; roots : SS.t }

let empty = { elements = SM.empty; roots = SS.empty }
let empty_entry = { children = SS.empty; attrs = SS.empty; open_ = false }

let add_entry t name f =
  let prev = match SM.find_opt name t.elements with Some e -> e | None -> empty_entry in
  { t with elements = SM.add name (f prev) t.elements }

let add_child t parent child = add_entry t parent (fun e -> { e with children = SS.add child e.children })
let add_attr t parent attr = add_entry t parent (fun e -> { e with attrs = SS.add attr e.attrs })
let ensure t name = add_entry t name (fun e -> e)

(* --- sources ----------------------------------------------------------- *)

let of_document doc =
  let root = Doc.root doc in
  let acc = ref { empty with roots = SS.singleton (Doc.name doc root) } in
  acc := ensure !acc (Doc.name doc root);
  Doc.iter_descendants doc root (fun n ->
      if Doc.kind doc n = Doc.Element then begin
        let name = Doc.name doc n in
        acc := ensure !acc name;
        (match Doc.parent doc n with
        | Some p when Doc.kind doc p = Doc.Element -> acc := add_child !acc (Doc.name doc p) name
        | _ -> ());
        List.iter (fun a -> acc := add_attr !acc name (Doc.name doc a)) (Doc.attributes doc n)
      end);
  !acc

let merge a b =
  {
    elements =
      SM.union
        (fun _ ea eb ->
          Some
            {
              children = SS.union ea.children eb.children;
              attrs = SS.union ea.attrs eb.attrs;
              open_ = ea.open_ || eb.open_;
            })
        a.elements b.elements;
    roots = SS.union a.roots b.roots;
  }

(* --- queries ----------------------------------------------------------- *)

let has_element t name = SM.mem name t.elements
let has_attribute t name = SM.exists (fun _ e -> SS.mem name e.attrs) t.elements
let roots t = SS.elements t.roots
let element_count t = SM.cardinal t.elements

let entry_of t name = SM.find_opt name t.elements

let children_of t name =
  match entry_of t name with
  | None -> Some []
  | Some e -> if e.open_ then None else Some (SS.elements e.children)

let child_of t ~parents name =
  List.exists
    (fun p ->
      match entry_of t p with
      | None -> false
      | Some e -> e.open_ || SS.mem name e.children)
    parents

let attribute_on t ~parents name =
  List.exists
    (fun p ->
      match entry_of t p with
      | None -> false
      | Some e -> e.open_ || SS.mem name e.attrs)
    parents

(* Reachability below a seed set, open elements absorbing everything. *)
let closure t parents =
  let rec grow seen frontier open_hit =
    match frontier with
    | [] -> (seen, open_hit)
    | p :: rest -> (
      match entry_of t p with
      | None -> grow seen rest open_hit
      | Some e ->
        if e.open_ then grow seen rest true
        else
          let fresh = SS.diff e.children seen in
          grow (SS.union seen fresh) (SS.elements fresh @ rest) open_hit)
  in
  grow SS.empty parents false

let descendant_of t ~parents name =
  let reachable, open_hit = closure t parents in
  open_hit || SS.mem name reachable

let all_children t ~parents =
  let rec gather acc = function
    | [] -> Some (SS.elements acc)
    | p :: rest -> (
      match entry_of t p with
      | None -> gather acc rest
      | Some e -> if e.open_ then None else gather (SS.union acc e.children) rest)
  in
  gather SS.empty parents

let all_descendants t ~parents =
  let reachable, open_hit = closure t parents in
  if open_hit then None else Some (SS.elements reachable)

let pp ppf t =
  Format.fprintf ppf "@[<v>roots: %s@," (String.concat " " (SS.elements t.roots));
  SM.iter
    (fun name e ->
      Format.fprintf ppf "%s%s -> {%s}%s@," name
        (if e.open_ then " (open)" else "")
        (String.concat " " (SS.elements e.children))
        (if SS.is_empty e.attrs then ""
         else Printf.sprintf " @[%s]" (String.concat " " (SS.elements e.attrs))))
    t.elements;
  Format.fprintf ppf "@]"
