module Doc = Xqp_xml.Document
module SS = Set.Make (String)
module SM = Map.Make (String)

type entry = {
  children : SS.t;   (** child element names *)
  attrs : SS.t;      (** attribute names *)
}

type t = { elements : entry SM.t; roots : SS.t }

let empty = { elements = SM.empty; roots = SS.empty }
let empty_entry = { children = SS.empty; attrs = SS.empty }

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
          Some { children = SS.union ea.children eb.children; attrs = SS.union ea.attrs eb.attrs })
        a.elements b.elements;
    roots = SS.union a.roots b.roots;
  }

(* --- queries ----------------------------------------------------------- *)

let has_element t name = SM.mem name t.elements
let has_attribute t name = SM.exists (fun _ e -> SS.mem name e.attrs) t.elements
let roots t = SS.elements t.roots
let element_count t = SM.cardinal t.elements

let entry_of t name = SM.find_opt name t.elements

let child_of t ~parents name =
  List.exists
    (fun p -> match entry_of t p with None -> false | Some e -> SS.mem name e.children)
    parents

let attribute_on t ~parents name =
  List.exists
    (fun p -> match entry_of t p with None -> false | Some e -> SS.mem name e.attrs)
    parents

(* Element names reachable strictly below a seed set. *)
let closure t parents =
  let rec grow seen = function
    | [] -> seen
    | p :: rest -> (
      match entry_of t p with
      | None -> grow seen rest
      | Some e ->
        let fresh = SS.diff e.children seen in
        grow (SS.union seen fresh) (SS.elements fresh @ rest))
  in
  grow SS.empty parents

let descendant_of t ~parents name = SS.mem name (closure t parents)

let all_children t ~parents =
  SS.elements
    (List.fold_left
       (fun acc p -> match entry_of t p with None -> acc | Some e -> SS.union acc e.children)
       SS.empty parents)

let all_descendants t ~parents = SS.elements (closure t parents)

let pp ppf t =
  Format.fprintf ppf "@[<v>roots: %s@," (String.concat " " (SS.elements t.roots));
  SM.iter
    (fun name e ->
      Format.fprintf ppf "%s -> {%s}%s@," name
        (String.concat " " (SS.elements e.children))
        (if SS.is_empty e.attrs then ""
         else Printf.sprintf " @[%s]" (String.concat " " (SS.elements e.attrs))))
    t.elements;
  Format.fprintf ppf "@]"
