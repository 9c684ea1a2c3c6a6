module Doc = Xqp_xml.Document

type item =
  | Node of Doc.node
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Frag of Xqp_xml.Tree.t
type t = item list

let empty = []
let singleton item = [ item ]
let of_nodes ids = List.map (fun id -> Node id) ids

let nodes seq =
  List.filter_map
    (function Node id -> Some id | Bool _ | Int _ | Float _ | Str _ | Frag _ -> None)
    seq

let string_of_item doc = function
  | Node id -> Doc.typed_value doc id
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f -> if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f) else string_of_float f
  | Str s -> s
  | Frag tree -> Xqp_xml.Tree.text_content tree

let number_of_item doc item =
  match item with
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Node _ | Str _ | Frag _ -> Pattern_graph.number_of_string (string_of_item doc item)

let effective_boolean (_ : Doc.t) seq =
  match seq with
  | [] -> false
  | Node _ :: _ | Frag _ :: _ -> true
  | [ Bool b ] -> b
  | [ Int i ] -> i <> 0
  | [ Float f ] -> f <> 0.0 && not (Float.is_nan f)
  | [ Str s ] -> String.length s > 0
  | _ :: _ -> true

let item_equal doc a b =
  match (a, b) with
  | Node x, Node y -> x = y
  | _ ->
    (match (number_of_item doc a, number_of_item doc b) with
    | Some x, Some y -> x = y
    | _ -> String.equal (string_of_item doc a) (string_of_item doc b))

let compare_items doc a b =
  match (number_of_item doc a, number_of_item doc b) with
  | Some x, Some y -> Float.compare x y
  | _ -> String.compare (string_of_item doc a) (string_of_item doc b)

let doc_order seq =
  let ids =
    List.map
      (function
        | Node id -> id
        | Bool _ | Int _ | Float _ | Str _ | Frag _ -> invalid_arg "Value.doc_order: atomic item")
      seq
  in
  List.map (fun id -> Node id) (List.sort_uniq compare ids)

let pp doc ppf seq =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf item ->
         match item with
         | Node id -> Format.fprintf ppf "node:%d<%s>" id (Doc.name doc id)
         | other -> Format.pp_print_string ppf (string_of_item doc other)))
    seq
