module Doc = Xqp_xml.Document

type rel = Child | Descendant | Attribute | Following_sibling
type comparison = Eq | Ne | Lt | Le | Gt | Ge | Contains
type literal = Num of float | Str of string
type predicate = { comparison : comparison; literal : literal }
type label = Wildcard | Tag of string
type vertex = { label : label; predicates : predicate list; output : bool }

type t = {
  vertices : vertex array;
  arc_list : (int * int * rel) list;
  children : (int * rel) list array; (* adjacency, insertion order *)
  parents : (int * rel) option array;
}

let make ~vertices ~arcs =
  let n = Array.length vertices in
  if n = 0 then invalid_arg "Pattern_graph.make: no vertices";
  let children = Array.make n [] in
  let parents = Array.make n None in
  List.iter
    (fun (s, t, rel) ->
      if s < 0 || s >= n || t < 0 || t >= n then invalid_arg "Pattern_graph.make: bad arc";
      if parents.(t) <> None then invalid_arg "Pattern_graph.make: vertex has two parents";
      if t = 0 then invalid_arg "Pattern_graph.make: arc into the context vertex";
      parents.(t) <- Some (s, rel);
      children.(s) <- children.(s) @ [ (t, rel) ])
    arcs;
  (* Connectivity and acyclicity: every non-context vertex must reach 0. *)
  Array.iteri
    (fun v _ ->
      if v <> 0 then begin
        let rec climb u steps =
          if steps > n then invalid_arg "Pattern_graph.make: cycle"
          else
            match parents.(u) with
            | None -> if u <> 0 then invalid_arg "Pattern_graph.make: disconnected vertex"
            | Some (p, _) -> climb p (steps + 1)
        in
        climb v 0
      end)
    vertices;
  if not (Array.exists (fun v -> v.output) vertices) then
    invalid_arg "Pattern_graph.make: no output vertex";
  if vertices.(0).output then invalid_arg "Pattern_graph.make: context vertex cannot be output";
  { vertices; arc_list = arcs; children; parents }

let vertex_count t = Array.length t.vertices
let vertex t v = t.vertices.(v)
let children t v = t.children.(v)
let parent t v = t.parents.(v)
let root (_ : t) = 0

let outputs t =
  let acc = ref [] in
  Array.iteri (fun v vx -> if vx.output then acc := v :: !acc) t.vertices;
  List.rev !acc

let arcs t = t.arc_list

let is_nok t =
  List.for_all
    (fun (_, _, rel) ->
      match rel with Child | Attribute | Following_sibling -> true | Descendant -> false)
    t.arc_list

let vertex_path t v =
  let rec up v acc =
    match t.parents.(v) with
    | None -> acc
    | Some (p, rel) -> up p ((rel, t.vertices.(v).label) :: acc)
  in
  up v []

let vertices_in_document_order t =
  let rec walk v acc = List.fold_left (fun acc (c, _) -> walk c acc) (v :: acc) t.children.(v) in
  List.rev (walk 0 [])

let label_matches doc label node =
  match label with
  | Wildcard -> (
    match Doc.kind doc node with
    | Doc.Element | Doc.Attribute -> true
    | Doc.Text | Doc.Comment | Doc.Pi -> false)
  | Tag name -> (
    match Doc.kind doc node with
    | Doc.Element | Doc.Attribute -> String.equal (Doc.name doc node) name
    | Doc.Text | Doc.Comment | Doc.Pi -> false)

(* Does [needle] occur in [hay]? No substring copies. *)
let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec at i j = j = nl || (hay.[i + j] = needle.[j] && at i (j + 1)) in
  let rec scan i = i + nl <= hl && (at i 0 || scan (i + 1)) in
  scan 0

(* --- numbers ---------------------------------------------------------

   One reader for every value comparison. A string in the fast grammar —
   blanks, digits, optionally '.' and more digits, blanks — whose digits
   read as one integer m below 2^53 with at most 22 after the point is
   the exact quotient m / 10^f: both operands are exact doubles, so the
   one correctly rounded IEEE division gives the double nearest the
   decimal, which is what strtod returns (Clinger's fast path). Every
   other string (signs, exponents, '_', hex, nan/inf, long mantissas)
   goes to [float_of_string_opt] after [String.trim], the rule this
   reader reproduces bit for bit. *)

let exact_pow10 = Array.init 23 (fun i -> float_of_string ("1e" ^ string_of_int i))
let mantissa_limit = 1 lsl 53

(* The blanks [String.trim] removes. *)
let is_blank c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

(* A fast-grammar string as [m * 32 + f] (m the digits as one integer, f
   the digits after the point), or [-1]. Allocates nothing. *)
let fast_number s =
  let i = ref 0 and j = ref (String.length s) in
  while !i < !j && is_blank (String.unsafe_get s !i) do
    incr i
  done;
  while !j > !i && is_blank (String.unsafe_get s (!j - 1)) do
    decr j
  done;
  let m = ref 0 and point = ref (-1) and k = ref !i and ok = ref (!i < !j) in
  while !ok && !k < !j do
    let c = String.unsafe_get s !k in
    if c >= '0' && c <= '9' then begin
      m := (!m * 10) + (Char.code c - 48);
      ok := !m < mantissa_limit
    end
    else if c = '.' && !point < 0 && !k > !i && !k < !j - 1 then point := !k
    else ok := false;
    incr k
  done;
  let fraction = if !point < 0 then 0 else !j - !point - 1 in
  if !ok && fraction < Array.length exact_pow10 then (!m lsl 5) lor fraction else -1

let[@inline] fast_value code =
  Float.of_int (code lsr 5) /. Array.unsafe_get exact_pow10 (code land 31)

let number_of_string s =
  let code = fast_number s in
  if code >= 0 then Some (fast_value code) else float_of_string_opt (String.trim s)

(* [Float.compare] of the number [s] denotes with [n], or [not_a_number]
   when it denotes none: an immediate, so nothing is boxed. *)
let not_a_number = 2

let compare_number s n =
  let code = fast_number s in
  if code >= 0 then Float.compare (fast_value code) n
  else
    match float_of_string_opt (String.trim s) with
    | Some x -> Float.compare x n
    | None -> not_a_number

(* --- value predicates ------------------------------------------------ *)

(* The one comparison rule: [c] is a three-way comparison result. *)
let order_holds comparison c =
  match comparison with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0
  | Contains -> false

(* A numeric literal compares numerically; a value that is no number
   satisfies only [Ne]. A string literal compares as a string. *)
let predicate_holds_on pred value =
  match (pred.literal, pred.comparison) with
  | Str needle, Contains -> contains value needle
  | Str s, comparison -> order_holds comparison (String.compare value s)
  | Num _, Contains -> false
  | Num n, comparison ->
    let c = compare_number value n in
    if c = not_a_number then comparison = Ne else order_holds comparison c

let predicate_holds doc pred node = predicate_holds_on pred (Doc.typed_value doc node)

let vertex_matches doc t v node =
  let vx = t.vertices.(v) in
  let kind_ok =
    match t.parents.(v) with
    | Some (_, Attribute) -> Doc.kind doc node = Doc.Attribute
    | Some (_, (Child | Descendant | Following_sibling)) -> Doc.kind doc node = Doc.Element
    | None -> true (* context vertex: bound, not tested *)
  in
  kind_ok
  && label_matches doc vx.label node
  && List.for_all (fun pred -> predicate_holds doc pred node) vx.predicates

let path steps =
  if steps = [] then invalid_arg "Pattern_graph.path: empty";
  let n = List.length steps in
  let vertices =
    Array.make (n + 1) { label = Wildcard; predicates = []; output = false }
  in
  let arcs = ref [] in
  List.iteri
    (fun i (rel, label, predicates) ->
      vertices.(i + 1) <- { label; predicates; output = i = n - 1 };
      arcs := (i, i + 1, rel) :: !arcs)
    steps;
  make ~vertices ~arcs:(List.rev !arcs)

let pp_label ppf = function
  | Wildcard -> Format.pp_print_string ppf "*"
  | Tag name -> Format.pp_print_string ppf name

let pp_rel ppf = function
  | Child -> Format.pp_print_string ppf "/"
  | Descendant -> Format.pp_print_string ppf "//"
  | Attribute -> Format.pp_print_string ppf "/@"
  | Following_sibling -> Format.pp_print_string ppf "/fs::"

let pp_predicate ppf pred =
  let op =
    match pred.comparison with
    | Eq -> "="
    | Ne -> "!="
    | Lt -> "<"
    | Le -> "<="
    | Gt -> ">"
    | Ge -> ">="
    | Contains -> "contains"
  in
  match pred.literal with
  | Num n -> Format.fprintf ppf "[. %s %g]" op n
  | Str s -> Format.fprintf ppf "[. %s %S]" op s

let pp ppf t =
  let rec render ppf v =
    let vx = t.vertices.(v) in
    pp_label ppf vx.label;
    List.iter (pp_predicate ppf) vx.predicates;
    if vx.output then Format.pp_print_string ppf "{out}";
    List.iter
      (fun (c, rel) ->
        Format.fprintf ppf "[%a%a]" pp_rel rel render c)
      t.children.(v)
  in
  match t.children.(0) with
  | [ (only, rel) ] ->
    (* Common case: single spine below the context vertex. *)
    Format.fprintf ppf "%a%a" pp_rel rel render only
  | _ -> render ppf 0

let equal a b =
  a.vertices = b.vertices && a.arc_list = b.arc_list

let fingerprint t =
  let buf = Buffer.create 64 in
  let add = Buffer.add_string buf in
  let add_label = function
    | Wildcard -> add "*"
    | Tag name -> add (Printf.sprintf "t%S" name)
  in
  let add_pred p =
    (match p.comparison with
    | Eq -> add "eq"
    | Ne -> add "ne"
    | Lt -> add "lt"
    | Le -> add "le"
    | Gt -> add "gt"
    | Ge -> add "ge"
    | Contains -> add "ct");
    match p.literal with
    | Num n -> add (Printf.sprintf "n%h" n)
    | Str s -> add (Printf.sprintf "s%S" s)
  in
  Array.iter
    (fun vx ->
      add "v(";
      add_label vx.label;
      List.iter add_pred vx.predicates;
      if vx.output then add "!";
      add ")")
    t.vertices;
  List.iter
    (fun (s, d, rel) ->
      let r =
        match rel with Child -> "c" | Descendant -> "d" | Attribute -> "@" | Following_sibling -> "f"
      in
      add (Printf.sprintf "a(%d,%d,%s)" s d r))
    t.arc_list;
  Buffer.contents buf
