type node_test = Name of string | Any | Text_node | Node

type predicate =
  | Value_pred of Pattern_graph.predicate
  | Exists of t
  | Position of int

and step = { axis : Axis.t; test : node_test; predicates : predicate list }

and t = Root | Context | Step of t * step | Tpm of t * Pattern_graph.t | Union of t * t

let step ?(predicates = []) axis test = { axis; test; predicates }

let of_steps ~base steps = List.fold_left (fun plan s -> Step (plan, s)) base steps

let steps_of plan =
  let rec unwind plan acc =
    match plan with
    | Step (base, s) -> unwind base (s :: acc)
    | (Root | Context) as base -> Some (base, acc)
    | Tpm _ | Union _ -> None
  in
  unwind plan []

let rec size = function
  | Root | Context -> 0
  | Step (base, s) ->
    size base + 1
    + List.fold_left
        (fun acc p -> match p with Exists sub -> acc + size sub | Value_pred _ | Position _ -> acc)
        0 s.predicates
  | Tpm (base, _) -> size base + 1
  | Union (a, b) -> size a + size b + 1

let rec tpm_count = function
  | Root | Context -> 0
  | Step (base, s) ->
    tpm_count base
    + List.fold_left
        (fun acc p ->
          match p with Exists sub -> acc + tpm_count sub | Value_pred _ | Position _ -> acc)
        0 s.predicates
  | Tpm (base, _) -> tpm_count base + 1
  | Union (a, b) -> tpm_count a + tpm_count b

let pp_test ppf = function
  | Name n -> Format.pp_print_string ppf n
  | Any -> Format.pp_print_string ppf "*"
  | Text_node -> Format.pp_print_string ppf "text()"
  | Node -> Format.pp_print_string ppf "node()"

let rec pp_predicate ppf = function
  | Value_pred p ->
    let op =
      match p.Pattern_graph.comparison with
      | Pattern_graph.Eq -> "="
      | Ne -> "!="
      | Lt -> "<"
      | Le -> "<="
      | Gt -> ">"
      | Ge -> ">="
      | Contains -> "contains"
    in
    (match p.Pattern_graph.literal with
    | Pattern_graph.Num n -> Format.fprintf ppf "[. %s %g]" op n
    | Pattern_graph.Str s -> Format.fprintf ppf "[. %s %S]" op s)
  | Exists sub -> Format.fprintf ppf "[%a]" pp sub
  | Position k -> Format.fprintf ppf "[%d]" k

and pp_step ppf s =
  (match s.axis with
  | Axis.Child -> Format.fprintf ppf "/"
  | Axis.Descendant -> Format.fprintf ppf "//"
  | Axis.Attribute -> Format.fprintf ppf "/@"
  | other -> Format.fprintf ppf "/%s::" (Axis.to_string other));
  pp_test ppf s.test;
  List.iter (pp_predicate ppf) s.predicates

and pp ppf = function
  | Root -> Format.pp_print_string ppf "root()"
  | Context -> Format.pp_print_string ppf "."
  | Step (base, s) ->
    (match base with Root -> () | other -> pp ppf other);
    pp_step ppf s
  | Tpm (base, pattern) ->
    (match base with Root -> () | other -> pp ppf other);
    Format.fprintf ppf "tpm(%a)" Pattern_graph.pp pattern
  | Union (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b

let op_label = function
  | Root -> "root"
  | Context -> "context"
  | Union _ -> "union"
  | Tpm (_, pattern) -> Format.asprintf "tau(%dv)" (Pattern_graph.vertex_count pattern)
  | Step (_, s) -> Format.asprintf "step %a" pp_step s

let rec equal a b =
  match (a, b) with
  | Root, Root | Context, Context -> true
  | Step (b1, s1), Step (b2, s2) ->
    equal b1 b2 && s1.axis = s2.axis && s1.test = s2.test
    && List.length s1.predicates = List.length s2.predicates
    && List.for_all2 predicate_equal s1.predicates s2.predicates
  | Tpm (b1, p1), Tpm (b2, p2) -> equal b1 b2 && Pattern_graph.equal p1 p2
  | Union (a1, b1), Union (a2, b2) -> equal a1 a2 && equal b1 b2
  | (Root | Context | Step _ | Tpm _ | Union _), _ -> false

and predicate_equal p1 p2 =
  match (p1, p2) with
  | Value_pred a, Value_pred b -> a = b
  | Position a, Position b -> a = b
  | Exists a, Exists b -> equal a b
  | (Value_pred _ | Position _ | Exists _), _ -> false

(* An injective textual encoding: every constructor gets a distinct tag
   and every variable-length field is delimited, so distinct plans cannot
   collide. [pp] is unsuitable as a key — it drops bases and renders
   distinct literals identically ([%g]). *)
let fingerprint plan =
  let buf = Buffer.create 128 in
  let add = Buffer.add_string buf in
  let add_test = function
    | Name n -> add (Printf.sprintf "n%S" n)
    | Any -> add "*"
    | Text_node -> add "#"
    | Node -> add "."
  in
  let add_value_pred p =
    (match p.Pattern_graph.comparison with
    | Pattern_graph.Eq -> add "eq"
    | Ne -> add "ne"
    | Lt -> add "lt"
    | Le -> add "le"
    | Gt -> add "gt"
    | Ge -> add "ge"
    | Contains -> add "ct");
    match p.Pattern_graph.literal with
    | Pattern_graph.Num n -> add (Printf.sprintf "n%h" n)
    | Pattern_graph.Str s -> add (Printf.sprintf "s%S" s)
  in
  let rec go = function
    | Root -> add "R"
    | Context -> add "C"
    | Step (base, s) ->
      add "S(";
      go base;
      add ";";
      add (Axis.to_string s.axis);
      add ":";
      add_test s.test;
      List.iter add_pred s.predicates;
      add ")"
    | Tpm (base, pattern) ->
      add "T(";
      go base;
      add ";";
      add (Pattern_graph.fingerprint pattern);
      add ")"
    | Union (a, b) ->
      add "U(";
      go a;
      add ",";
      go b;
      add ")"
  and add_pred = function
    | Value_pred p ->
      add "[v";
      add_value_pred p;
      add "]"
    | Exists sub ->
      add "[e";
      go sub;
      add "]"
    | Position k -> add (Printf.sprintf "[p%d]" k)
  in
  go plan;
  Buffer.contents buf

let compare a b = String.compare (fingerprint a) (fingerprint b)
