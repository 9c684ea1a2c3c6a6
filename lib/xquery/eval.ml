module Doc = Xqp_xml.Document
module Tree = Xqp_xml.Tree
module Value = Xqp_algebra.Value
module Env = Xqp_algebra.Env
module Ops = Xqp_algebra.Operators
module Executor = Xqp_physical.Executor

exception Error of string

let fail fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

let item_to_tree doc (item : Value.item) =
  match item with
  | Value.Node id -> (
    match Doc.kind doc id with
    | Doc.Attribute -> Tree.text (Doc.content doc id)
    | Doc.Text | Doc.Element | Doc.Comment | Doc.Pi -> Doc.to_tree doc id)
  | Value.Frag tree -> tree
  | atomic -> Tree.text (Value.string_of_item doc atomic)

let result_trees exec value = List.map (item_to_tree (Executor.doc exec)) value

let result_string exec value =
  String.concat "" (List.map (fun t -> Xqp_xml.Serializer.to_string t) (result_trees exec value))

(* Plans inside the AST have base Context and are re-evaluated once per
   FLWOR binding; the plan cache (keyed by the raw plan's fingerprint)
   makes the rewrite + planning a one-time cost per distinct path. *)
let run_path exec strategy deadline plan ~context =
  let nodes =
    Executor.execute exec ~strategy ~optimize:true ?deadline ~context (Executor.Plan plan)
  in
  (* the virtual document node may flow out of a bare "/" *)
  List.map
    (fun id -> if id = Ops.document_context then Doc.root (Executor.doc exec) else id)
    nodes
  |> List.sort_uniq compare

let number_or_fail doc item =
  match Value.number_of_item doc item with
  | Some f -> f
  | None -> fail "non-numeric value %S in arithmetic" (Value.string_of_item doc item)

let general_compare doc op (left : Value.t) (right : Value.t) =
  let cmp x y = Value.compare_items doc x y in
  let holds x y =
    match (op : Ast.binop) with
    | Ast.Eq -> Value.item_equal doc x y
    | Ast.Ne -> not (Value.item_equal doc x y)
    | Ast.Lt -> cmp x y < 0
    | Ast.Le -> cmp x y <= 0
    | Ast.Gt -> cmp x y > 0
    | Ast.Ge -> cmp x y >= 0
    | _ -> assert false
  in
  List.exists (fun x -> List.exists (fun y -> holds x y) right) left

(* [deadline] is checked at every expression node — FLWOR loops and
   quantifiers re-enter [eval] per binding, so a long evaluation hits a
   cooperative check even between path dispatches. *)
let rec eval exec ?(strategy = Executor.Auto) ?(bindings = []) ?deadline (expr : Ast.expr) :
    Value.t =
  Executor.check_deadline deadline;
  let doc = Executor.doc exec in
  let ev ?(bindings = bindings) e = eval exec ~strategy ~bindings ?deadline e in
  match expr with
  | Ast.Literal_int i -> [ Value.Int i ]
  | Ast.Literal_float f -> [ Value.Float f ]
  | Ast.Literal_string s -> [ Value.Str s ]
  | Ast.Sequence es -> List.concat_map (fun e -> ev e) es
  | Ast.Doc_root -> [ Value.Node (Doc.root doc) ]
  | Ast.Var v -> (
    match List.assoc_opt v bindings with
    | Some value -> value
    | None -> fail "unbound variable $%s" v)
  | Ast.Path (base, plan) ->
    let context =
      match base with
      | Ast.From_root -> [ Ops.document_context ]
      | Ast.From_context -> [ Ops.document_context ]
      | Ast.From_expr e ->
        let value = ev e in
        List.map
          (function
            | Value.Node id -> id
            | Value.Frag _ -> fail "navigation into constructed fragments is not supported"
            | other -> fail "cannot navigate from atomic value %S" (Value.string_of_item doc other))
          value
    in
    Value.of_nodes (run_path exec strategy deadline plan ~context)
  | Ast.Binop (op, a, b) -> eval_binop exec strategy bindings deadline doc op a b
  | Ast.If_then_else (c, t, e) ->
    if Value.effective_boolean doc (ev c) then ev t else ev e
  | Ast.Call (f, args) -> eval_call exec strategy bindings deadline doc f args
  | Ast.Constructor c -> [ Value.Frag (build_constructor exec strategy bindings deadline doc c) ]
  | Ast.Flwor f -> eval_flwor exec strategy bindings deadline doc f
  | Ast.Quantified (q, binds, cond) ->
    (* nested iteration over the bound sequences; some = ∃, every = ∀ *)
    let rec iterate bindings = function
      | [] -> Value.effective_boolean doc (eval exec ~strategy ~bindings ?deadline cond)
      | (v, e) :: rest ->
        let items = eval exec ~strategy ~bindings ?deadline e in
        let per item = iterate ((v, [ item ]) :: bindings) rest in
        (match q with
        | Ast.Some_q -> List.exists per items
        | Ast.Every_q -> List.for_all per items)
    in
    [ Value.Bool (iterate bindings binds) ]

and eval_binop exec strategy bindings deadline doc op a b =
  let ev e = eval exec ~strategy ~bindings ?deadline e in
  match op with
  | Ast.And ->
    [ Value.Bool (Value.effective_boolean doc (ev a) && Value.effective_boolean doc (ev b)) ]
  | Ast.Or ->
    [ Value.Bool (Value.effective_boolean doc (ev a) || Value.effective_boolean doc (ev b)) ]
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    [ Value.Bool (general_compare doc op (ev a) (ev b)) ]
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
    match (ev a, ev b) with
    | [], _ | _, [] -> []
    | [ x ], [ y ] ->
      let fx = number_or_fail doc x and fy = number_or_fail doc y in
      let result =
        match op with
        | Ast.Add -> fx +. fy
        | Ast.Sub -> fx -. fy
        | Ast.Mul -> fx *. fy
        | Ast.Div -> fx /. fy
        | Ast.Mod -> Float.rem fx fy
        | _ -> assert false
      in
      if Float.is_integer result && Float.abs result < 1e15 then [ Value.Int (int_of_float result) ]
      else [ Value.Float result ]
    | _ -> fail "arithmetic over multi-item sequences")

and eval_call exec strategy bindings deadline doc f args =
  let ev e = eval exec ~strategy ~bindings ?deadline e in
  let one name =
    match args with [ e ] -> ev e | _ -> fail "%s expects exactly one argument" name
  in
  match f with
  | "__union" -> (
    (* the | operator: node-set union in document order *)
    let both = List.concat_map (fun e -> ev e) args in
    match Value.doc_order both with
    | ordered -> ordered
    | exception Invalid_argument _ -> fail "operands of | must be node sequences")
  | "count" -> [ Value.Int (List.length (one "count")) ]
  | "exists" -> [ Value.Bool (one "exists" <> []) ]
  | "empty" -> [ Value.Bool (one "empty" = []) ]
  | "not" -> [ Value.Bool (not (Value.effective_boolean doc (one "not"))) ]
  | "string" -> (
    match one "string" with
    | [] -> [ Value.Str "" ]
    | [ item ] -> [ Value.Str (Value.string_of_item doc item) ]
    | _ -> fail "string over a multi-item sequence")
  | "number" -> (
    match one "number" with
    | [ item ] -> (
      match Value.number_of_item doc item with
      | Some n -> [ Value.Float n ]
      | None -> [ Value.Float Float.nan ])
    | _ -> [ Value.Float Float.nan ])
  | "data" -> List.map (fun item -> Value.Str (Value.string_of_item doc item)) (one "data")
  | "sum" ->
    let total =
      List.fold_left (fun acc item -> acc +. number_or_fail doc item) 0.0 (one "sum")
    in
    if Float.is_integer total then [ Value.Int (int_of_float total) ] else [ Value.Float total ]
  | "avg" -> (
    match one "avg" with
    | [] -> []
    | items ->
      let total = List.fold_left (fun acc item -> acc +. number_or_fail doc item) 0.0 items in
      [ Value.Float (total /. float_of_int (List.length items)) ])
  | "min" | "max" -> (
    match one f with
    | [] -> []
    | first :: rest ->
      let pick =
        if String.equal f "min" then fun x y -> if Value.compare_items doc x y <= 0 then x else y
        else fun x y -> if Value.compare_items doc x y >= 0 then x else y
      in
      [ List.fold_left pick first rest ])
  | "concat" ->
    [ Value.Str
        (String.concat ""
           (List.map
              (fun e ->
                match ev e with
                | [] -> ""
                | [ item ] -> Value.string_of_item doc item
                | _ -> fail "concat argument is a multi-item sequence")
              args)) ]
  | "contains" -> (
    match args with
    | [ a; b ] ->
      let to_str e =
        match ev e with [] -> "" | [ item ] -> Value.string_of_item doc item | _ -> fail "contains: sequence"
      in
      let haystack = to_str a and needle = to_str b in
      let hl = String.length haystack and nl = String.length needle in
      let rec scan i =
        i + nl <= hl && (String.equal (String.sub haystack i nl) needle || scan (i + 1))
      in
      [ Value.Bool (nl = 0 || scan 0) ]
    | _ -> fail "contains expects two arguments")
  | "string-length" -> (
    match one "string-length" with
    | [] -> [ Value.Int 0 ]
    | [ item ] -> [ Value.Int (String.length (Value.string_of_item doc item)) ]
    | _ -> fail "string-length: sequence")
  | "name" -> (
    match one "name" with
    | [ Value.Node id ] -> [ Value.Str (Doc.name doc id) ]
    | [ Value.Frag (Tree.Element e) ] -> [ Value.Str e.Tree.name ]
    | _ -> [ Value.Str "" ])
  | "distinct-values" ->
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun item ->
        let key = Value.string_of_item doc item in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (Value.Str key)
        end)
      (one "distinct-values")
  | "true" -> ( match args with [] -> [ Value.Bool true ] | _ -> fail "true() takes no arguments")
  | "false" -> ( match args with [] -> [ Value.Bool false ] | _ -> fail "false() takes no arguments")
  | "boolean" -> [ Value.Bool (Value.effective_boolean doc (one "boolean")) ]
  | "floor" | "ceiling" | "round" | "abs" -> (
    match one f with
    | [] -> []
    | [ item ] ->
      let x = number_or_fail doc item in
      let r =
        match f with
        | "floor" -> Float.floor x
        | "ceiling" -> Float.ceil x
        | "round" -> Float.round x
        | _ -> Float.abs x
      in
      if Float.is_integer r && Float.abs r < 1e15 then [ Value.Int (int_of_float r) ]
      else [ Value.Float r ]
    | _ -> fail "%s: sequence" f)
  | "upper-case" | "lower-case" | "normalize-space" -> (
    match one f with
    | [] -> [ Value.Str "" ]
    | [ item ] ->
      let s = Value.string_of_item doc item in
      let r =
        match f with
        | "upper-case" -> String.uppercase_ascii s
        | "lower-case" -> String.lowercase_ascii s
        | _ ->
          (* collapse runs of whitespace to single spaces and trim *)
          String.split_on_char ' ' (String.map (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c) s)
          |> List.filter (fun w -> w <> "")
          |> String.concat " "
      in
      [ Value.Str r ]
    | _ -> fail "%s: sequence" f)
  | "starts-with" | "ends-with" -> (
    match args with
    | [ a; b ] ->
      let str e =
        match ev e with [] -> "" | [ i ] -> Value.string_of_item doc i | _ -> fail "%s: sequence" f
      in
      let s = str a and p = str b in
      let sl = String.length s and pl = String.length p in
      let ok =
        if pl > sl then false
        else if String.equal f "starts-with" then String.equal (String.sub s 0 pl) p
        else String.equal (String.sub s (sl - pl) pl) p
      in
      [ Value.Bool ok ]
    | _ -> fail "%s expects two arguments" f)
  | "substring" -> (
    let str e =
      match ev e with [] -> "" | [ i ] -> Value.string_of_item doc i | _ -> fail "substring: sequence"
    in
    let num e =
      match ev e with
      | [ i ] -> number_or_fail doc i
      | _ -> fail "substring: numeric argument expected"
    in
    match args with
    | [ a; b ] | [ a; b; _ ] ->
      let s = str a in
      let n = String.length s in
      let start = int_of_float (Float.round (num b)) in
      let len =
        match args with
        | [ _; _; c ] -> int_of_float (Float.round (num c))
        | _ -> n - start + 1
      in
      (* 1-based start; clamp to the string *)
      let from = max 1 start in
      let until = min (n + 1) (start + len) in
      if until <= from then [ Value.Str "" ]
      else [ Value.Str (String.sub s (from - 1) (until - from)) ]
    | _ -> fail "substring expects 2 or 3 arguments")
  | "string-join" -> (
    match args with
    | [ a; b ] ->
      let sep =
        match ev b with [] -> "" | [ i ] -> Value.string_of_item doc i | _ -> fail "string-join: sep"
      in
      [ Value.Str (String.concat sep (List.map (Value.string_of_item doc) (ev a))) ]
    | _ -> fail "string-join expects two arguments")
  | other -> fail "unknown function %s()" other

and eval_flwor exec strategy bindings deadline doc f =
  (* Build the Env layer by layer (Definition 3), then evaluate the return
     clause once per total binding; order-by reorders the bindings. *)
  let ev_with bs e =
    eval exec ~strategy ~bindings:(bs @ bindings) ?deadline e
  in
  let env, order_keys =
    List.fold_left
      (fun (env, order_keys) clause ->
        match (clause : Ast.clause) with
        | Ast.For_clause (v, index, e) ->
          (Env.extend_for ?index env v (fun bs -> ev_with bs e), order_keys)
        | Ast.Let_clause (v, e) -> (Env.extend_let env v (fun bs -> ev_with bs e), order_keys)
        | Ast.Where_clause e ->
          ( Env.filter_where env (fun bs -> Value.effective_boolean doc (ev_with bs e)),
            order_keys )
        | Ast.Order_by keys -> (env, order_keys @ keys))
      (Env.empty, []) f.Ast.clauses
  in
  let paths = Env.paths env in
  let ordered =
    if order_keys = [] then paths
    else begin
      let key_of bs =
        List.map
          (fun (e, dir) ->
            let v = ev_with bs e in
            (v, dir))
          order_keys
      in
      let compare_keys k1 k2 =
        let rec go = function
          | [] -> 0
          | ((v1, dir), (v2, _)) :: rest ->
            let c =
              match (v1, v2) with
              | [], [] -> 0
              | [], _ -> -1
              | _, [] -> 1
              | x :: _, y :: _ -> Value.compare_items doc x y
            in
            let c = match (dir : Ast.sort_direction) with Ast.Ascending -> c | Ast.Descending -> -c in
            if c <> 0 then c else go rest
        in
        go (List.combine k1 k2)
      in
      List.stable_sort (fun b1 b2 -> compare_keys (key_of b1) (key_of b2)) paths
    end
  in
  List.concat_map (fun bs -> ev_with bs f.Ast.return_) ordered

and build_constructor exec strategy bindings deadline doc (c : Ast.constructor) =
  let ev e = eval exec ~strategy ~bindings ?deadline e in
  let attrs =
    List.map
      (fun (key, pieces) ->
        let value =
          String.concat ""
            (List.map
               (function
                 | Ast.Attr_text s -> s
                 | Ast.Attr_expr e ->
                   String.concat " " (List.map (Value.string_of_item doc) (ev e)))
               pieces)
        in
        (key, value))
      c.Ast.attrs
  in
  let children =
    List.concat_map
      (function
        | Ast.Fixed_text s -> [ Tree.text s ]
        | Ast.Nested nested -> [ build_constructor exec strategy bindings deadline doc nested ]
        | Ast.Embedded e -> List.map (item_to_tree doc) (ev e))
      c.Ast.content
  in
  Tree.elt ~attrs c.Ast.name children

let eval_query exec ?strategy ?deadline input =
  eval exec ?strategy ?deadline (Xq_parser.parse input)
