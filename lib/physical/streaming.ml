module Pg = Xqp_algebra.Pattern_graph
module Sax = Xqp_xml.Sax

(* Chain shape: vertex i+1 is the unique child of vertex i. *)
let chain_of pattern =
  let rec walk v acc =
    match Pg.children pattern v with
    | [] -> Some (List.rev (v :: acc))
    | [ (c, _) ] -> walk c (v :: acc)
    | _ :: _ :: _ -> None
  in
  walk 0 []

let supported pattern =
  match chain_of pattern with
  | None -> false
  | Some chain ->
    let k = List.length chain in
    List.for_all
      (fun v ->
        match Pg.parent pattern v with
        | None -> true
        | Some (_, rel) -> (
          let vx = Pg.vertex pattern v in
          let is_last = List.nth chain (k - 1) = v in
          match rel with
          | Pg.Child | Pg.Descendant -> vx.Pg.predicates = []
          | Pg.Attribute -> is_last
          | Pg.Following_sibling -> false))
      chain
    && Pg.outputs pattern = [ List.nth chain (k - 1) ]

type frame = { activated : int list (* vertices activated at this element *) }

type matcher = {
  pattern : Pg.t;
  chain : int array; (* chain.(i) = vertex at chain position i *)
  mutable stack : frame list;
  active_count : int array; (* per vertex: active frames *)
  mutable counter : int; (* next pre-order rank *)
  mutable results : int list; (* reversed *)
  mutable events : int;
  attr_vertex : int option; (* trailing attribute vertex, if any *)
  output : int;
}

let create pattern =
  if not (supported pattern) then invalid_arg "Streaming.create: unsupported pattern";
  let chain = Array.of_list (Option.get (chain_of pattern)) in
  let n = Pg.vertex_count pattern in
  let last = chain.(Array.length chain - 1) in
  let attr_vertex =
    match Pg.parent pattern last with Some (_, Pg.Attribute) -> Some last | _ -> None
  in
  let active_count = Array.make n 0 in
  active_count.(0) <- 1;
  (* the virtual document frame *)
  {
    pattern;
    chain;
    stack = [ { activated = [ 0 ] } ];
    active_count;
    counter = 0;
    results = [];
    events = 0;
    attr_vertex;
    output = last;
  }

let label_matches_name label name =
  match (label : Pg.label) with Pg.Wildcard -> true | Pg.Tag t -> String.equal t name

let feed m event =
  m.events <- m.events + 1;
  match (event : Sax.event) with
  | Sax.Text _ | Sax.Comment _ | Sax.Pi _ -> m.counter <- m.counter + 1
  | Sax.End_element _ -> (
    match m.stack with
    | frame :: rest ->
      List.iter (fun v -> m.active_count.(v) <- m.active_count.(v) - 1) frame.activated;
      m.stack <- rest
    | [] -> ())
  | Sax.Start_element (name, attrs) ->
    let element_id = m.counter in
    m.counter <- m.counter + 1;
    let top = match m.stack with f :: _ -> f | [] -> { activated = [] } in
    (* Which chain vertices activate at this element? Computed against the
       state before this element is pushed. *)
    let activated = ref [] in
    Array.iter
      (fun v ->
        if v <> 0 then begin
          match Pg.parent m.pattern v with
          | Some (p, Pg.Child) ->
            if
              List.mem p top.activated
              && label_matches_name (Pg.vertex m.pattern v).Pg.label name
              && Some v <> m.attr_vertex
            then activated := v :: !activated
          | Some (p, Pg.Descendant) ->
            if
              m.active_count.(p) > 0
              && label_matches_name (Pg.vertex m.pattern v).Pg.label name
            then activated := v :: !activated
          | Some (_, (Pg.Attribute | Pg.Following_sibling)) | None -> ()
        end)
      m.chain;
    let activated = !activated in
    if List.mem m.output activated then m.results <- element_id :: m.results;
    (* Attribute leaf: the owner element must have just activated the
       next-to-last vertex. *)
    (match m.attr_vertex with
    | Some av ->
      let owner = match Pg.parent m.pattern av with Some (p, _) -> p | None -> 0 in
      let vx = Pg.vertex m.pattern av in
      List.iteri
        (fun i (key, value) ->
          if
            List.mem owner activated
            && label_matches_name vx.Pg.label key
            && List.for_all (fun pred -> Pg.predicate_holds_on pred value) vx.Pg.predicates
          then m.results <- (element_id + 1 + i) :: m.results)
        attrs
    | None -> ());
    (* Attributes consume pre-order ranks. *)
    m.counter <- m.counter + List.length attrs;
    List.iter (fun v -> m.active_count.(v) <- m.active_count.(v) + 1) activated;
    m.stack <- { activated } :: m.stack

let matches m = List.rev m.results
let events_processed m = m.events

let run_string pattern input =
  let m = create pattern in
  Sax.parse_string input (feed m);
  matches m
