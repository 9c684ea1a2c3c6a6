type value = Int of int | Float of float | Str of string | Bool of bool
type attr = string * value

type event = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  t0 : float;
  t1 : float;
  attrs : attr list;
}

type span = {
  s_id : int;
  s_parent : int;
  s_depth : int;
  s_name : string;
  s_t0 : float;
  mutable s_attrs : attr list;
  s_real : bool;
}

type t = {
  mutable on : bool;
  mutable epoch : float;
  capacity : int;
  ring : event option array;
  mutable head : int;  (* next write slot *)
  mutable count : int; (* valid entries, <= capacity *)
  mutable lost : int;
  mutable next_id : int;
  mutable stack : span list;
}

let null_span =
  { s_id = -1; s_parent = -1; s_depth = 0; s_name = ""; s_t0 = 0.0; s_attrs = []; s_real = false }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create";
  {
    on = false;
    epoch = Unix.gettimeofday ();
    capacity;
    ring = Array.make capacity None;
    head = 0;
    count = 0;
    lost = 0;
    next_id = 0;
    stack = [];
  }

let default = create ()

let set_enabled t flag = t.on <- flag
let enabled t = t.on

let clear t =
  Array.fill t.ring 0 t.capacity None;
  t.head <- 0;
  t.count <- 0;
  t.lost <- 0;
  t.next_id <- 0;
  t.stack <- [];
  t.epoch <- Unix.gettimeofday ()

let now t = Unix.gettimeofday () -. t.epoch

let start t ?(attrs = []) name =
  if not t.on then null_span
  else begin
    let parent, depth =
      match t.stack with [] -> (-1, 0) | top :: _ -> (top.s_id, top.s_depth + 1)
    in
    let span =
      {
        s_id = t.next_id;
        s_parent = parent;
        s_depth = depth;
        s_name = name;
        s_t0 = now t;
        s_attrs = attrs;
        s_real = true;
      }
    in
    t.next_id <- t.next_id + 1;
    t.stack <- span :: t.stack;
    span
  end

let add_attrs span attrs = if span.s_real then span.s_attrs <- span.s_attrs @ attrs

(* Ring overflow is silent by design (oldest events drop first); surface
   the loss in /metrics so operators can size the ring. Per-tracer counts
   stay queryable through [dropped]. *)
let m_dropped = Metrics.counter Metrics.default "trace.dropped"

let push t event =
  if t.count = t.capacity then begin
    t.lost <- t.lost + 1;
    Metrics.incr m_dropped
  end
  else t.count <- t.count + 1;
  t.ring.(t.head) <- Some event;
  t.head <- (t.head + 1) mod t.capacity

let record t span t1 =
  push t
    {
      id = span.s_id;
      parent = span.s_parent;
      depth = span.s_depth;
      name = span.s_name;
      t0 = span.s_t0;
      t1;
      attrs = span.s_attrs;
    }

let finish t span =
  if span.s_real then begin
    let t1 = now t in
    (* close any spans opened inside [span] that were never finished, so
       the recorded intervals always balance *)
    let rec pop = function
      | [] -> [] (* span not on the stack (tracer cleared meanwhile): drop *)
      | top :: rest ->
        if top.s_id = span.s_id then begin
          record t top t1;
          rest
        end
        else begin
          record t top t1;
          pop rest
        end
    in
    t.stack <- pop t.stack
  end

let with_span t ?attrs name f =
  if not t.on then f null_span
  else begin
    let span = start t ?attrs name in
    match f span with
    | result ->
      finish t span;
      result
    | exception e ->
      finish t span;
      raise e
  end

let events t =
  let out = ref [] in
  for i = 0 to t.capacity - 1 do
    match t.ring.(i) with Some e -> out := e :: !out | None -> ()
  done;
  List.sort (fun a b -> compare a.id b.id) !out

(* The new span takes the next id and each source's spans the ids after
   it, so parents still precede their children; times move from the
   source's epoch to this tracer's. *)
let graft t ?(attrs = []) name ~start ~stop sources =
  if t.on then begin
    let parent, depth =
      match t.stack with [] -> (-1, 0) | top :: _ -> (top.s_id, top.s_depth + 1)
    in
    let id = t.next_id in
    t.next_id <- id + 1;
    let t0 = ref (start -. t.epoch) and t1 = ref (stop -. t.epoch) in
    List.iter
      (fun src ->
        let base = t.next_id and shift = src.epoch -. t.epoch in
        List.iter
          (fun e ->
            let e =
              {
                e with
                id = base + e.id;
                parent = (if e.parent < 0 then id else base + e.parent);
                depth = depth + 1 + e.depth;
                t0 = e.t0 +. shift;
                t1 = e.t1 +. shift;
              }
            in
            t0 := Float.min !t0 e.t0;
            t1 := Float.max !t1 e.t1;
            push t e)
          (events src);
        t.next_id <- base + src.next_id)
      sources;
    push t { id; parent; depth; name; t0 = !t0; t1 = !t1; attrs }
  end

let dropped t = t.lost

let attr event key = List.assoc_opt key event.attrs

let attr_int event key =
  match attr event key with Some (Int i) -> Some i | _ -> None

let attr_str event key =
  match attr event key with Some (Str s) -> Some s | _ -> None

let duration_us event = (event.t1 -. event.t0) *. 1e6
