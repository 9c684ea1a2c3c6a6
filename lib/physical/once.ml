type 'a t = { lock : Mutex.t; value : 'a option Atomic.t; build : unit -> 'a }

let make build = { lock = Mutex.create (); value = Atomic.make None; build }
let of_value v = { lock = Mutex.create (); value = Atomic.make (Some v); build = (fun () -> v) }

let build t =
  Mutex.protect t.lock (fun () ->
      match Atomic.get t.value with
      | Some v -> v
      | None ->
        let v = t.build () in
        Atomic.set t.value (Some v);
        v)

(* Small enough to inline: a built cell costs one load and a match. *)
let force t = match Atomic.get t.value with Some v -> v | None -> build t
