type t = { blob : string; offsets : int array (* length count+1; entry i .. i+1 delimits id i *) }
type builder = { buf : Buffer.t; mutable rev_offsets : int list; mutable n : int }

let builder () = { buf = Buffer.create 256; rev_offsets = [ 0 ]; n = 0 }

let add b s =
  let id = b.n in
  Buffer.add_string b.buf s;
  b.rev_offsets <- Buffer.length b.buf :: b.rev_offsets;
  b.n <- b.n + 1;
  id

let build b =
  { blob = Buffer.contents b.buf; offsets = Array.of_list (List.rev b.rev_offsets) }

let of_sections ~blob ~offsets =
  let count = Array.length offsets - 1 in
  if count < 0 || offsets.(0) <> 0 then invalid_arg "first offset is not 0";
  for id = 0 to count - 1 do
    if offsets.(id + 1) < offsets.(id) then invalid_arg "offsets decrease"
  done;
  if offsets.(count) <> String.length blob then invalid_arg "last offset does not close the blob";
  { blob; offsets }

let blob t = t.blob
let offsets t = t.offsets
let count t = Array.length t.offsets - 1

let get t id =
  if id < 0 || id >= count t then invalid_arg "Content_store.get";
  String.sub t.blob t.offsets.(id) (t.offsets.(id + 1) - t.offsets.(id))

let size_in_bytes t = String.length t.blob + (Array.length t.offsets * 8)

let splice t first n replacement =
  if first < 0 || n < 0 || first + n > count t then invalid_arg "Content_store.splice";
  let b = builder () in
  for id = 0 to first - 1 do
    ignore (add b (get t id))
  done;
  List.iter (fun s -> ignore (add b s)) replacement;
  for id = first + n to count t - 1 do
    ignore (add b (get t id))
  done;
  build b

let iter t f =
  for id = 0 to count t - 1 do
    f id (get t id)
  done
