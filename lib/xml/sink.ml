(* [bytes.[start .. len - 1]] are the contents. The [head] bytes before
   the first append are kept free so a prefix computed after the body
   (an HTTP header) lands in front of it without moving it. *)
type t = {
  mutable bytes : Bytes.t;
  mutable start : int;
  mutable len : int;
  head : int;
  initial : int;
}

let create ?(head = 0) initial =
  let initial = max 16 initial in
  { bytes = Bytes.create (head + initial); start = head; len = head; head; initial }

let length s = s.len - s.start
let capacity s = Bytes.length s.bytes - s.head

let clear s =
  s.start <- s.head;
  s.len <- s.head

let reset s =
  s.bytes <- Bytes.create (s.head + s.initial);
  clear s

(* Room for [n] more bytes at the end, doubling the room after the head,
   so a sink created with a power-of-two size stays one. *)
let grow s n =
  let cap = ref (capacity s) in
  while s.len + n > s.head + !cap do
    cap := 2 * !cap
  done;
  let bytes = Bytes.create (s.head + !cap) in
  Bytes.blit s.bytes 0 bytes 0 s.len;
  s.bytes <- bytes

let add_char s c =
  if s.len >= Bytes.length s.bytes then grow s 1;
  Bytes.unsafe_set s.bytes s.len c;
  s.len <- s.len + 1

let add_substring s str off n =
  if s.len + n > Bytes.length s.bytes then grow s n;
  Bytes.unsafe_blit_string str off s.bytes s.len n;
  s.len <- s.len + n

let add_string s str = add_substring s str 0 (String.length str)

let prepend s str =
  let n = String.length str in
  if n > s.start then begin
    (* a prefix longer than the room left: move the contents up *)
    let shift = n - s.start in
    if s.len + shift > Bytes.length s.bytes then grow s shift;
    Bytes.blit s.bytes s.start s.bytes (s.start + shift) (length s);
    s.start <- s.start + shift;
    s.len <- s.len + shift
  end;
  s.start <- s.start - n;
  Bytes.blit_string str 0 s.bytes s.start n

let contents s = Bytes.sub_string s.bytes s.start (length s)

let send s write =
  let rec go pos =
    if pos < s.len then
      let written = write s.bytes pos (s.len - pos) in
      if written > 0 then go (pos + written)
  in
  go s.start
