type t = int array

let length = Array.length

(* Sort in place and keep the first of each run of equal elements. *)
let sort_uniq a =
  let n = Array.length a in
  if n = 0 then a
  else begin
    Array.sort Int.compare a;
    let w = ref 1 in
    for r = 1 to n - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    if !w = n then a else Array.sub a 0 !w
  end

let of_list l = sort_uniq (Array.of_list l)
let to_list = Array.to_list

(* A buffer is a table of fixed 128-element chunks: 128 words is the
   largest block the runtime allocates from its size-classed pools, so
   filling a buffer never allocates (and frees) a growing chain of large
   blocks; only [contents] allocates one array of the final size. *)
module Buffer = struct
  type set = t

  let chunk_bits = 7
  let chunk = 1 lsl chunk_bits

  type t = {
    mutable chunks : int array array;
    mutable len : int;
    mutable sorted : bool; (* strictly increasing so far *)
  }

  let create () = { chunks = [||]; len = 0; sorted = true }
  let get b i = b.chunks.(i lsr chunk_bits).(i land (chunk - 1))
  let length b = b.len
  let truncate b n = if n < b.len then b.len <- n

  let add b x =
    let len = b.len in
    let c = len lsr chunk_bits in
    if c = Array.length b.chunks then begin
      let table = Array.make (max 4 (2 * c)) [||] in
      Array.blit b.chunks 0 table 0 c;
      b.chunks <- table
    end;
    if Array.length b.chunks.(c) = 0 then b.chunks.(c) <- Array.make chunk 0;
    if len > 0 && x <= get b (len - 1) then b.sorted <- false;
    b.chunks.(c).(len land (chunk - 1)) <- x;
    b.len <- len + 1

  let contents b : set =
    let a = Array.init b.len (get b) in
    if b.sorted then a else sort_uniq a
end

let filter_sorted src keep =
  let n = Array.length src in
  let i = ref 0 in
  while !i < n && keep src.(!i) do
    incr i
  done;
  if !i = n then src
  else begin
    (* the first drop: from here on, collect what is kept *)
    let kept = Buffer.create () in
    for j = 0 to !i - 1 do
      Buffer.add kept src.(j)
    done;
    for j = !i + 1 to n - 1 do
      if keep src.(j) then Buffer.add kept src.(j)
    done;
    Buffer.contents kept
  end

(* First index in [l, h) whose element exceeds [lo]; [h] if none. *)
let rec search s l h lo =
  if l >= h then l
  else
    let mid = (l + h) lsr 1 in
    if s.(mid) <= lo then search s (mid + 1) h lo else search s l mid lo

let seek s i lo =
  let n = Array.length s in
  if i > 0 && s.(i - 1) > lo then search s 0 (i - 1) lo
  else if i < n && s.(i) <= lo then begin
    (* gallop forward, then search the last stride *)
    let step = ref 1 and j = ref (i + 1) in
    while !j < n && s.(!j) <= lo do
      step := 2 * !step;
      j := !j + !step
    done;
    search s (!j - !step + 1) (min !j n) lo
  end
  else i
