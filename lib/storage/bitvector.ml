(* Bits are stored LSB-first within bytes: bit [i] lives in byte [i/8] at
   mask [1 lsl (i mod 8)]. The payload is padded to a whole number of
   64-bit words (trailing bits masked to zero) so the hot paths can read
   full words unconditionally.

   Rank directory, two levels:
   - [super.(s)]: absolute count of set bits before 512-bit superblock [s]
     (length nsuper+1, the last entry being the total), and
   - [sub]: a 16-bit delta per 64-bit word — set bits between the word's
     superblock start and the word (at most 512, so it fits).

   [rank1] is O(1): one superblock read, one delta read, one masked word
   popcount. OCaml ints are 63-bit, so 64-bit words are popcounted as two
   32-bit halves with a SWAR kernel on native ints — no Int64 boxing. *)

let superblock_bytes = 64
let superblock_bits = superblock_bytes * 8

type t = {
  bits : Bytes.t; (* padded to a multiple of 8 bytes *)
  len : int; (* number of valid bits *)
  super : int array; (* rank1 before superblock s; last entry = total *)
  sub : Bytes.t; (* u16 per word: rank1 delta within the superblock *)
  total : int; (* pop_count *)
}

type builder = { mutable buf : Bytes.t; mutable blen : int }

let builder () = { buf = Bytes.make 64 '\000'; blen = 0 }

let ensure b bits_needed =
  let bytes_needed = ((b.blen + bits_needed) lsr 3) + 1 in
  if bytes_needed > Bytes.length b.buf then begin
    let cap = max bytes_needed (2 * Bytes.length b.buf) in
    let wider = Bytes.make cap '\000' in
    Bytes.blit b.buf 0 wider 0 (Bytes.length b.buf);
    b.buf <- wider
  end

let push b bit =
  ensure b 1;
  if bit then begin
    let i = b.blen in
    Bytes.unsafe_set b.buf (i lsr 3)
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b.buf (i lsr 3)) lor (1 lsl (i land 7))))
  end;
  b.blen <- b.blen + 1

(* Read up to 8 bits starting at [off] as an int (bit j of the result is
   bit off+j of the vector). The caller guarantees off+n <= len. *)
let read_bits_raw bits nbytes off n =
  let byte = off lsr 3 and sh = off land 7 in
  let lo = Char.code (Bytes.unsafe_get bits byte) lsr sh in
  let v =
    if sh + n <= 8 || byte + 1 >= nbytes then lo
    else lo lor (Char.code (Bytes.unsafe_get bits (byte + 1)) lsl (8 - sh))
  in
  v land ((1 lsl n) - 1)

(* Append the low [n] bits of [v] (n <= 8). *)
let push_bits b v n =
  ensure b n;
  let off = b.blen in
  let byte = off lsr 3 and sh = off land 7 in
  Bytes.unsafe_set b.buf byte
    (Char.unsafe_chr ((Char.code (Bytes.unsafe_get b.buf byte) lor ((v lsl sh) land 0xFF)) land 0xFF));
  if sh + n > 8 then
    Bytes.unsafe_set b.buf (byte + 1)
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get b.buf (byte + 1)) lor (v lsr (8 - sh))) land 0xFF));
  b.blen <- off + n

let push_many b bit k =
  if k > 0 then begin
    ensure b k;
    if not bit then
      (* the buffer past [blen] is already zero *)
      b.blen <- b.blen + k
    else begin
      let remaining = ref k in
      let head = (8 - (b.blen land 7)) land 7 in
      let h = min head !remaining in
      if h > 0 then begin
        push_bits b ((1 lsl h) - 1) h;
        remaining := !remaining - h
      end;
      let whole = !remaining lsr 3 in
      if whole > 0 then begin
        Bytes.fill b.buf (b.blen lsr 3) whole '\xFF';
        b.blen <- b.blen + (whole lsl 3);
        remaining := !remaining - (whole lsl 3)
      end;
      if !remaining > 0 then push_bits b ((1 lsl !remaining) - 1) !remaining
    end
  end

(* Popcount of one byte, precomputed. *)
let byte_pop = Array.init 256 (fun b ->
    let rec count b acc = if b = 0 then acc else count (b lsr 1) (acc + (b land 1)) in
    count b 0)

(* select_byte.(v*8 + k) = position of the k-th set bit of byte v. *)
let select_byte =
  let t = Bytes.make 2048 '\xFF' in
  for v = 0 to 255 do
    let k = ref 0 in
    for j = 0 to 7 do
      if v land (1 lsl j) <> 0 then begin
        Bytes.set t ((v lsl 3) + !k) (Char.chr j);
        incr k
      end
    done
  done;
  t

(* 32-bit little-endian read as a native int (no Int64 boxing). *)
let read32 bits off =
  Char.code (Bytes.unsafe_get bits off)
  lor (Char.code (Bytes.unsafe_get bits (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get bits (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get bits (off + 3)) lsl 24)

(* SWAR popcount of a 32-bit value held in a native int. *)
let pop32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  (x * 0x0101_0101) lsr 24 land 0xFF

let pop_word bits off = pop32 (read32 bits off) + pop32 (read32 bits (off + 4))

(* Freeze [len] bits into a fresh zero-filled payload padded to whole
   words: [fill bits nbytes] copies the [nbytes] payload bytes in, then
   the rank directory is computed over them. *)
let freeze len fill =
  let nbytes = (len + 7) lsr 3 in
  let padded = ((nbytes + 7) lsr 3) lsl 3 in
  let bits = Bytes.make padded '\000' in
  fill bits nbytes;
  (* Mask the trailing bits beyond [len]: with deterministic zero padding
     the representation is canonical, which makes [equal] a word compare
     and word popcounts exact. *)
  if len land 7 <> 0 then begin
    let keep = (1 lsl (len land 7)) - 1 in
    Bytes.set bits (nbytes - 1) (Char.chr (Char.code (Bytes.get bits (nbytes - 1)) land keep))
  end;
  let words = padded lsr 3 in
  let nsuper = (words + 7) lsr 3 in
  let super = Array.make (nsuper + 1) 0 in
  let sub = Bytes.make (2 * words) '\000' in
  let running = ref 0 in
  for w = 0 to words - 1 do
    if w land 7 = 0 then super.(w lsr 3) <- !running;
    Bytes.set_uint16_le sub (2 * w) (!running - super.(w lsr 3));
    running := !running + pop_word bits (w lsl 3)
  done;
  super.(nsuper) <- !running;
  { bits; len; super; sub; total = !running }

let build b = freeze b.blen (fun bits nbytes -> Bytes.blit b.buf 0 bits 0 nbytes)

let of_bools bools =
  let b = builder () in
  List.iter (push b) bools;
  build b

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvector.get";
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let byte t i =
  if i < 0 || i >= Bytes.length t.bits then invalid_arg "Bitvector.byte";
  Char.code (Bytes.unsafe_get t.bits i)

let unsafe_byte t i = Char.code (Bytes.unsafe_get t.bits i)
let raw_bytes t = t.bits

let rank1 t i =
  if i < 0 || i > t.len then invalid_arg "Bitvector.rank1";
  let w = i lsr 6 in
  if w lsl 3 >= Bytes.length t.bits then t.total
  else begin
    let base = t.super.(w lsr 3) + Bytes.get_uint16_le t.sub (2 * w) in
    let r = i land 63 in
    if r = 0 then base
    else begin
      let off = w lsl 3 in
      if r <= 32 then base + pop32 (read32 t.bits off land ((1 lsl r) - 1))
      else
        base + pop32 (read32 t.bits off)
        + pop32 (read32 t.bits (off + 4) land ((1 lsl (r - 32)) - 1))
    end
  end

let rank0 t i = i - rank1 t i
let pop_count t = t.total

(* Select the k-th (0-based) [count_bit] bit inside the word at byte
   offset [off]; the caller guarantees it is there. *)
let select_in_word t off k count_bit =
  let k = ref k in
  let b = ref 0 in
  let result = ref (-1) in
  while !result < 0 && !b < 8 do
    let v0 = Char.code (Bytes.unsafe_get t.bits (off + !b)) in
    let v = if count_bit then v0 else v0 lxor 0xFF in
    let pop = byte_pop.(v) in
    if pop <= !k then k := !k - pop
    else
      result :=
        ((off + !b) lsl 3) + Char.code (Bytes.unsafe_get select_byte ((v lsl 3) + !k));
    incr b
  done;
  !result

(* Binary-search the superblock directory, scan at most 8 word counts,
   finish with the select-in-byte table. For select0 the padding zeros
   past [len] inflate word counts, but every valid k addresses a real
   zero, which precedes all padding — the result stays in bounds. *)
let select_generic t k ~count_bit =
  if k < 0 then invalid_arg "Bitvector.select";
  let target = k + 1 in
  let total = if count_bit then t.total else t.len - t.total in
  if total < target then raise Not_found;
  let nsuper = Array.length t.super - 1 in
  let super_rank s =
    let bits_before = min t.len (s * superblock_bits) in
    if count_bit then t.super.(s) else bits_before - t.super.(s)
  in
  let lo = ref 0 and hi = ref nsuper in
  (* invariant: super_rank lo < target <= super_rank hi *)
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if super_rank mid < target then lo := mid else hi := mid
  done;
  let words = Bytes.length t.bits lsr 3 in
  let acc = ref (super_rank !lo) in
  let w = ref (!lo lsl 3) in
  let wend = min words (!w + 8) in
  let result = ref (-1) in
  while !result < 0 && !w < wend do
    let p = pop_word t.bits (!w lsl 3) in
    let wc = if count_bit then p else 64 - p in
    if !acc + wc < target then begin
      acc := !acc + wc;
      incr w
    end
    else result := select_in_word t (!w lsl 3) (target - !acc - 1) count_bit
  done;
  if !result < 0 then raise Not_found else !result

let select1 t k = select_generic t k ~count_bit:true
let select0 t k = select_generic t k ~count_bit:false

let size_in_bytes t =
  Bytes.length t.bits + (Array.length t.super * 8) + Bytes.length t.sub + 32

let append_slice b t off len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Bitvector.append_slice";
  let nbytes = (t.len + 7) lsr 3 in
  (* Byte-align the destination, then blit whole bytes when the source is
     also aligned; fall back to 8-bit chunks otherwise. *)
  let remaining = ref len and src = ref off in
  let chunk n =
    push_bits b (read_bits_raw t.bits nbytes !src n) n;
    src := !src + n;
    remaining := !remaining - n
  in
  let head = (8 - (b.blen land 7)) land 7 in
  if head > 0 && !remaining > 0 then chunk (min head !remaining);
  if !src land 7 = 0 && !remaining >= 8 then begin
    let whole = !remaining lsr 3 in
    ensure b (whole lsl 3);
    Bytes.blit t.bits (!src lsr 3) b.buf (b.blen lsr 3) whole;
    b.blen <- b.blen + (whole lsl 3);
    src := !src + (whole lsl 3);
    remaining := !remaining - (whole lsl 3)
  end;
  while !remaining > 0 do
    chunk (min 8 !remaining)
  done

let concat parts =
  let b = builder () in
  List.iter (fun part -> append_slice b part 0 part.len) parts;
  build b

let sub t off len =
  if off < 0 || len < 0 || off + len > t.len then invalid_arg "Bitvector.sub";
  let b = builder () in
  append_slice b t off len;
  build b

let of_packed_string s ~off ~len =
  if len < 0 || off < 0 || off + ((len + 7) lsr 3) > String.length s then
    invalid_arg "Bitvector.of_packed_string";
  freeze len (fun bits nbytes -> Bytes.blit_string s off bits 0 nbytes)

(* The representation is canonical (masked tail, zero padding, length-
   determined byte count), so equality is a word-wise payload compare. *)
let equal a b =
  a.len = b.len
  && begin
       let n = Bytes.length a.bits in
       let rec loop i =
         i >= n || (Bytes.get_int64_le a.bits i = Bytes.get_int64_le b.bits i && loop (i + 8))
       in
       loop 0
     end
