exception Bad_entity of string

(* Encode a Unicode scalar value as UTF-8 into [buffer]. *)
let add_utf8 buffer code =
  if code < 0 then raise (Bad_entity "negative character reference")
  else if code < 0x80 then Buffer.add_char buffer (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x110000 then begin
    Buffer.add_char buffer (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else raise (Bad_entity "character reference out of range")

let decode_ref buffer name =
  match name with
  | "amp" -> Buffer.add_char buffer '&'
  | "lt" -> Buffer.add_char buffer '<'
  | "gt" -> Buffer.add_char buffer '>'
  | "quot" -> Buffer.add_char buffer '"'
  | "apos" -> Buffer.add_char buffer '\''
  | _ ->
    if String.length name >= 2 && name.[0] = '#' then begin
      let number =
        if name.[1] = 'x' || name.[1] = 'X' then "0x" ^ String.sub name 2 (String.length name - 2)
        else String.sub name 1 (String.length name - 1)
      in
      match int_of_string_opt number with
      | Some code -> add_utf8 buffer code
      | None -> raise (Bad_entity ("&" ^ name ^ ";"))
    end
    else raise (Bad_entity ("&" ^ name ^ ";"))

let decode s =
  if not (String.contains s '&') then s
  else begin
    let n = String.length s in
    let buffer = Buffer.create n in
    let rec loop i =
      if i >= n then ()
      else if s.[i] <> '&' then begin
        Buffer.add_char buffer s.[i];
        loop (i + 1)
      end
      else begin
        match String.index_from_opt s i ';' with
        | None -> raise (Bad_entity "unterminated entity reference")
        | Some stop ->
          decode_ref buffer (String.sub s (i + 1) (stop - i - 1));
          loop (stop + 1)
      end
    in
    loop 0;
    Buffer.contents buffer
  end

(* --- escaping ----------------------------------------------------------- *)

(* One 256-entry class table drives every escape: a byte is plain under
   an escape when its class shares no bit with it, and runs of plain
   bytes go out with one [Sink.add_substring]. *)
type escape = int

let raw = 0
let text = 1 (* ampersand and angle brackets, in element content *)
let attr = 2 (* those and the double quote, in an attribute value *)
let json_string = 4 (* double quote, backslash, control bytes: JSON *)
let json e = e lor json_string
let any = text lor attr lor json_string

let classes =
  Bytes.init 256 (fun i ->
      Char.chr
        (match Char.chr i with
        | '&' | '<' | '>' -> text lor attr
        | '"' -> attr lor json_string
        | '\\' -> json_string
        | _ when i < 0x20 -> json_string
        | _ -> 0))

(* The JSON string escapes of [Xqp_obs.Json]: short forms for quote,
   backslash, newline, return and tab, [\u00XX] for other control bytes. *)
let json_escapes =
  Array.init 256 (fun i ->
      match Char.chr i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ -> Printf.sprintf "\\u%04x" i)

(* Index of the first byte of [s] from [i] on that [e] escapes, or the
   length of [s]. *)
let next_special e s i =
  let n = String.length s in
  let i = ref i in
  while
    !i < n && Char.code (Bytes.unsafe_get classes (Char.code (String.unsafe_get s !i))) land e = 0
  do
    incr i
  done;
  !i

let verbatim s = next_special any s 0 = String.length s

let rec add_from e sink s start =
  let i = next_special e s start in
  if i > start then Sink.add_substring sink s start (i - start);
  if i < String.length s then begin
    let c = String.unsafe_get s i in
    (* XML first: an entity holds no JSON-special byte, so it needs no
       second escape *)
    if Char.code (Bytes.unsafe_get classes (Char.code c)) land e land (text lor attr) <> 0 then
      Sink.add_string sink
        (match c with '&' -> "&amp;" | '<' -> "&lt;" | '>' -> "&gt;" | _ -> "&quot;")
    else Sink.add_string sink (Array.unsafe_get json_escapes (Char.code c));
    add_from e sink s (i + 1)
  end

let add e sink s = if e = raw then Sink.add_string sink s else add_from e sink s 0

let escape e s =
  if next_special e s 0 = String.length s then s
  else begin
    let sink = Sink.create (String.length s + 8) in
    add e sink s;
    Sink.contents sink
  end
