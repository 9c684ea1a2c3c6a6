(** Minimal JSON values — just enough for the trace/metric exporters and
    the bench harness, so the observability layer stays dependency-free.

    The printer emits deterministic output (object fields in the order
    given, numbers as integers when integral, [%.3f] otherwise), which
    lets round-trip tests compare re-exported strings verbatim. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} with a position-annotated message. *)

val to_string : ?pretty:bool -> t -> string
(** Serialize. [pretty] (default false) indents by two spaces. *)

(** {1 The printer's pieces}

    For encoders that stream a document into a caller's sink without
    building a {!t} first. {!to_string} escapes a string literal thus:
    the double quote and the backslash get a backslash, newline, return
    and tab their short forms, every other byte below 0x20 a u00XX
    escape; all other bytes (UTF-8 included) go through unchanged. *)

val num_to_string : float -> string
(** A number as {!to_string} prints it. *)

val parse : string -> t
(** Parse a complete JSON document (trailing whitespace allowed).
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** Field lookup on objects; [None] on other constructors. *)

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
