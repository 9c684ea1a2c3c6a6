(** XML character-entity encoding and decoding.

    Handles the five predefined entities ([&amp;] [&lt;] [&gt;] [&quot;]
    [&apos;]) and decimal/hexadecimal character references ([&#...;],
    [&#x...;], encoded as UTF-8 on output). *)

exception Bad_entity of string
(** Raised by {!decode} on a malformed or unknown entity reference. *)

val decode : string -> string
(** [decode s] replaces every entity reference in [s] by its character. *)

(** {1 Escaping}

    Every escape — XML, and JSON on top of XML — goes through one
    256-entry byte-class table, and runs of bytes that need no escape
    are copied with one [Sink.add_substring]. *)

type escape
(** Which bytes to escape. *)

val raw : escape
(** Nothing: the string as it is. *)

val text : escape
(** Element content: [&], [<] and [>] become entities. *)

val attr : escape
(** A double-quoted attribute value: as {!text}, plus the double quote. *)

val json : escape -> escape
(** The same, then escaped for the inside of a JSON string by the rules
    of [Xqp_obs.Json.to_string]: a backslash before the double quote
    and the backslash, the short forms n, r and t for newline, return
    and tab, and a u00XX escape for every other byte below 0x20; all
    other bytes, UTF-8 included, pass. An entity holds no such byte, so
    the two layers compose in one pass. *)

val add : escape -> Sink.t -> string -> unit
(** Append the string, escaped. *)

val verbatim : string -> bool
(** No byte of the string is escaped by any escape above: every one of
    them leaves it as it is. *)

val escape : escape -> string -> string
(** The string, escaped; the same string when nothing needs escaping. *)
