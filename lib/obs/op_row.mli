(** The per-operator profile row: one plan operator's estimate next to
    what one run measured.

    Rows are read off the operator spans the executor records
    (DESIGN.md §7) by [Profile.rows_of_spans] — the only per-operator
    record there is. This module holds the type and its two renderings,
    shared by every surface: [explain --analyze], [query
    --request-trace], [/debug/slow] captures and the QMET bench. *)

type t = {
  path : string;  (** position in the plan tree: "0" is the whole plan,
                      children at ["<path>.<i>"] — the span [path] attribute *)
  depth : int;    (** nesting depth (number of dots in [path]) *)
  op : string;    (** operator label *)
  engine : string option;  (** for τ operators: the engine that ran it *)
  est_rows : float;        (** the planner's estimated output cardinality *)
  actual_rows : int option;  (** measured output cardinality *)
  time_ms : float option;    (** inclusive wall-clock time *)
  q_error : float option;    (** {!q_error} of a measured τ or Step row *)
}

val q_error : float -> int -> float
(** [q_error est actual] = max(est/actual, actual/est) with both sides
    floored at one row, so empty-vs-empty is a perfect [1.0] — the
    measure [xqp calibrate] reports. *)

val to_json : t -> Json.t
(** [{"path","op","engine","est_rows","actual_rows","ms"}] (numbers
    rounded to 3 decimals, [null] for what was not measured). *)

val pp_table : Format.formatter -> t list -> unit
(** An aligned table, one line per row in the order given: path,
    indented operator, engine, est, actual, q-err, ms ([-] for what was
    not measured). *)
