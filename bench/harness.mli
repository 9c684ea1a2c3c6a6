(** The bench harness: one sampler, one gate record, one JSON envelope
    and one runner over an explicit list of experiments.

    A gate never raises: it records [passed], [failed] or [skipped], and
    the runner keeps going, so one failing gate cannot hide the
    experiments after it. *)

(** {1 Sampling} *)

type stat = { median : float; q1 : float; q3 : float; runs : int }
(** Quartiles of a set of samples (linear interpolation between order
    statistics). *)

val stat_of : float list -> stat
(** @raise Invalid_argument on an empty list. *)

val quantile : float array -> float -> float
(** [quantile samples p], [p] in \[0, 1\]; [samples] need not be sorted.
    @raise Invalid_argument on an empty array. *)

val sample : (unit -> 'a) -> stat
(** Seconds per call of [f], one sample per round, 3 rounds. A
    call that runs 50 ms or longer is a round on its own; a shorter call
    is repeated until the round holds about 50 ms of work (3 to 200
    calls), and the round is the mean per call. *)

val stat_json : stat -> Xqp_obs.Json.t
(** [{"median", "q1", "q3", "runs"}]. *)

type pair = { a : stat; b : stat; speedup : stat }
(** [speedup] is [a / b] per round: how many times faster [b] runs. *)

val pair : rounds:int -> (unit -> 'a) -> (unit -> 'b) -> pair
(** A/B comparison with interleaved rounds, so slow drift in the host's
    load hits both sides alike. Every side's round starts after a full
    major collection, and the side that runs first alternates ([a] [b],
    [b] [a], ...), so neither side pays for the other's garbage or always
    runs first. *)

(** {1 Gates} *)

type status = Passed | Failed | Skipped

type gate = {
  name : string;
  status : status;
  value : float;
  cmp : string;  (** ["<="], [">="] or ["="] *)
  bound : float;
  note : string;  (** why a gate was skipped; empty otherwise *)
}

val at_most : string -> bound:float -> float -> gate
(** Passes when [value <= bound]. *)

val at_least : ?cores:int -> string -> bound:float -> float -> gate
(** Passes when [value >= bound]. A gate that needs more [cores]
    (default 1) than the host has is [Skipped]: the scaling gates need 2. *)

val holds : string -> bool -> gate

(** {1 Experiments and the runner} *)

type scale = [ `Small | `Full ]

type outcome = { gates : gate list; fields : (string * Xqp_obs.Json.t) list }

val nothing : outcome
(** No gates and no JSON fields: an experiment that only prints a table. *)

type experiment = {
  id : string;
  title : string;
  bench : string option;  (** [Some b] writes [BENCH_b.json] in the working directory *)
  run : scale:scale -> outcome;
}

val main : experiment list -> string list -> int
(** Runs the experiments that the arguments select ([--only=ID,...],
    [--full]) in list order, catching an experiment's exception as a
    failure, writes each one's BENCH file, prints a gate summary and
    returns the exit code: 0, 1 if any gate or experiment failed, 2 on an
    unknown argument or experiment id (nothing runs then).

    [--agreement] runs the experiments for their agreement checks
    alone: every gate is reported [Skipped], no BENCH file is written,
    and only an experiment that raises fails the run.

    Every BENCH file has one shape: [bench], [host] ([cores], [ocaml],
    [commit] from [git describe --always --dirty] or ["unknown"],
    [scale]), [status], [gates], then the experiment's own fields — or
    [error] with the exception's message if it raised. *)
