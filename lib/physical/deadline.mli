(** The one query deadline clock, shared by the executor's drive loop and
    the engines that check it inside a call. {!Executor.Deadline_exceeded}
    is {!Exceeded}. *)

exception Exceeded

val check : float option -> unit
(** [check (Some d)] raises {!Exceeded} when [Unix.gettimeofday () > d];
    [None] is free. *)
