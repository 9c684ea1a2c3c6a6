(** The physical plan IR: the compile-once artifact between logical
    optimization and execution.

    A physical plan mirrors the logical plan's operator tree, but every τ
    carries a {e concrete} engine binding ({!tau_engine} — never [Auto]),
    with engine-specific decisions baked in at compile time: the
    Navigation strategy's step expansion, the binary-join order, whether
    the content index answers a predicate. Every operator is annotated
    with its estimated output cardinality, so execution spans and
    [explain] report estimates without re-consulting the cost model.

    {!Planner.compile} builds these; {!Executor.run_physical} interprets
    them; {!Plan_cache} memoizes them. *)

type strategy =
  | Reference   (** the algebra's executable specification *)
  | Navigation  (** naive navigational evaluation (τ expanded to steps) *)
  | Nok         (** the NoK kernel over the document arrays *)
  | Pathstack   (** holistic path join on chains; TwigStack fallback *)
  | Twigstack
  | Binary_default (** binary structural joins, arcs in pattern order *)
  | Binary_best    (** binary joins in the cost-model-chosen order *)
  | Auto           (** cost-model choice per pattern (compile-time only) *)

val strategy_name : strategy -> string

val all_strategies : strategy list
(** The concrete engines (everything except [Reference] and [Auto]). *)

val strategy_of_string : string -> (strategy, string) result
(** Inverse of {!strategy_name} over [Auto :: Reference ::
    all_strategies]; the error message lists the valid names. *)

(** A τ operator's bound engine, with all runtime decisions resolved. *)
type tau_engine =
  | Reference_match                 (** {!Xqp_algebra.Operators.pattern_match} *)
  | Navigation_steps of Xqp_algebra.Logical_plan.t
      (** pattern expanded to a relative step chain at compile time *)
  | Nok_kernel                      (** the NoK kernel over the document arrays *)
  | Path_stack_join
  | Twig_stack_join
  | Binary_semijoin of { use_index : bool }
      (** semijoin reduction; [use_index] decided from the pattern's
          predicates at compile time *)
  | Binary_ordered of (int * int) list
      (** full binary joins in the baked-in arc order *)

val engine_strategy : tau_engine -> strategy
(** The strategy a binding belongs to; never [Auto]. *)

val engine_label : tau_engine -> string
(** [strategy_name (engine_strategy e)]. *)

type tau = {
  pattern : Xqp_algebra.Pattern_graph.t;
  engine : tau_engine;
  est_cost : float option;
      (** the cost model's estimated nanoseconds for the bound engine;
          [None] for [Reference_match], which the model does not cost *)
}

type t = { op : op; est_rows : float (** estimated output cardinality *) }

and op =
  | Root
  | Context
  | Step of t * Xqp_algebra.Logical_plan.step
  | Tau of t * tau
  | Union of t * t
  | Empty of Xqp_algebra.Logical_plan.t
      (** proven-empty subplan, carrying the logical plan it replaced: the
          path summary showed some required path has no instance, so the
          executor answers [[]] without touching the store *)

val to_logical : t -> Xqp_algebra.Logical_plan.t
(** Erase the physical annotations (engines become plain [Tpm] nodes) —
    the projection the sort checker and estimate re-derivation run on. *)

val taus : t -> tau list
(** All τ bindings in execution order (base before parent). *)

val op_label : t -> string
(** Label of the top operator, matching
    {!Xqp_algebra.Logical_plan.op_label} on the logical projection. *)

val size : t -> int
(** Number of operators (steps and τ nodes). *)

val equal : t -> t -> bool
(** Structural equality including engine bindings and annotations — the
    compile-determinism property tests compare with this. *)

val pp : Format.formatter -> t -> unit
(** Indented operator tree, one line per operator (base below parent),
    with [engine=]/[est=]/[cost=] annotations on τ — the "physical plan"
    section of [xqp explain]. *)
