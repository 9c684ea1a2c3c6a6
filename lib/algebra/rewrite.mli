(** Logical rewrite rules.

    - R0 ({!simplify}): axis normalization —
      [descendant-or-self::*/child::t] becomes [descendant::t], redundant
      [self::*] steps are dropped.
    - R1/R2 ({!fuse}): maximal runs of local/descendant steps, together
      with their value predicates and existential (branch) predicates, are
      fused into a single τ operator over a pattern graph. This turns a
      pipeline of πs/σs/σv operators (or a cascade of structural joins)
      into one tree-pattern-match — the paper's central optimization
      (§3.2: "a single operator to implement the list comprehension as a
      whole").

    {!optimize} applies both. Rewrites preserve results: tested by
    differential execution on random documents. *)

val simplify : Logical_plan.t -> Logical_plan.t
val fuse : Logical_plan.t -> Logical_plan.t
val optimize : Logical_plan.t -> Logical_plan.t

(** {2 Rewrite tracing}

    Each rule application records the stage it fired in ([simplify] or
    [fuse]), the rule name, and the operator count of the rewritten
    fragment before and after. Tracing costs one ref read per rule site
    when off; the traced entry points produce identical plans. *)

type rule_fire = {
  stage : string;        (** ["simplify"] or ["fuse"] *)
  rule : string;         (** e.g. ["fuse-steps-into-tau"] *)
  before_ops : int;      (** operator count of the fragment rewritten *)
  after_ops : int;       (** operator count of the replacement *)
}

val optimize_traced : Logical_plan.t -> Logical_plan.t * rule_fire list
(** Same result as {!optimize}, plus the rule fires in application
    order. *)

val op_count : Logical_plan.t -> int
(** Number of plan operators, counting nested existential predicates. *)

val pp_rule_fire : Format.formatter -> rule_fire -> unit

val pattern_of_steps : Logical_plan.step list -> Pattern_graph.t option
(** Build the pattern graph for a fusible step chain ([None] when some
    step cannot be expressed as a pattern vertex: non-downward axis,
    [text()] test, or positional predicate). The last spine vertex is the
    output. *)
