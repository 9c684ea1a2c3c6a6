(** Logical plans for path expressions.

    A plan is a chain of navigation/selection operators over a base
    ([Root] — the document root — or [Context], the externally-supplied
    context sequence). [Step] combines πs (axis navigation) with σs (name
    test) and σv / existential predicates; [Tpm] is the τ operator applied
    to a fused pattern graph. The {!Rewrite} module turns step chains into
    [Tpm] nodes (rules R1/R2) — the optimization at the heart of the
    paper's hybrid proposal. *)

type node_test =
  | Name of string  (** element/attribute name test *)
  | Any             (** [*] *)
  | Text_node       (** [text()] *)
  | Node
      (** [node()]: any node the axis yields, the virtual document node
          included. The parser has no syntax for it; navigation's
          expansion of a pattern tests its context vertex with
          [self::node()], since a pattern binds that vertex without
          testing it. *)

type predicate =
  | Value_pred of Pattern_graph.predicate  (** [. op literal] *)
  | Exists of t                            (** relative path is non-empty *)
  | Position of int                        (** 1-based positional predicate *)

and step = { axis : Axis.t; test : node_test; predicates : predicate list }

and t =
  | Root
  | Context
  | Step of t * step
  | Tpm of t * Pattern_graph.t
  | Union of t * t  (** node-set union, document order, duplicates removed *)

val step : ?predicates:predicate list -> Axis.t -> node_test -> step

val of_steps : base:t -> step list -> t
(** Chain steps left to right onto [base]. *)

val steps_of : t -> (t * step list) option
(** Decompose a pure step chain back into (base, steps); [None] when the
    plan contains a [Tpm] or the base is itself compound. *)

val size : t -> int
(** Number of operators (steps and τ nodes). *)

val tpm_count : t -> int

val op_label : t -> string
(** Short label for the plan's {e top} operator only (["root"],
    ["step /name"], ["tau(3v)"], ["union"]) — used as the span name and
    profile-row label for that operator. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val fingerprint : t -> string
(** Stable injective serialization of the plan's structure (including
    nested pattern graphs via {!Pattern_graph.fingerprint}): two plans
    have the same fingerprint exactly when {!equal} holds (up to the
    textual representation of float literals). Plan caches key on this;
    {!pp} is for humans and is not injective. *)

val compare : t -> t -> int
(** Total order on plans via {!fingerprint}; [compare a b = 0] iff the
    fingerprints coincide. *)
