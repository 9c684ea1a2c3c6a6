(** Sort checking for logical plans (§3.1–3.2).

    The paper's algebra is sorted: every operator consumes and produces
    values of known sorts ([List], [NestedList], [Tree], [PatternGraph],
    [SchemaTree], [Env]). In this implementation each {!Xqp_algebra.Logical_plan}
    node denotes a [List] of document nodes; what distinguishes plans is
    the {e node-kind component} of that sort — which of {document, element,
    attribute, text} the list can contain. This pass infers that component
    bottom-up through every axis/test/predicate combination and rejects
    plans whose sort is statically empty: an attribute axis from an
    attribute context, a [text()] test on the attribute axis, steps below a
    text node, a τ applied from a non-element context, contradictory value
    predicates, non-positive positional predicates.

    Codes: [sort/empty-step], [sort/tpm-context], [sort/position],
    [sort/position-singleton] (warning), [sort/contradiction],
    [sort/contains-num], plus everything {!Pattern_check} reports for
    embedded pattern graphs (bubbled with a [tpm] path segment).

    With a {!Schema_info} summary the pass additionally tracks the set of
    element names the context can have and warns about name tests that are
    unsatisfiable under the workload schemas: [schema/unknown-name] (the
    name occurs nowhere) and [schema/empty] (the name occurs, but not in
    this position). Schema findings are warnings — instances outside the
    summarized workload could still match — and [xqp lint --strict]
    promotes them. *)

type kind = Doc_node | Element | Attribute | Text

type kinds
(** A set of node kinds. *)

val kinds : kind list -> kinds
val kind_list : kinds -> kind list
val any_node : kinds
(** All four kinds — the context assumption when nothing is known. *)

val document_context : kinds
(** Just {!Doc_node}: the context of an absolute query ([Executor.execute]
    evaluates plans from the virtual document node by default). *)

val pp_kinds : Format.formatter -> kinds -> unit

type sort = Node_list of kinds
    (** The paper's [List] sort, refined by the kinds its nodes can have.
        Embedded pattern graphs have sort [PatternGraph] and are checked by
        {!Pattern_check}; predicates have sort [Boolean]. *)

val pp_sort : Format.formatter -> sort -> unit

val infer : ?context:kinds -> Xqp_algebra.Logical_plan.t -> sort * Diagnostic.t list
(** Infer the result sort of a plan whose [Context] has the given kinds
    (default {!any_node}) and report every ill-sorted node on the way.
    A plan is {e well-sorted} when no diagnostic has severity [Error]. *)

val check :
  ?context:kinds -> ?schema:Schema_info.t -> Xqp_algebra.Logical_plan.t -> Diagnostic.t list
(** {!infer}'s diagnostics plus, when [schema] is given, the emptiness
    analysis against it. *)
