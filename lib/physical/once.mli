(** A value built at most once and then shared by every domain.

    [Lazy.t] is not safe to force from two domains: the one that loses
    the race raises [CamlinternalLazy.Undefined]. A cell is built under
    its own mutex by the first domain that asks; a domain that arrives
    during the build waits for it, and every later read is one atomic
    load, with no lock and no allocation (DESIGN.md §11). If the build
    raises, the cell stays empty and the next {!force} builds again. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** A cell whose value [build ()] makes on the first {!force}. *)

val of_value : 'a -> 'a t
(** A cell that is already built. *)

val force : 'a t -> 'a
