(** The decision order of {!Solver}: a binary heap of variables keyed by
    VSIDS activity, in the style of MiniSat's order heap (Eén and
    Sörensson, SAT 2003).

    A variable [a] pops before [b] when its activity is higher, and ties
    go to the lower index. That is exactly the variable a linear scan for
    the first maximum would pick, so replacing the scan with the heap
    changes no decision.

    The heap does not own the activities: every operation that compares
    reads them from the array passed in, which must hold one entry per
    variable. A caller that changes an activity other than by raising one
    member's score with {!increase} must {!rebuild}. *)

type t

val create : unit -> t

(** Make room for variables [0 .. n-1]. *)
val reserve : t -> int -> unit

(** Add a variable; a no-op when it is already in the heap. *)
val insert : t -> float array -> int -> unit

(** Restore the order after a member's activity rose; a no-op for a
    variable outside the heap. *)
val increase : t -> float array -> int -> unit

(** Remove and return the first variable in the order, or [-1] when the
    heap is empty. *)
val pop : t -> float array -> int

(** Empty the heap, then fill it with every variable [v < n] for which
    [keep v] holds. *)
val rebuild : t -> float array -> n:int -> (int -> bool) -> unit
