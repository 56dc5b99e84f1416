(** Local logic rewriting: constant propagation, algebraic identities and
    structural hashing (common-subexpression elimination).

    Every pass maps an input circuit to a fresh, functionally equivalent
    circuit. The [protect] predicate is the security fence: nodes whose
    {e net name} satisfies it are copied verbatim and never merged,
    simplified or re-expressed.

    A module private to [lib/synth]: these transforms are reachable as
    the [constant_propagation] and [strash] passes ({!Pass},
    {!Pipeline}). *)

(** The trivial fence: nothing is protected. *)
val no_protection : string -> bool

val constant_propagation :
  ?protect:(string -> bool) -> Netlist.Circuit.t -> Netlist.Circuit.t

val strash : ?protect:(string -> bool) -> Netlist.Circuit.t -> Netlist.Circuit.t
