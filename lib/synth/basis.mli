(** Conversion to the AND / XOR / NOT basis. Masking transforms (ISW
    private circuits, {!Masking}) are defined over this basis; every
    other cell is rewritten by Boolean identities before masking.

    A module private to [lib/synth]: the conversion is reachable as the
    [to_and_xor_not] pass ({!Pass}, {!Pipeline}), whose check is
    {!in_basis}. *)

val to_and_xor_not : Netlist.Circuit.t -> Netlist.Circuit.t

(** True when the circuit uses only AND/XOR/NOT (plus IO cells). *)
val in_basis : Netlist.Circuit.t -> bool
