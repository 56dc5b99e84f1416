(** Basis conversions: to the AND / XOR / NOT basis, over which the
    masking transforms (ISW private circuits, {!Masking}) are defined,
    and onto a {!Techmap} target library.

    A module private to [lib/synth]: the conversions are reachable as
    the [to_and_xor_not] pass, whose check is {!in_basis}, and the
    [techmap] pass ({!Pass}, {!Pipeline}). *)

val to_and_xor_not : Netlist.Circuit.t -> Netlist.Circuit.t

(** True when the circuit uses only AND/XOR/NOT (plus IO cells). *)
val in_basis : Netlist.Circuit.t -> bool

(** Map onto [target] by per-gate macro expansion, then peephole
    recovery (constant propagation for NAND2+INV, a sweep for the
    camouflage set). *)
val techmap : Techmap.target -> Netlist.Circuit.t -> Netlist.Circuit.t
