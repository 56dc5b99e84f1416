(** Technology mapping onto a restricted standard-cell target library
    (Fig. 1's "technology libraries" input), as local per-gate macro
    expansion plus peephole recovery.

    Registered as the [techmap] pass (param [target=nand-inv|camo]);
    outside [lib/synth], address it through {!Pass.apply} / {!Pipeline}
    rather than calling {!run} directly. *)

type target =
  | Nand_inv  (** the NAND2+INV universal library — the classical baseline *)
  | Nand_nor_xnor  (** the camouflageable candidate set (cf. [Camo]) *)

(** Cell kinds the target admits (IO cells always pass). *)
val allowed : target -> Netlist.Gate.kind -> bool

(** True when every cell of the circuit is in the target library. *)
val conforms : target -> Netlist.Circuit.t -> bool

val run : ?target:target -> Netlist.Circuit.t -> Netlist.Circuit.t
[@@deprecated "use Synth.Pass.apply \"techmap\" ~params:[(\"target\", ...)]"]
