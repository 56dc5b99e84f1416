(** Technology mapping onto a restricted standard-cell target library
    (Fig. 1's "technology libraries" input), as local per-gate macro
    expansion plus peephole recovery.

    The mapping is the [techmap] pass (param [target=nand-inv|camo]),
    reached through {!Pass.apply} / {!Pipeline}; this module names the
    targets and checks conformance. *)

type target =
  | Nand_inv  (** the NAND2+INV universal library — the classical baseline *)
  | Nand_nor_xnor  (** the camouflageable candidate set (cf. [Camo]) *)

(** True when every cell of the circuit is in the target library. *)
val conforms : target -> Netlist.Circuit.t -> bool
