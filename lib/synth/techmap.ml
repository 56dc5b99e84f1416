(** Technology mapping: re-express a netlist over a restricted standard-
    cell target library (Fig. 1's "technology libraries" input). Two
    targets:

    - [to_nand_inv]: the NAND2+INV universal library — the canonical
      mapping exercise, and the area/delay baseline the PPA model compares
      against;
    - [to_nand_nor_xnor]: the camouflageable candidate set, so a mapped
      design can be 100% camouflaged (cf. [Camo.Constrained] which
      synthesizes from truth tables; this maps existing structure).

    Mapping is local (per-gate macro expansion) followed by constant
    propagation to clean double inverters — the classical peephole
    recovery. The mapping itself lives in the private [Basis] module,
    behind the registered [techmap] pass. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type target = Nand_inv | Nand_nor_xnor

let allowed target kind =
  match target, kind with
  | _, (Gate.Input | Gate.Const _ | Gate.Dff) -> true
  | Nand_inv, (Gate.Nand | Gate.Not) -> true
  | Nand_nor_xnor, (Gate.Nand | Gate.Nor | Gate.Xnor) -> true
  | _, _ -> false

let conforms target c =
  let ok = ref true in
  for i = 0 to Circuit.node_count c - 1 do
    if not (allowed target (Circuit.kind c i)) then ok := false
  done;
  !ok
