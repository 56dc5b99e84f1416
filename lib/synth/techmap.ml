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
    recovery. *)

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

(* Macro expansions into the target library. *)
let map_gate target out kind fanins =
  let nand a b = Circuit.add_gate out Gate.Nand [ a; b ] in
  let inv a =
    match target with
    | Nand_inv -> Circuit.add_gate out Gate.Not [ a ]
    | Nand_nor_xnor -> nand a a
  in
  match kind, fanins with
  | Gate.Buf, [| a |] -> inv (inv a)
  | Gate.Not, [| a |] -> inv a
  | Gate.And, [| a; b |] -> inv (nand a b)
  | Gate.Nand, [| a; b |] -> nand a b
  | Gate.Or, [| a; b |] -> nand (inv a) (inv b)
  | Gate.Nor, [| a; b |] ->
    (match target with
     | Nand_nor_xnor -> Circuit.add_gate out Gate.Nor [ a; b ]
     | Nand_inv -> inv (nand (inv a) (inv b)))
  | Gate.Xor, [| a; b |] ->
    (match target with
     | Nand_nor_xnor -> inv (Circuit.add_gate out Gate.Xnor [ a; b ])
     | Nand_inv ->
       (* xor = nand(nand(a, nab), nand(b, nab)) with nab = nand(a,b). *)
       let nab = nand a b in
       nand (nand a nab) (nand b nab))
  | Gate.Xnor, [| a; b |] ->
    (match target with
     | Nand_nor_xnor -> Circuit.add_gate out Gate.Xnor [ a; b ]
     | Nand_inv ->
       let nab = nand a b in
       inv (nand (nand a nab) (nand b nab)))
  | Gate.Mux, [| s; a; b |] ->
    (* mux = nand(nand(a, not s), nand(b, s)). *)
    nand (nand a (inv s)) (nand b s)
  | (Gate.Input | Gate.Const _ | Gate.Dff), _ -> assert false
  | (Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
    | Gate.Xor | Gate.Xnor | Gate.Mux), _ ->
    invalid_arg "Techmap: arity mismatch"

let run ?(target = Nand_inv) source =
  let out = Circuit.create () in
  let n = Circuit.node_count source in
  let remap = Array.make n (-1) in
  let name_taken = Hashtbl.create 64 in
  let copy_name i =
    let nm = Circuit.name source i in
    if Hashtbl.mem name_taken nm || Circuit.find_by_name out nm <> None then ""
    else begin
      Hashtbl.replace name_taken nm ();
      nm
    end
  in
  for i = 0 to n - 1 do
    let nd = Circuit.node source i in
    remap.(i) <-
      (match nd.Circuit.kind with
       | Gate.Input -> Circuit.add_node_raw out Gate.Input [||] (copy_name i)
       | Gate.Const b -> Circuit.add_node_raw out (Gate.Const b) [||] (copy_name i)
       | Gate.Dff -> Circuit.add_node_raw out Gate.Dff [| 0 |] (copy_name i)
       | k ->
         let fanins = Array.map (fun f -> remap.(f)) nd.Circuit.fanins in
         ignore (copy_name i);
         map_gate target out k fanins)
  done;
  for i = 0 to n - 1 do
    if Circuit.kind source i = Gate.Dff then
      Circuit.connect_dff out remap.(i) ~d:remap.((Circuit.fanins source i).(0))
  done;
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs source);
  (* Peephole recovery (double inverters etc.). The rewriter only emits
     NAND/NOT for a NAND/NOT-only input, so NAND2+INV conformance is
     preserved; the camouflage target skips it (the rewriter would
     introduce plain NOTs). *)
  match target with
  | Nand_inv -> Rewrite.constant_propagation out
  | Nand_nor_xnor -> fst (Circuit.sweep out)
