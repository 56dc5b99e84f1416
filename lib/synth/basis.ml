(** Basis conversions: to the AND / XOR / NOT basis, over which the
    masking transforms (ISW private circuits) are defined, and onto the
    {!Techmap} target libraries. Every other cell is rewritten by
    Boolean identities or per-gate macro expansion. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

let to_and_xor_not c =
  let out = Circuit.create () in
  let remap =
    Circuit.rebuild ~into:out c (fun copy remap i ->
        let nd = Circuit.node c i in
        let f k = remap.(nd.Circuit.fanins.(k)) in
        let add kind fanins = Circuit.add_node_raw out kind (Array.of_list fanins) "" in
        let named kind fanins =
          Circuit.add_node_raw out kind (Array.of_list fanins)
            (Circuit.free_name out nd.Circuit.name)
        in
        match nd.Circuit.kind with
        | Gate.Input | Gate.Const _ | Gate.Dff -> copy i
        | Gate.Buf -> f 0
        | Gate.Not -> named Gate.Not [ f 0 ]
        | Gate.And -> named Gate.And [ f 0; f 1 ]
        | Gate.Xor -> named Gate.Xor [ f 0; f 1 ]
        | Gate.Nand -> named Gate.Not [ add Gate.And [ f 0; f 1 ] ]
        | Gate.Or ->
          (* a | b = !( !a & !b ) *)
          let na = add Gate.Not [ f 0 ] and nb = add Gate.Not [ f 1 ] in
          named Gate.Not [ add Gate.And [ na; nb ] ]
        | Gate.Nor ->
          let na = add Gate.Not [ f 0 ] and nb = add Gate.Not [ f 1 ] in
          named Gate.And [ na; nb ]
        | Gate.Xnor -> named Gate.Not [ add Gate.Xor [ f 0; f 1 ] ]
        | Gate.Mux ->
          (* s ? b : a = a xor (s & (a xor b)) *)
          let axb = add Gate.Xor [ f 1; f 2 ] in
          let gated = add Gate.And [ f 0; axb ] in
          named Gate.Xor [ f 1; gated ])
  in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs c);
  out

(** True when the circuit uses only the AND/XOR/NOT basis (plus IO cells). *)
let in_basis c =
  let ok = ref true in
  for i = 0 to Circuit.node_count c - 1 do
    match Circuit.kind c i with
    | Gate.And | Gate.Xor | Gate.Not | Gate.Input | Gate.Const _ | Gate.Dff -> ()
    | Gate.Buf | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xnor | Gate.Mux -> ok := false
  done;
  !ok

(* --- technology mapping -------------------------------------------------- *)

(* Macro expansions into the target library. *)
let map_gate target out kind fanins =
  let nand a b = Circuit.add_gate out Gate.Nand [ a; b ] in
  let inv a =
    match target with
    | Techmap.Nand_inv -> Circuit.add_gate out Gate.Not [ a ]
    | Techmap.Nand_nor_xnor -> nand a a
  in
  match kind, fanins with
  | Gate.Buf, [| a |] -> inv (inv a)
  | Gate.Not, [| a |] -> inv a
  | Gate.And, [| a; b |] -> inv (nand a b)
  | Gate.Nand, [| a; b |] -> nand a b
  | Gate.Or, [| a; b |] -> nand (inv a) (inv b)
  | Gate.Nor, [| a; b |] ->
    (match target with
     | Techmap.Nand_nor_xnor -> Circuit.add_gate out Gate.Nor [ a; b ]
     | Techmap.Nand_inv -> inv (nand (inv a) (inv b)))
  | Gate.Xor, [| a; b |] ->
    (match target with
     | Techmap.Nand_nor_xnor -> inv (Circuit.add_gate out Gate.Xnor [ a; b ])
     | Techmap.Nand_inv ->
       (* xor = nand(nand(a, nab), nand(b, nab)) with nab = nand(a,b). *)
       let nab = nand a b in
       nand (nand a nab) (nand b nab))
  | Gate.Xnor, [| a; b |] ->
    (match target with
     | Techmap.Nand_nor_xnor -> Circuit.add_gate out Gate.Xnor [ a; b ]
     | Techmap.Nand_inv ->
       let nab = nand a b in
       inv (nand (nand a nab) (nand b nab)))
  | Gate.Mux, [| s; a; b |] ->
    (* mux = nand(nand(a, not s), nand(b, s)). *)
    nand (nand a (inv s)) (nand b s)
  | (Gate.Input | Gate.Const _ | Gate.Dff), _ -> assert false
  | (Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
    | Gate.Xor | Gate.Xnor | Gate.Mux), _ ->
    invalid_arg "Techmap: arity mismatch"

let techmap target source =
  let out = Circuit.create () in
  let remap =
    Circuit.rebuild ~into:out source (fun copy remap i ->
        let nd = Circuit.node source i in
        match nd.Circuit.kind with
        | Gate.Input | Gate.Const _ | Gate.Dff -> copy i
        | k -> map_gate target out k (Array.map (fun f -> remap.(f)) nd.Circuit.fanins))
  in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs source);
  (* Peephole recovery (double inverters etc.). The rewriter only emits
     NAND/NOT for a NAND/NOT-only input, so NAND2+INV conformance is
     preserved; the camouflage target skips it (the rewriter would
     introduce plain NOTs). *)
  match target with
  | Techmap.Nand_inv -> Rewrite.constant_propagation out
  | Techmap.Nand_nor_xnor -> fst (Circuit.sweep out)
