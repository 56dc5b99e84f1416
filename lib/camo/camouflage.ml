(** IC camouflaging [23] (Table II, logic-synthesis row): selected cells
    are replaced by look-alike primitives whose layout does not reveal
    which of NAND / NOR / XNOR they implement. A malicious end-user imaging
    the chip must consider every consistent assignment.

    De-camouflaging is the dual of the SAT attack on locking: model each
    ambiguous cell with two configuration bits (a 4-way mux over candidate
    functions), then run the oracle-guided DIP loop. The camouflaged
    netlist is therefore *compiled to* a locked netlist — the reduction the
    literature uses — and attacked with [Locking.Sat_attack]. Here we keep
    the standalone representation plus the reduction. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng

(* The candidate set of an ambiguous cell, in configuration order. *)
let candidates = [| Gate.Nand; Gate.Nor; Gate.Xnor |]

type camouflaged = {
  circuit : Circuit.t;  (* with the true cell functions (the fab view) *)
  ambiguous : (int * int) list;  (* node id, index into [candidates] *)
}

(** Camouflage [cells] randomly selected 2-input NAND/NOR/XNOR gates. *)
let apply rng ~cells source =
  let eligible =
    List.filter
      (fun i ->
        match Circuit.kind source i with
        | Gate.Nand | Gate.Nor | Gate.Xnor -> true
        | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Or
        | Gate.Xor | Gate.Mux | Gate.Dff -> false)
      (List.init (Circuit.node_count source) (fun i -> i))
  in
  let cells = min cells (List.length eligible) in
  let chosen = Rng.sample rng cells (List.length eligible) in
  let arr = Array.of_list eligible in
  let ambiguous =
    Array.to_list
      (Array.map
         (fun idx ->
           let node = arr.(idx) in
           let true_kind = Circuit.kind source node in
           let config =
             match true_kind with
             | Gate.Nand -> 0
             | Gate.Nor -> 1
             | Gate.Xnor -> 2
             | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And
             | Gate.Or | Gate.Xor | Gate.Mux | Gate.Dff -> assert false
           in
           node, config)
         chosen)
  in
  { circuit = Circuit.copy source; ambiguous }

(** What the attacker's imaging recovers: the netlist with every ambiguous
    cell's function unknown, encoded as a locked circuit whose key bits
    select the cell function (2 bits per cell, one-hot-ish mux). *)
let to_locked camo =
  let src = camo.circuit in
  let ambiguous = Hashtbl.create 16 in
  List.iteri (fun k (node, _) -> Hashtbl.replace ambiguous node k) camo.ambiguous;
  let num_cells = List.length camo.ambiguous in
  let out = Circuit.create () in
  let key_inputs =
    Array.init (2 * num_cells) (fun k -> Circuit.add_input ~name:(Printf.sprintf "key%d" k) out)
  in
  let data_inputs = ref [] in
  let remap =
    Circuit.rebuild ~into:out src (fun copy remap i ->
        match Hashtbl.find_opt ambiguous i with
        | None ->
          let id = copy i in
          if Circuit.kind src i = Gate.Input then data_inputs := id :: !data_inputs;
          id
        | Some cell_idx ->
          (* Key bits (2k, 2k+1) select among candidates via mux tree. *)
          let fanins = Circuit.fanins src i in
          let a = remap.(fanins.(0)) and b = remap.(fanins.(1)) in
          let nand_v = Circuit.add_node_raw out Gate.Nand [| a; b |] "" in
          let nor_v = Circuit.add_node_raw out Gate.Nor [| a; b |] "" in
          let xnor_v = Circuit.add_node_raw out Gate.Xnor [| a; b |] "" in
          let k0 = key_inputs.(2 * cell_idx) and k1 = key_inputs.((2 * cell_idx) + 1) in
          (* config 0 -> nand, 1 -> nor, 2 or 3 -> xnor. *)
          let low = Circuit.add_node_raw out Gate.Mux [| k0; nand_v; nor_v |] "" in
          Circuit.add_node_raw out Gate.Mux [| k1; low; xnor_v |]
            (Circuit.free_name out (Circuit.name src i)))
  in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs src);
  let correct_key = Array.make (2 * num_cells) false in
  List.iteri
    (fun k (_, config) ->
      correct_key.(2 * k) <- config = 1;
      correct_key.((2 * k) + 1) <- config = 2)
    camo.ambiguous;
  { Locking.Lock.circuit = out;
    key_inputs;
    data_inputs = Array.of_list (List.rev !data_inputs);
    correct_key }

(** Constrained synthesis check (Sec. III-B: camouflaging is "regular but
    constrained synthesis"): area overhead of a camouflaged design, where
    every ambiguous cell costs the area of its largest candidate. *)
let area_overhead camo =
  let base = (Circuit.stats camo.circuit).Circuit.area in
  let worst_candidate =
    Array.fold_left (fun acc k -> Float.max acc (Gate.area k)) 0.0 candidates
  in
  let extra =
    List.fold_left
      (fun acc (node, _) -> acc +. (worst_candidate -. Gate.area (Circuit.kind camo.circuit node)))
      0.0 camo.ambiguous
  in
  (base +. extra) /. base

(** Oracle-guided de-camouflaging via the SAT attack; returns the number of
    DIPs and whether the recovered functions are equivalent. *)
let decamouflage ?(max_iterations = 256) camo =
  let locked = to_locked camo in
  let oracle = Locking.Sat_attack.oracle_of_circuit camo.circuit in
  let result = Locking.Sat_attack.run ~max_iterations ~oracle locked in
  let success = Locking.Sat_attack.recovered_key_correct locked ~original:camo.circuit result in
  result.Locking.Sat_attack.iterations, success
