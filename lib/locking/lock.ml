(** Logic locking (EPIC [24] and friends): key gates inserted into the
    netlist so that only the correct key restores the original function.
    The locked netlist is what an untrusted foundry or end-user sees.

    Input convention of a locked circuit: key inputs are declared first
    (named key0, key1, ...), then the original data inputs in their
    original order. Use [eval] / [apply_key] rather than raw simulation. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng

type locked = {
  circuit : Circuit.t;
  key_inputs : int array;  (* node ids of key inputs *)
  data_inputs : int array;  (* node ids of original inputs, original order *)
  correct_key : bool array;
}

type style =
  | Xor_only  (* key gate polarity reveals the key bit: SAIL-vulnerable *)
  | Polarity_hidden  (* gate type decorrelated from key bit by inverters *)

(** Insert [key_bits] XOR/XNOR key gates on randomly chosen internal nets.
    With the correct key every key gate is transparent. *)
let epic rng ?(style = Polarity_hidden) ~key_bits source =
  if Circuit.num_dffs source > 0 then
    invalid_arg
      (Printf.sprintf "Lock.epic: sequential circuit (%d DFFs); EPIC locks combinational logic only"
         (Circuit.num_dffs source));
  let n = Circuit.node_count source in
  (* Lockable sites: combinational gates (not inputs/constants). *)
  let sites =
    List.filter
      (fun i ->
        match Circuit.kind source i with
        | Gate.Input | Gate.Const _ | Gate.Dff -> false
        | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
        | Gate.Xor | Gate.Xnor | Gate.Mux -> true)
      (List.init n (fun i -> i))
  in
  if key_bits < 0 || key_bits > List.length sites then
    invalid_arg
      (Printf.sprintf "Lock.epic: cannot insert %d key gates, the circuit has %d lockable sites"
         key_bits (List.length sites));
  let chosen = Rng.sample rng key_bits (List.length sites) in
  let site_arr = Array.of_list sites in
  let locked_site = Hashtbl.create 16 in  (* source node -> key index *)
  Array.iteri (fun k idx -> Hashtbl.replace locked_site site_arr.(idx) k) chosen;
  let out = Circuit.create () in
  let key_inputs =
    Array.init key_bits (fun k -> Circuit.add_input ~name:(Printf.sprintf "key%d" k) out)
  in
  let correct_key = Array.init key_bits (fun _ -> Rng.bool rng) in
  let data_inputs = ref [] in
  let remap =
    Circuit.rebuild ~into:out source (fun copy _ i ->
        let id = copy i in
        if Circuit.kind source i = Gate.Input then data_inputs := id :: !data_inputs;
        match Hashtbl.find_opt locked_site i with
        | None -> id
        | Some k ->
          (* Correct key bit k0 makes the gate transparent:
             XOR is transparent for key = 0, XNOR for key = 1. *)
          let key_bit = correct_key.(k) in
          (match style with
           | Xor_only ->
             (* Gate type chosen so the correct key works; type leaks bit. *)
             let kind = if key_bit then Gate.Xnor else Gate.Xor in
             Circuit.add_node_raw out kind [| id; key_inputs.(k) |] ""
           | Polarity_hidden ->
             (* Randomize structure: optionally invert the key input into the
                gate and compensate with the opposite gate type, so XOR/XNOR
                type no longer reveals the key bit. *)
             if Rng.bool rng then begin
               let inv = Circuit.add_node_raw out Gate.Not [| key_inputs.(k) |] "" in
               let kind = if key_bit then Gate.Xor else Gate.Xnor in
               Circuit.add_node_raw out kind [| id; inv |] ""
             end
             else begin
               let kind = if key_bit then Gate.Xnor else Gate.Xor in
               Circuit.add_node_raw out kind [| id; key_inputs.(k) |] ""
             end))
  in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs source);
  { circuit = out;
    key_inputs;
    data_inputs = Array.of_list (List.rev !data_inputs);
    correct_key }

(** Full input vector from a key and data assignment. *)
let input_vector locked ~key ~data =
  let c = locked.circuit in
  let vec = Array.make (Circuit.num_inputs c) false in
  let pos_of = Circuit.input_position c in
  Array.iteri (fun k id -> vec.(pos_of id) <- key.(k)) locked.key_inputs;
  Array.iteri (fun k id -> vec.(pos_of id) <- data.(k)) locked.data_inputs;
  vec

let eval locked ~key ~data =
  Netlist.Sim.eval locked.circuit (input_vector locked ~key ~data)

(** Specialize the locked circuit under a fixed key (ties key inputs to
    constants and simplifies); what an end product with a programmed
    tamper-proof key memory computes. *)
let apply_key locked ~key =
  let c = locked.circuit in
  (* Rebuild with key inputs replaced by constants. *)
  let out = Circuit.create () in
  let is_key = Hashtbl.create 16 in
  Array.iteri (fun k id -> Hashtbl.replace is_key id key.(k)) locked.key_inputs;
  let remap =
    Circuit.rebuild ~into:out c (fun copy _ i ->
        match Hashtbl.find_opt is_key i with
        | Some b ->
          Circuit.add_node_raw out (Gate.Const b) [||] (Circuit.free_name out (Circuit.name c i))
        | None -> copy i)
  in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs c);
  Synth.Pass.apply "constant_propagation" out

(** Correctness of locking (functional-validation row): the locked design
    under the correct key is equivalent to the original; returns the SAT
    counterexample if not. *)
let verify_correct locked ~original =
  let unlocked = apply_key locked ~key:locked.correct_key in
  Sat.Cnf.check_equivalence original unlocked

(** Output-corruption metric of a wrong key: fraction of random patterns on
    which the output differs from the original (50% is ideal corruption). *)
let corruption rng locked ~original ~wrong_key ~patterns =
  let ni = Array.length locked.data_inputs in
  let diff = ref 0 in
  for _ = 1 to patterns do
    let data = Array.init ni (fun _ -> Rng.bool rng) in
    if eval locked ~key:wrong_key ~data <> Netlist.Sim.eval original data then incr diff
  done;
  Float.of_int !diff /. Float.of_int patterns
