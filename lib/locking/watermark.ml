(** IP watermarking — the counterfeiting countermeasure the paper lists
    next to PUFs (Sec. II-A.3, [12]). Two classic schemes with opposite
    robustness properties:

    - [structural]: the signature is spelled by the polarity of
      transparent buffer/double-inverter gadgets spliced into selected
      nets. Zero functional impact — and zero robustness: any resynthesis
      (constant propagation removes double negations) erases it. Included
      as the cautionary baseline.

    - [functional]: the signature is embedded in the circuit's *function*
      on designated don't-care input patterns (unused opcodes etc.): on
      pattern p_k, output 0 is forced to signature bit k. Survives any
      function-preserving resynthesis by construction; costs one
      comparator per signature bit. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng

(* --- structural ------------------------------------------------------- *)

type structural_mark = {
  s_circuit : Circuit.t;
  gadget_names : string array;  (* first gate of each gadget, in bit order *)
  s_signature : bool array;
}

let embed_structural rng ~bits source =
  let eligible =
    List.filter
      (fun i -> Gate.is_combinational (Circuit.kind source i))
      (List.init (Circuit.node_count source) (fun i -> i))
  in
  assert (List.length eligible >= bits);
  let chosen = Rng.sample rng bits (List.length eligible) in
  let arr = Array.of_list eligible in
  let marks = Hashtbl.create 16 in
  Array.iteri (fun k idx -> Hashtbl.replace marks arr.(idx) k) chosen;
  let signature = Array.init bits (fun _ -> Rng.bool rng) in
  let out = Circuit.create () in
  let gadget_names = Array.make bits "" in
  let remap =
    Circuit.rebuild ~into:out source (fun copy _ i ->
        let id = copy i in
        match Hashtbl.find_opt marks i with
        | None -> id
        | Some k ->
          (* bit 1: NOT-NOT gadget; bit 0: BUF-BUF gadget. *)
          let kind = if signature.(k) then Gate.Not else Gate.Buf in
          let g1 = Circuit.add_node_raw out kind [| id |] "" in
          let g2 = Circuit.add_node_raw out kind [| g1 |] "" in
          gadget_names.(k) <- Circuit.name out g1;
          g2)
  in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs source);
  { s_circuit = out; gadget_names; s_signature = signature }

(** Read a structural signature back (owner knows the gadget positions). *)
let read_structural mark =
  Array.map
    (fun nm ->
      match Circuit.find_by_name mark.s_circuit nm with
      | Some id ->
        (match Circuit.kind mark.s_circuit id with
         | Gate.Not -> Some true
         | Gate.Buf -> Some false
         | Gate.Input | Gate.Const _ | Gate.And | Gate.Nand | Gate.Or
         | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Dff -> None)
      | None -> None)
    mark.gadget_names

let structural_intact mark =
  let readout = read_structural mark in
  Array.for_all2 (fun r s -> r = Some s) readout mark.s_signature

(* --- functional ------------------------------------------------------- *)

type functional_mark = {
  f_circuit : Circuit.t;
  patterns : bool array array;  (* the secret don't-care input patterns *)
  f_signature : bool array;
}

(** Embed [bits] signature bits on secret input patterns. The caller
    guarantees the patterns are functional don't-cares of the design's
    specification (unused opcodes, reserved addresses); the transform
    overrides output 0 on those patterns. *)
let embed_functional rng ~bits source =
  let ni = Circuit.num_inputs source in
  assert (ni <= 60);
  let signature = Array.init bits (fun _ -> Rng.bool rng) in
  (* Draw distinct secret patterns. *)
  let seen = Hashtbl.create 16 in
  let patterns =
    Array.init bits (fun _ ->
        let rec fresh () =
          let p = Array.init ni (fun _ -> Rng.bool rng) in
          let key = Array.to_list p in
          if Hashtbl.mem seen key then fresh ()
          else begin
            Hashtbl.replace seen key ();
            p
          end
        in
        fresh ())
  in
  let out = Circuit.create () in
  let remap = Circuit.rebuild ~into:out source (fun copy _ i -> copy i) in
  let ins = Circuit.inputs out in
  (* match_k = AND over input literals of pattern k. *)
  let force =
    Array.to_list
      (Array.mapi
         (fun k p ->
           let literals =
             Array.to_list
               (Array.mapi
                  (fun j b ->
                    if b then ins.(j) else Circuit.add_gate out Gate.Not [ ins.(j) ])
                  p)
           in
           let matches = Circuit.reduce out Gate.And literals in
           k, matches)
         patterns)
  in
  (* Output 0 rerouted: on a match, output the signature bit. *)
  let outs = Circuit.outputs source in
  let final =
    List.fold_left
      (fun acc (k, matches) ->
        let bit = Circuit.add_const out signature.(k) in
        Circuit.add_gate out Gate.Mux [ matches; acc; bit ])
      remap.(snd outs.(0)) force
  in
  Array.iteri
    (fun k (nm, o) -> Circuit.set_output out nm (if k = 0 then final else remap.(o)))
    outs;
  { f_circuit = out; patterns; f_signature = signature }

(** Owner's readout: evaluate the suspect circuit on the secret patterns
    and compare output 0 to the signature. Returns the match count. *)
let verify_functional mark suspect =
  let hits = ref 0 in
  Array.iteri
    (fun k p ->
      if (Netlist.Sim.eval suspect p).(0) = mark.f_signature.(k) then incr hits)
    mark.patterns;
  !hits

(** Probability that an innocent design matches [bits] signature bits by
    chance: 2^-bits (the ownership-proof strength). *)
let false_claim_probability ~bits = 2.0 ** Float.of_int (-bits)
