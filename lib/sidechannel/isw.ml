(** Share codec and stimulus for masked circuits — the assessment side of
    the paper's motivational example (Sec. II-B).

    The gadgets themselves come from {!Synth.Masking.transform} (style
    [Isw] is the ISW private-circuit AND, with its security-critical
    association order); this module splits secrets into XOR shares,
    drives a masked circuit's inputs with fresh shares and randomness,
    and decodes its outputs. *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng
module Masking = Synth.Masking

(** Re-attach a masked descriptor to a synthesized version of its circuit:
    node ids change across synthesis passes, but share and randomness input
    names are preserved, so they are re-resolved by name. *)
let rebind (masked : Masking.masked) circuit =
  let resolve nm =
    match Circuit.find_by_name circuit nm with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Isw.rebind: input %s lost by synthesis" nm)
  in
  let rebind_ids old_circuit ids =
    Array.map (fun id -> resolve (Circuit.name old_circuit id)) ids
  in
  { masked with
    circuit;
    input_shares =
      List.map (fun (nm, ids) -> nm, rebind_ids masked.circuit ids) masked.input_shares;
    random_inputs = rebind_ids masked.circuit masked.random_inputs }

(** Split [value] into [shares] random XOR shares. *)
let encode rng ~shares value =
  let sh = Array.init shares (fun _ -> Rng.bool rng) in
  let parity = Array.fold_left ( <> ) false sh in
  if parity <> value then sh.(0) <- not sh.(0);
  sh

let decode sh = Array.fold_left ( <> ) false sh

let stimulus rng c ~shares ~input_shares ~random_inputs ~values =
  let vec = Array.make (Circuit.num_inputs c) false in
  (* Share and randomness inputs may interleave, so translate node ids to
     input positions via the declaration order. *)
  let pos_of = Circuit.input_position c in
  List.iter
    (fun (name, ids) ->
      let value =
        match List.assoc_opt name values with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Isw.stimulus: missing input %s" name)
      in
      let sh = encode rng ~shares value in
      Array.iteri (fun s id -> vec.(pos_of id) <- sh.(s)) ids)
    input_shares;
  Array.iter (fun id -> vec.(pos_of id) <- Rng.bool rng) random_inputs;
  vec

let decode_outputs c ~output_shares outs =
  let out_positions = Hashtbl.create 16 in
  Array.iteri (fun pos (nm, _) -> Hashtbl.replace out_positions nm pos) (Circuit.outputs c);
  List.map
    (fun (nm, share_names) ->
      nm, decode (Array.map (fun sn -> outs.(Hashtbl.find out_positions sn)) share_names))
    output_shares

let input_vector rng (masked : Masking.masked) ~values =
  stimulus rng masked.circuit ~shares:masked.shares ~input_shares:masked.input_shares
    ~random_inputs:masked.random_inputs ~values

let eval rng (masked : Masking.masked) ~values =
  let outs = Netlist.Sim.eval masked.circuit (input_vector rng masked ~values) in
  decode_outputs masked.circuit ~output_shares:masked.output_shares outs
