(** Share codec and stimulus for masked circuits — the assessment side of
    the paper's motivational example (Sec. II-B).

    The gadgets themselves come from {!Synth.Masking} (style [Isw] is the
    ISW private-circuit AND, with its security-critical association
    order); this module splits secrets into XOR shares,
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

(** Split [value] into [Array.length positions] random XOR shares, into
    one lane of a word vector: share [s] sets bit [lane] of
    [words.(positions.(s))] when it is 1 (bits are only set, so clear the
    lane first). Every share is drawn, then share 0 is flipped if the
    parity misses [value]. *)
let encode_lane rng value ~words ~positions ~lane =
  let bit = 1 lsl lane in
  let first = Rng.bool rng in
  let parity = ref first in
  for s = 1 to Array.length positions - 1 do
    if Rng.bool rng then begin
      parity := not !parity;
      words.(positions.(s)) <- words.(positions.(s)) lor bit
    end
  done;
  if first <> (!parity <> value) then
    words.(positions.(0)) <- words.(positions.(0)) lor bit

(** Split [value] into [shares] random XOR shares. *)
let encode rng ~shares value =
  let words = Array.make shares 0 in
  encode_lane rng value ~words ~positions:(Array.init shares Fun.id) ~lane:0;
  Array.map (fun w -> w <> 0) words

let decode sh = Array.fold_left ( <> ) false sh

let stimulus_lane rng ~groups ~randoms ~values ~words ~lane =
  List.iter
    (fun (name, positions) ->
      let value =
        match List.assoc_opt name values with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Isw.input_vector: missing input %s" name)
      in
      encode_lane rng value ~words ~positions ~lane)
    groups;
  let bit = 1 lsl lane in
  Array.iter (fun p -> if Rng.bool rng then words.(p) <- words.(p) lor bit) randoms

let input_vector rng (masked : Masking.masked) ~values =
  (* Share and randomness inputs may interleave, so translate node ids to
     input positions via the declaration order. *)
  let c = masked.circuit in
  let pos_of = Circuit.input_position c in
  let groups = List.map (fun (name, ids) -> name, Array.map pos_of ids) masked.input_shares in
  let words = Array.make (Circuit.num_inputs c) 0 in
  stimulus_lane rng ~groups ~randoms:(Array.map pos_of masked.random_inputs) ~values ~words
    ~lane:0;
  Array.map (fun w -> w <> 0) words

let eval rng (masked : Masking.masked) ~values =
  let c = masked.circuit in
  let vec = input_vector rng masked ~values in
  (* Clock the register stage [latency] cycles with the inputs held. *)
  let state = ref (Array.make (Circuit.num_dffs c) false) in
  for _ = 1 to masked.latency do
    state := snd (Netlist.Sim.step c ~state:!state vec)
  done;
  let outs = Netlist.Sim.eval ~state:!state c vec in
  List.map
    (fun (nm, share_names) ->
      nm, decode (Array.map (fun sn -> outs.(Circuit.output_position c sn)) share_names))
    masked.output_shares
