(** Correlation power analysis (Brier et al. [1]) against the first-round
    AES byte datapath: the attacker records one power sample per encryption
    of a known random plaintext byte and correlates it, for each of the 256
    key guesses, with the Hamming weight of the predicted S-box output.
    The correct key yields the (absolutely) largest correlation. *)

module Stats = Eda_util.Stats
module Rng = Eda_util.Rng

type attack_result = {
  best_guess : int;
  correlations : float array;  (* per key guess *)
  correct_rank : int option;  (* rank of [correct_key] if provided *)
}

(** Rank guesses by |rho| descending; rank 0 = best. *)
let rank_of correlations key =
  let scored = Array.mapi (fun g r -> (Float.abs r, g)) correlations in
  Array.sort (fun (a, _) (b, _) -> compare b a) scored;
  let rec find i =
    if i >= Array.length scored then None
    else begin
      let _, g = scored.(i) in
      if g = key then Some i else find (i + 1)
    end
  in
  find 0

(** Attack from observed (plaintext byte, power sample) pairs. *)
let attack ?correct_key observations =
  let n = List.length observations in
  let plaintexts = Array.make n 0 and samples = Array.make n 0.0 in
  List.iteri
    (fun i (p, s) ->
      plaintexts.(i) <- p;
      samples.(i) <- s)
    observations;
  let correlations =
    Array.init 256 (fun guess ->
        let model =
          Array.map
            (fun p -> Float.of_int (Stats.hamming_weight ~bits:8 Crypto.Aes.sbox.(p lxor guess)))
            plaintexts
        in
        Stats.pearson model samples)
  in
  let best_guess = Stats.argmax (Array.map Float.abs correlations) in
  { best_guess;
    correlations;
    correct_rank = Option.map (fun k -> Option.value ~default:255 (rank_of correlations k)) correct_key }

(** End-to-end campaign against a circuit with inputs p0..p7, k0..k7 (the
    [Crypto.Sbox_circuit.aes_round_datapath] interface): simulate [traces]
    encryptions with random plaintexts under [key]. The default leakage is
    the settled-state Hamming weight (a precharged/dynamic-logic model,
    which matches the attack's HW hypothesis); [`Switching] uses the
    glitch-aware total switching energy between consecutive encryptions —
    noisier for the attacker, hence needing more traces. *)
let campaign ?(leakage = `Hamming_weight) rng circuit ~key ~traces ~noise_sigma =
  let observations = ref [] in
  let prev = ref 0 in
  let hamming_weight = Power.Model.hamming_weight_sampler circuit in
  let scratch = Array.make (Netlist.Circuit.node_count circuit) 0 in
  for _ = 1 to traces do
    let p = Rng.int rng 256 in
    let next_inputs =
      Array.append (Crypto.Sbox_circuit.byte_to_bits p) (Crypto.Sbox_circuit.byte_to_bits key)
    in
    let sample =
      match leakage with
      | `Hamming_weight ->
        (hamming_weight ~scratch ~lanes:1 ~inputs:(Array.map Bool.to_int next_inputs)).(0)
        +. Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma
      | `Switching ->
        let prev_inputs =
          Array.append (Crypto.Sbox_circuit.byte_to_bits !prev)
            (Crypto.Sbox_circuit.byte_to_bits key)
        in
        Power.Model.total_energy rng circuit ~noise_sigma ~prev_inputs ~next_inputs
    in
    observations := (p, sample) :: !observations;
    prev := p
  done;
  attack ~correct_key:key !observations

(** Success-rate curve: fraction of successful key recoveries as a function
    of trace count; the measurements-to-disclosure shape. *)
let success_rate_curve ?leakage rng circuit ~key ~trace_counts ~trials ~noise_sigma =
  List.map
    (fun traces ->
      let successes = ref 0 in
      for _ = 1 to trials do
        let result = campaign ?leakage rng circuit ~key ~traces ~noise_sigma in
        if result.best_guess = key then incr successes
      done;
      traces, Stats.success_rate !successes trials)
    trace_counts
