(** The one-shot zero-delay Hamming-weight model that
    {!Power.Model.hamming_weight_sampler} replaced, kept as its
    differential oracle: it evaluates one pattern through {!Sim_ref}'s
    bool sweep and reads every cell's kind and energy per call, where the
    sampler evaluates 63 lanes per word sweep and tables the energies
    once per circuit. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

(** Weighted Hamming weight of the settled state, plus Gaussian noise. *)
let hamming_weight_sample rng circuit ~noise_sigma ~inputs =
  let values = Sim_ref.eval_all circuit inputs in
  let e = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    if values.(i) then e := !e +. Gate.switch_energy (Circuit.kind circuit i)
  done;
  !e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma
