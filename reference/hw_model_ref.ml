(** The one-shot zero-delay Hamming-weight model that
    {!Power.Model.hamming_weight_sampler} replaced, kept verbatim as its
    differential oracle: it evaluates the circuit through
    {!Netlist.Sim.eval_all_into} and reads every cell's kind and energy
    per call, where the sampler tables the energies once per circuit. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

(** Weighted Hamming weight of the settled state, plus Gaussian noise.
    [scratch] is a reusable net-value buffer (>= node count); a fresh one
    is allocated without it. *)
let hamming_weight_sample rng ?scratch circuit ~noise_sigma ~inputs =
  let values =
    match scratch with
    | Some b ->
      assert (Array.length b >= Circuit.node_count circuit);
      b
    | None -> Array.make (Circuit.node_count circuit) false
  in
  Netlist.Sim.eval_all_into circuit inputs ~into:values;
  let e = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    if values.(i) then e := !e +. Gate.switch_energy (Circuit.kind circuit i)
  done;
  !e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma
