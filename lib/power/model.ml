(** Pre-silicon power-trace simulation — the substitution for measuring a
    physical chip with an oscilloscope.

    Each simulated clock cycle yields a trace: the cycle is divided into
    time bins and every net transition (from the glitch-aware event
    simulation) deposits the switching energy of its driving cell into the
    bin of its time stamp. Gaussian noise of configurable sigma models the
    measurement chain. This is the standard CMOS dynamic-power proxy the
    paper's timing-and-power-verification row relies on: leakage present in
    this model is leakage an attacker with a probe will see. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type config = {
  time_bins : int;  (* samples per clock cycle *)
  bin_width_ps : float;
  noise_sigma : float;  (* additive Gaussian noise per sample *)
}

let default_config = { time_bins = 16; bin_width_ps = 50.0; noise_sigma = 0.5 }

(** One cycle's power trace for the transition [prev_inputs] ->
    [next_inputs]. [input_arrivals] skews input switch times. Each
    transition is binned as the event simulation emits it, in time
    order. *)
let trace rng ?input_arrivals ?state circuit ~config ~prev_inputs ~next_inputs =
  let samples = Array.make config.time_bins 0.0 in
  let last = config.time_bins - 1 in
  Timing.Event_sim.iter ?input_arrivals ?state circuit ~prev_inputs ~next_inputs
    ~f:(fun time node _ ->
      let bin = Float.to_int (time /. config.bin_width_ps) in
      let bin = if bin < 0 then 0 else if bin > last then last else bin in
      samples.(bin) <- samples.(bin) +. Gate.switch_energy (Circuit.kind circuit node));
  if config.noise_sigma > 0.0 then
    for k = 0 to config.time_bins - 1 do
      samples.(k) <-
        samples.(k) +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:config.noise_sigma
    done;
  samples

(** Total-energy sample (the whole cycle integrated into one number); the
    model CPA-style attacks typically assume. *)
let total_energy rng ?state circuit ~noise_sigma ~prev_inputs ~next_inputs =
  (* A one-slot float array keeps the running sum unboxed. *)
  let e = [| 0.0 |] in
  Timing.Event_sim.iter ?state circuit ~prev_inputs ~next_inputs ~f:(fun _ node _ ->
      e.(0) <- e.(0) +. Gate.switch_energy (Circuit.kind circuit node));
  e.(0) +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma

(* Net-value buffer for the zero-delay samplers: the caller-provided
   [?scratch] when present (hoisted out of a trace-campaign loop — zero
   per-sample allocation), a fresh array otherwise. *)
let value_buffer ?scratch circuit =
  match scratch with
  | Some b ->
    assert (Array.length b >= Circuit.node_count circuit);
    b
  | None -> Array.make (Circuit.node_count circuit) false

(** Zero-delay Hamming-distance power model: energy proportional to the
    number of nets whose settled value changes between two input vectors.
    Cheaper than event simulation; no glitch component. [scratch] /
    [scratch2] are reusable net-value buffers (>= node count each). *)
let hamming_distance_sample rng ?scratch ?scratch2 circuit ~noise_sigma ~prev_inputs
    ~next_inputs =
  let before = value_buffer ?scratch circuit in
  let after = value_buffer ?scratch:scratch2 circuit in
  Netlist.Sim.eval_all_into circuit prev_inputs ~into:before;
  Netlist.Sim.eval_all_into circuit next_inputs ~into:after;
  let e = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    if before.(i) <> after.(i) then
      e := !e +. Gate.switch_energy (Circuit.kind circuit i)
  done;
  !e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma

(** Hamming-weight model of the settled state: energy proportional to the
    weighted count of nets at 1. Used for leakage models of precharged
    buses. [scratch] is a reusable net-value buffer (>= node count). *)
let hamming_weight_sample rng ?scratch circuit ~noise_sigma ~inputs =
  let values = value_buffer ?scratch circuit in
  Netlist.Sim.eval_all_into circuit inputs ~into:values;
  let e = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    if values.(i) then e := !e +. Gate.switch_energy (Circuit.kind circuit i)
  done;
  !e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma

(** {!hamming_weight_sample} with the circuit resolved once — input ids,
    cell kinds, fanin arrays and per-cell energies — for campaigns that
    sample one circuit thousands of times. Same result, bit for bit.
    [scratch] is the net-value buffer (length >= node count); concurrent
    callers need distinct buffers. *)
let hamming_weight_sampler circuit =
  let n = Circuit.node_count circuit in
  let input_ids = Circuit.inputs circuit and dff_ids = Circuit.dffs circuit in
  let kinds = Array.init n (Circuit.kind circuit) in
  let fanins = Array.init n (Circuit.fanins circuit) in
  let energy = Array.map Gate.switch_energy kinds in
  fun rng ~scratch:values ~noise_sigma ~inputs ->
    Array.iteri (fun k id -> values.(id) <- inputs.(k)) input_ids;
    Array.iter (fun id -> values.(id) <- false) dff_ids;
    for i = 0 to n - 1 do
      match kinds.(i) with
      | Gate.Input | Gate.Dff -> ()
      | k -> values.(i) <- Gate.eval_indexed k fanins.(i) values
    done;
    let e = ref 0.0 in
    for i = 0 to n - 1 do
      if values.(i) then e := !e +. energy.(i)
    done;
    !e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma

(** Static leakage-current proxy per gate (IDDQ model): each cell draws a
    nominal quiescent current depending on its input state; Trojans add
    extra cells and thus extra leakage. The [temperature_factor] models
    environmental spread between measurements. *)
let iddq_sample rng ?scratch circuit ~inputs ~noise_sigma ~temperature_factor =
  let values = value_buffer ?scratch circuit in
  Netlist.Sim.eval_all_into circuit inputs ~into:values;
  let total = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    let base = 0.1 *. Gate.area (Circuit.kind circuit i) in
    (* Input-state dependence: a conducting stack leaks slightly more. *)
    let state_factor = if values.(i) then 1.1 else 0.9 in
    total := !total +. (base *. state_factor)
  done;
  (!total *. temperature_factor)
  +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma
