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

(* Net-word buffer for the zero-delay samplers: the caller-provided
   [?scratch] when present (hoisted out of a trace-campaign loop — zero
   per-sample allocation), a fresh array otherwise. *)
let value_buffer ?scratch circuit =
  match scratch with
  | Some b ->
    assert (Array.length b >= Circuit.node_count circuit);
    b
  | None -> Array.make (Circuit.node_count circuit) 0

(** Zero-delay Hamming-distance power model: energy proportional to the
    number of nets whose settled value changes between two input vectors.
    Cheaper than event simulation; no glitch component. [scratch] /
    [scratch2] are reusable net-word buffers (>= node count each). *)
let hamming_distance_sample rng ?scratch ?scratch2 circuit ~noise_sigma ~prev_inputs
    ~next_inputs =
  let before = value_buffer ?scratch circuit in
  let after = value_buffer ?scratch:scratch2 circuit in
  Netlist.Sim.eval_all_into circuit prev_inputs ~into:before;
  Netlist.Sim.eval_all_into circuit next_inputs ~into:after;
  let e = ref 0.0 in
  for i = 0 to Circuit.node_count circuit - 1 do
    (* Broadcast words differ exactly where the settled values do. *)
    if before.(i) <> after.(i) then
      e := !e +. Gate.switch_energy (Circuit.kind circuit i)
  done;
  !e +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma

(** Hamming-weight model of the settled state: energy proportional to the
    weighted count of nets at 1, the leakage model of precharged buses.
    The per-net energies are tabled once, for campaigns that sample one
    circuit thousands of times. Word-parallel: bit [j] of input word [k]
    is input [k] of trace (lane) [j], one {!Netlist.Sim.eval_all_word_into}
    sweep (DFF outputs at 0) evaluates up to 63 traces, and lane [j]'s
    energy is summed over the nets in node order, the order of a
    one-trace evaluation, so a trace's energy does not depend on its lane
    or on the traces beside it. [scratch] is the net-word buffer (length
    >= node count); concurrent callers need distinct buffers. *)
let hamming_weight_sampler circuit =
  let n = Circuit.node_count circuit in
  (* [pick.(2i + b)]: net [i]'s term when its value is [b]. A net at 0
     adds +0.0 to a non-negative sum, which leaves it unchanged, so the
     branchless sum equals the sum over the nets at 1, bit for bit. *)
  let pick = Array.make (2 * n) 0.0 in
  for i = 0 to n - 1 do
    pick.((2 * i) + 1) <- Gate.switch_energy (Circuit.kind circuit i)
  done;
  fun ~scratch:values ~lanes ~inputs ->
    if lanes < 1 || lanes > 63 then
      invalid_arg (Printf.sprintf "Power.Model.hamming_weight_sampler: %d lanes" lanes);
    Netlist.Sim.eval_all_word_into circuit inputs ~into:values;
    let energies = Array.make lanes 0.0 in
    (* Four lanes per sweep: four independent sums keep the float adder
       busy, and each still adds its nets in node order. *)
    let quads = lanes / 4 in
    for q = 0 to quads - 1 do
      let l = 4 * q in
      let e0 = ref 0.0 and e1 = ref 0.0 and e2 = ref 0.0 and e3 = ref 0.0 in
      for i = 0 to n - 1 do
        let w = values.(i) lsr l and b = 2 * i in
        e0 := !e0 +. pick.(b + (w land 1));
        e1 := !e1 +. pick.(b + ((w lsr 1) land 1));
        e2 := !e2 +. pick.(b + ((w lsr 2) land 1));
        e3 := !e3 +. pick.(b + ((w lsr 3) land 1))
      done;
      energies.(l) <- !e0;
      energies.(l + 1) <- !e1;
      energies.(l + 2) <- !e2;
      energies.(l + 3) <- !e3
    done;
    for j = 4 * quads to lanes - 1 do
      let e = ref 0.0 in
      for i = 0 to n - 1 do
        e := !e +. pick.((2 * i) + ((values.(i) lsr j) land 1))
      done;
      energies.(j) <- !e
    done;
    energies

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
    let state_factor = if values.(i) <> 0 then 1.1 else 0.9 in
    total := !total +. (base *. state_factor)
  done;
  (!total *. temperature_factor)
  +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:noise_sigma
