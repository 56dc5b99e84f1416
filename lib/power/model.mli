(** Pre-silicon power-trace simulation — the substitution for measuring a
    physical chip. Traces come from the glitch-aware event simulation
    (switching energy per time bin) or from zero-delay Hamming models;
    Gaussian noise stands in for the measurement chain. *)

type config = {
  time_bins : int;  (** samples per clock cycle *)
  bin_width_ps : float;
  noise_sigma : float;
}

val default_config : config

(** One cycle's trace for the transition [prev_inputs] -> [next_inputs];
    [input_arrivals] skews per-input switch times (late mask refresh). *)
val trace :
  Eda_util.Rng.t ->
  ?input_arrivals:float array ->
  ?state:bool array ->
  Netlist.Circuit.t ->
  config:config ->
  prev_inputs:bool array ->
  next_inputs:bool array ->
  float array

(** Whole cycle integrated into one sample (glitch-aware). *)
val total_energy :
  Eda_util.Rng.t ->
  ?state:bool array ->
  Netlist.Circuit.t ->
  noise_sigma:float ->
  prev_inputs:bool array ->
  next_inputs:bool array ->
  float

(** Zero-delay Hamming-distance sample between two settled states.
    [scratch]/[scratch2] are reusable net-word buffers (length >= node
    count; see {!Netlist.Sim.eval_all_into}); hoist them out of a
    campaign loop for zero per-sample allocation. *)
val hamming_distance_sample :
  Eda_util.Rng.t ->
  ?scratch:int array ->
  ?scratch2:int array ->
  Netlist.Circuit.t ->
  noise_sigma:float ->
  prev_inputs:bool array ->
  next_inputs:bool array ->
  float

(** Weighted Hamming weight of the settled state (precharged-logic
    model), with the per-net energies tabled once: build it outside a
    campaign loop.

    Lane layout: [inputs.(k)] is a word whose bit [j] is input [k]
    (declaration order) of trace [j], for the [lanes] traces
    [0 .. lanes - 1] (at most 63); higher bits are ignored. One
    {!Netlist.Sim.eval_all_word_into} sweep (DFF outputs at 0) evaluates
    every lane, and the result holds lane [j]'s energy, summed over the
    nets at 1 in node order — the same float, bit for bit, as evaluating
    that trace alone in one lane. No noise is added: a campaign draws
    its own, so its draws stay in the order it chose. [scratch] is the
    net-word buffer (length >= node count); concurrent callers need
    distinct buffers.
    @raise Invalid_argument unless [1 <= lanes <= 63]. *)
val hamming_weight_sampler :
  Netlist.Circuit.t ->
  scratch:int array ->
  lanes:int ->
  inputs:int array ->
  float array

(** Quiescent-current (IDDQ) sample: per-cell leakage with input-state
    dependence and an environmental [temperature_factor]. [scratch] is a
    reusable net-word buffer (length >= node count). *)
val iddq_sample :
  Eda_util.Rng.t ->
  ?scratch:int array ->
  Netlist.Circuit.t ->
  inputs:bool array ->
  noise_sigma:float ->
  temperature_factor:float ->
  float
