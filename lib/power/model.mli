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
    [scratch]/[scratch2] are reusable net-value buffers (length >= node
    count); hoist them out of a campaign loop for zero per-sample
    allocation. *)
val hamming_distance_sample :
  Eda_util.Rng.t ->
  ?scratch:bool array ->
  ?scratch2:bool array ->
  Netlist.Circuit.t ->
  noise_sigma:float ->
  prev_inputs:bool array ->
  next_inputs:bool array ->
  float

(** Weighted Hamming weight of the settled state (precharged-logic model).
    [scratch] is a reusable net-value buffer (length >= node count). *)
val hamming_weight_sample :
  Eda_util.Rng.t ->
  ?scratch:bool array ->
  Netlist.Circuit.t ->
  noise_sigma:float ->
  inputs:bool array ->
  float

(** {!hamming_weight_sample} with the circuit's input ids, cell kinds,
    fanins and energies resolved once: build it outside a campaign loop.
    Bit-identical to {!hamming_weight_sample}. [scratch] is the net-value
    buffer (length >= node count); concurrent callers need distinct
    buffers. *)
val hamming_weight_sampler :
  Netlist.Circuit.t ->
  Eda_util.Rng.t ->
  scratch:bool array ->
  noise_sigma:float ->
  inputs:bool array ->
  float

(** Quiescent-current (IDDQ) sample: per-cell leakage with input-state
    dependence and an environmental [temperature_factor]. [scratch] is a
    reusable net-value buffer (length >= node count). *)
val iddq_sample :
  Eda_util.Rng.t ->
  ?scratch:bool array ->
  Netlist.Circuit.t ->
  inputs:bool array ->
  noise_sigma:float ->
  temperature_factor:float ->
  float
