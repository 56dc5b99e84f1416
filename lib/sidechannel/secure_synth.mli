(** The [secure_synthesis] recipe and its TVLA verification pass: mask
    annotated regions inside the flow, re-optimize behind the gadget
    fence, then gate sign-off on a fixed-vs-random TVLA campaign.

    Registration is explicit ({!register}) because this lives above
    [lib/synth] in the dependency order. *)

(** One fixed-vs-random Hamming-weight TVLA campaign over any circuit,
    masked or not. The interface is recovered by name
    ({!Synth.Masking.interface_of}): share groups are re-encoded from the
    secret per trace, gadget randomness ([mg_] inputs) is fresh per
    trace, unshared inputs carry the secret directly. Fixed
    class: all secrets true; random class: uniform. The campaign runs on
    the calling domain: at the gate's trace counts a pool loses. *)
val assess :
  Eda_util.Rng.t ->
  Netlist.Circuit.t ->
  traces_per_class:int ->
  noise_sigma:float ->
  Tvla.result

(** [Tvla.leaks] of {!assess}. *)
val leaks :
  Eda_util.Rng.t ->
  Netlist.Circuit.t ->
  traces_per_class:int ->
  noise_sigma:float ->
  bool

type verification = {
  masked_result : Tvla.result;
  unmasked_result : Tvla.result;
}

(** Assess [masked] and its unmasked [reference] under identical
    campaigns. The acceptance argument is the pair (masked clean,
    reference leaking) — a campaign too weak to catch the unmasked
    design proves nothing about the masked one. *)
val verify :
  Eda_util.Rng.t ->
  reference:Netlist.Circuit.t ->
  Netlist.Circuit.t ->
  traces_per_class:int ->
  noise_sigma:float ->
  verification

(** The recipe: [mask_insertion] → protected re-optimization →
    [tvla_check], an identity pass whose invariant check runs {!assess}
    and fails the pipeline on leakage (params [traces], [noise_sigma],
    [seed]). *)
val secure_synthesis : Synth.Pipeline.t

(** Register both with the [Synth] registries; idempotent. *)
val register : unit -> unit
