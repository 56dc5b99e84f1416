(** Share codec and stimulus for masked circuits. The gadgets are built
    by {!Synth.Masking} (the ISW private circuit of the paper's
    motivational example, and DOM with or without its register stage);
    this module splits secrets into XOR shares, drives a masked circuit
    with fresh shares and randomness, and decodes its outputs. *)

(** Re-attach a masked descriptor to a synthesized version of its circuit:
    ids change across passes, input names do not.
    @raise Invalid_argument if synthesis dropped a share/random input. *)
val rebind : Synth.Masking.masked -> Netlist.Circuit.t -> Synth.Masking.masked

(** Split [value] into fresh random XOR shares: [shares] bits are drawn,
    then share 0 is flipped if their parity misses [value]. *)
val encode : Eda_util.Rng.t -> shares:int -> bool -> bool array

(** {!encode} with [shares = Array.length positions], written into lane
    [lane] of a word vector (the lane layout of
    {!Power.Model.hamming_weight_sampler}): share [s] sets bit [lane] of
    [words.(positions.(s))] when it is 1. Bits are only ever set, so the
    lane must be clear. Same draws, so the same shares, as {!encode}. *)
val encode_lane :
  Eda_util.Rng.t -> bool -> words:int array -> positions:int array -> lane:int -> unit

(** XOR-recombine shares. *)
val decode : bool array -> bool

(** {!input_vector}'s draws written into lane [lane] of input words (as
    {!encode_lane}), with the share groups and randomness inputs already
    resolved to input positions: [groups] pairs each shared input's name
    with its share positions, [randoms] lists the randomness positions.
    Same draws, so the same vector, as {!input_vector}.
    @raise Invalid_argument when [values] misses a shared input. *)
val stimulus_lane :
  Eda_util.Rng.t ->
  groups:(string * int array) list ->
  randoms:int array ->
  values:(string * bool) list ->
  words:int array ->
  lane:int ->
  unit

(** Full input vector of a masked descriptor's circuit from original
    input [values]: each input's shares are drawn by {!encode} in
    [input_shares] order, then one fresh bit per randomness input.
    @raise Invalid_argument when [values] misses a shared input. *)
val input_vector :
  Eda_util.Rng.t -> Synth.Masking.masked -> values:(string * bool) list -> bool array

(** Evaluate on original inputs with fresh masking: the register stage
    is clocked [latency] cycles with the inputs held, then the outputs
    are decoded from their shares. *)
val eval :
  Eda_util.Rng.t -> Synth.Masking.masked -> values:(string * bool) list -> (string * bool) list
