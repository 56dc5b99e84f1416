(** Order-parametric masked-gadget insertion — the one generator of
    masked gadgets: it builds the private circuit of the Fig. 2 demo,
    the pipelined DOM with its register stage, and, as a synthesis pass,
    masks designs {e inside} the flow.

    Gadgets are emitted as left-to-right chains whose association order
    is the security property; every created net carries the ["mg_"]
    prefix, which doubles as the order barrier for security-aware
    recipes. Randomness inputs are pre-declared and dealt to gadgets
    through a seeded [Rng] permutation, so the output is a pure function
    of (circuit, shares, style, seed) — reproducible across runs.
    Registered as the [mask_insertion] pass
    (params [shares], [style=isw|dom], [seed], [region]). *)

type style =
  | Isw  (** ISW private-circuit AND: fresh randomness per ordered pair,
             [z_qp = (r ^ a_p b_q) ^ a_q b_p] — the private circuit of
             the paper's motivational example *)
  | Dom  (** DOM-indep AND: cross products remasked with randomness
             shared per unordered pair. Without the register stage of
             {!pipelined} only the probing-model argument applies, not
             the glitch one *)

(** @raise Invalid_argument on anything but ["isw"] / ["dom"]. *)
val style_of_string : string -> style

val string_of_style : style -> string

type masked = {
  circuit : Netlist.Circuit.t;
  shares : int;
  style : style;
  latency : int;
      (** clock cycles until the outputs are valid; 0 without a
          register stage *)
  input_shares : (string * int array) list;
      (** per original input, its share input ids in order *)
  random_inputs : int array;  (** randomness inputs, declaration order *)
  output_shares : (string * string array) list;
      (** per original output, its share output names *)
}

(** ["mg_"], the prefix of every net the generator creates. *)
val prefix : string

(** The order-barrier predicate: true for every net the pass created. *)
val protected_name : string -> bool

(** Mask a whole combinational circuit (any basis; converted internally).
    The interface is re-shaped: input [x] becomes [x_s0..x_s<n-1>],
    outputs likewise, plus [mg_r*] randomness inputs.
    @raise Invalid_argument when [shares < 2]. *)
val transform :
  ?shares:int -> ?style:style -> ?seed:int -> Netlist.Circuit.t -> masked

(** {!transform} at style [Dom], seed 0, with DOM's register stage: each
    term ([a_s b_s], and each remasked [a_s b_j ^ z]) is registered
    before integration, operands from earlier stages pass through
    pipeline registers, and every output is aligned to the AND depth,
    which is the [latency]. Same interface naming as {!transform}.
    @raise Invalid_argument when [shares < 2]. *)
val pipelined : shares:int -> Netlist.Circuit.t -> masked

(** Mask one annotated region in place: XOR-encoders split each boundary
    value using fresh [mg_] randomness inputs, the region is replaced by
    its masked counterpart, and XOR-decoders restore the original net
    names at the region exits. The circuit interface (plus the new
    randomness inputs) and function are preserved for {e every} value of
    the randomness inputs.
    @raise Invalid_argument on an empty/unknown region, a region holding
    non-combinational nets, a region that drives nothing, or one consumed
    before its boundary closes (non-convex). *)
val mask_region :
  ?shares:int ->
  ?style:style ->
  ?seed:int ->
  Netlist.Circuit.t ->
  region:string ->
  Netlist.Circuit.t

(** A circuit's input interface as seen by a leakage assessment. *)
type iface = {
  secrets : (string * int array) list;
      (** per original input: its share input ids ([|id|] when unshared) *)
  randoms : int array;  (** masking-randomness inputs, declaration order *)
}

(** Recover the masked interface from input names: [mg_*] inputs are
    masking randomness, [<base>_s<k>] groups are share vectors, anything
    else is an unshared secret. Works on {!transform} output,
    {!mask_region} output and plain unmasked circuits alike — the basis
    for running one TVLA harness over all of them. *)
val interface_of : Netlist.Circuit.t -> iface
