(** Logic locking (EPIC [24] and friends): key gates inserted into the
    netlist so that only the correct key restores the original function.

    Input convention of a locked circuit: key inputs are declared first
    (named key0, key1, ...), then the original data inputs in their
    original order. Use {!eval} / {!apply_key} rather than raw
    simulation. *)

type locked = {
  circuit : Netlist.Circuit.t;
  key_inputs : int array;
  data_inputs : int array;
  correct_key : bool array;
}

type style =
  | Xor_only  (** key-gate polarity reveals the key bit: SAIL-vulnerable *)
  | Polarity_hidden  (** gate type decorrelated from the key bit *)

(** Insert [key_bits] XOR/XNOR key gates on randomly chosen internal
    nets (default style {!Polarity_hidden}).
    @raise Invalid_argument when the circuit has DFFs, or fewer lockable
    sites (combinational gates) than [key_bits]; the message names the
    DFF or site count. *)
val epic :
  Eda_util.Rng.t -> ?style:style -> key_bits:int -> Netlist.Circuit.t -> locked

val eval : locked -> key:bool array -> data:bool array -> bool array

(** Specialize under a fixed key (key inputs become constants, then
    constant propagation) — the activated product. *)
val apply_key : locked -> key:bool array -> Netlist.Circuit.t

(** SAT equivalence of the activated design against the original; [None]
    when correct, otherwise a distinguishing input. *)
val verify_correct : locked -> original:Netlist.Circuit.t -> bool array option

(** Fraction of random patterns a wrong key corrupts (ideal: 0.5). *)
val corruption :
  Eda_util.Rng.t ->
  locked ->
  original:Netlist.Circuit.t ->
  wrong_key:bool array ->
  patterns:int ->
  float
