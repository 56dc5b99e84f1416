(** Split manufacturing: the untrusted foundry sees the FEOL (cells and
    short wires); the trusted facility adds the BEOL (long wires). The
    attacker guesses the hidden connections; the defender lifts wires and
    perturbs placement to push the attack toward random guessing. *)

type connection = { from_node : int; to_node : int; to_pin : int }

type split = {
  placement : Physical.Placement.t;
  visible : connection list;  (** FEOL: readable by the foundry *)
  hidden : connection list;  (** BEOL: must be guessed *)
}

(** Every fanin edge as a pin-accurate connection. *)
val all_connections : Netlist.Circuit.t -> connection list

(** Connections spanning more than [feol_threshold] grid units go to the
    BEOL. *)
val split_by_length : feol_threshold:int -> Physical.Placement.t -> split

(** Wire-lifting defense [53]: additionally hide the given [fraction] of
    visible wires, shortest (most informative) first.
    @raise Invalid_argument when [fraction] is outside [0, 1] or NaN. *)
val lift_wires : fraction:float -> split -> split

(** Proximity attack: each hidden sink matched to the nearest candidate
    driver by Manhattan distance (candidates = pins with BEOL via stubs;
    ties to the lowest node id; a sink never matches itself). Returns the
    correct-connection rate. A bucketed nearest-candidate search gives the
    same answer as scanning every candidate, on any positions (shared
    sites and off-grid ones included), at no worse asymptotic cost. *)
val proximity_attack : split -> float

(** Expected CCR of random guessing over the same candidate pool — the
    ideal-defense target [54]. *)
val random_guess_ccr : split -> float

(** The adversary's end-goal metric: (visible + correctly guessed hidden)
    / all connections. *)
val netlist_recovery_rate : split -> float

(** Total BEOL wirelength (defense cost proxy). *)
val hidden_wirelength : split -> int
