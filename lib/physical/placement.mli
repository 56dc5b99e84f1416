(** Grid placement by simulated annealing on half-perimeter wirelength
    (HPWL) — the physical-synthesis substrate (Fig. 1's place-and-route
    stage). Proximity is the attack surface of split manufacturing: a
    PPA-optimal placer puts connected cells next to each other, which is
    precisely the hint [52]-style attackers exploit.

    One entry point: {!place} always works; pass [?budget] to bound it
    (annealing is anytime — early stops degrade quality, not validity);
    telemetry is ambient. *)

(** A placement: geometry over the circuit's nodes. The record is
    transparent — IR-drop analysis, shielding and split-manufacturing
    attacks read the grid directly. *)
type t = {
  circuit : Netlist.Circuit.t;
  cols : int;
  rows : int;
  position : (int * int) array;  (** per node: (col, row) *)
}

(** Result of {!place}. *)
type outcome = {
  placement : t;
  moves_performed : int;
      (** annealing moves performed; fewer than requested when the budget
          ran out *)
}

(** [place ?moves ?budget rng circuit] — random initial placement refined
    by simulated annealing on one {!Eda_util.Rng.t} stream. *)
val place :
  ?moves:int ->
  ?budget:Eda_util.Budget.t ->
  Eda_util.Rng.t ->
  Netlist.Circuit.t ->
  outcome

(** Total half-perimeter wirelength of the placement. *)
val wirelength : t -> int

(** Manhattan distance between two placed nodes. *)
val distance : t -> int -> int -> int

(** Placement perturbation defense [54]: re-place with a privacy term
    penalizing proximity of connected cells, trading wirelength for
    resistance against proximity attacks. [lambda] weighs the penalty. *)
val perturb : Eda_util.Rng.t -> lambda:float -> ?moves:int -> t -> t
