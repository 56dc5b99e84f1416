(** Fault models and faulty simulation: permanent stuck-at faults (the
    ATPG target), transient bit-flips (laser/EM injection). Injection
    overrides the fault site's value during evaluation — the simulation-
    level substitute for a physical rig. *)

type fault =
  | Stuck_at of { node : int; value : bool }
  | Bit_flip of { node : int }  (** transient inversion of the computed value *)

val node_of : fault -> int

(** Human-readable description, e.g. ["s-a-1 @ G22"]. *)
val describe : Netlist.Circuit.t -> fault -> string

(** Evaluate all nets with [faults] active. *)
val eval_all_faulty :
  ?state:bool array -> Netlist.Circuit.t -> faults:fault list -> bool array -> bool array

(** Primary outputs with [faults] active. *)
val eval_faulty :
  ?state:bool array -> Netlist.Circuit.t -> faults:fault list -> bool array -> bool array

(** Both polarities of stuck-at on every input, gate and DFF site. *)
val all_stuck_at_faults : Netlist.Circuit.t -> fault list

(** Does the pattern change any primary output under the fault? *)
val detects : Netlist.Circuit.t -> fault:fault -> bool array -> bool

(** Reusable scratch for {!detects_many}: one word-parallel circuit
    evaluation carries up to 63 {e faults} in the bit lanes of each net
    word, against a single broadcast input pattern. *)
type wsim

(** Scratch sized for [circuit] (usable for any circuit with at most as
    many nodes). *)
val wsim_create : Netlist.Circuit.t -> wsim

(** [detects_many w circuit ~faults ~pos ~len pattern] fault-simulates
    [pattern] against the slice [faults.(pos) .. faults.(pos + len - 1)]
    in one sweep; bit [k] of the result is set iff [pattern] detects
    [faults.(pos + k)] on a primary output. Agrees with per-fault
    {!detects} lane by lane; allocation-free after {!wsim_create}.
    @raise Invalid_argument when [len] exceeds 63, the slice leaves
    [faults], or the scratch was built for a smaller circuit. *)
val detects_many :
  wsim -> Netlist.Circuit.t -> faults:fault array -> pos:int -> len:int -> bool array -> int

(** Per-fault detection by a pattern set. *)
val fault_simulation :
  Netlist.Circuit.t -> faults:fault list -> patterns:bool array list -> (fault * bool) list

(** Fraction of [faults] detected by [patterns] (1.0 on an empty list). *)
val coverage : Netlist.Circuit.t -> faults:fault list -> patterns:bool array list -> float
