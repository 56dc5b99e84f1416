(** Fault models and faulty simulation: permanent stuck-at faults (the
    ATPG target), transient bit-flips (laser/EM injection). Injection
    overrides the fault site's value during evaluation — the simulation-
    level substitute for a physical rig. Every fault simulation and
    injection runs on one word sweep over one combinational frame: up to
    {!lanes} faults, each in its own bit lane, beside the fault-free
    circuit in the top lane, with every DFF output at 0. A multi-cycle
    stuck-at is a {!faulty_copy} stepped by {!Netlist.Sim.step}. *)

type fault =
  | Stuck_at of { node : int; value : bool }
  | Bit_flip of { node : int }  (** transient inversion of the computed value *)

val node_of : fault -> int

(** Human-readable description, e.g. ["s-a-1 @ G22"]. *)
val describe : Netlist.Circuit.t -> fault -> string

(** A standalone copy of the circuit with a stuck-at fault frozen in:
    the fault site is shadowed downstream, DFF D-inputs included, by a
    constant carrying the stuck value.
    @raise Invalid_argument on a transient ([Bit_flip]) fault. *)
val faulty_copy : Netlist.Circuit.t -> fault -> Netlist.Circuit.t

(** Both polarities of stuck-at on every input, gate and DFF site. *)
val all_stuck_at_faults : Netlist.Circuit.t -> fault list

(** Does the pattern change any primary output under the fault? *)
val detects : Netlist.Circuit.t -> fault:fault -> bool array -> bool

(** Faults per word sweep: 62 fault lanes beside a fault-free lane. *)
val lanes : int

(** Reusable scratch for {!detects_many}: one word-parallel circuit
    evaluation carries up to {!lanes} {e faults} in the bit lanes of each
    net word, beside the fault-free circuit in the top lane, against a
    single broadcast input pattern. *)
type wsim

(** Scratch sized for [circuit] (usable for any circuit with at most as
    many nodes). *)
val wsim_create : Netlist.Circuit.t -> wsim

(** [detects_many w circuit ~faults ~pos ~len pattern] fault-simulates
    [pattern] against the slice [faults.(pos) .. faults.(pos + len - 1)]
    in one sweep; bit [k] of the result is set iff some primary output
    under [faults.(pos + k)] differs from the fault-free top lane. DFF
    outputs read 0. Allocation-free after {!wsim_create}; the test suite
    checks every lane against the scalar oracle in [reference/].
    @raise Invalid_argument when [len] exceeds {!lanes}, the slice leaves
    [faults], or the scratch was built for a smaller circuit. *)
val detects_many :
  wsim -> Netlist.Circuit.t -> faults:fault array -> pos:int -> len:int -> bool array -> int

(** [output_word w circuit k]: the word of primary output [k] after the
    last {!detects_many} sweep on [w]. Bit [j] is the output under the
    slice's fault [j] for [j < len]; bit {!lanes} is the fault-free
    output. *)
val output_word : wsim -> Netlist.Circuit.t -> int -> int

(** Per-fault detection by a pattern set, {!lanes} faults per sweep. *)
val fault_simulation :
  Netlist.Circuit.t -> faults:fault list -> patterns:bool array list -> (fault * bool) list

(** Fraction of [faults] detected by [patterns] (1.0 on an empty list). *)
val coverage : Netlist.Circuit.t -> faults:fault list -> patterns:bool array list -> float
