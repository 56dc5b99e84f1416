(** Fault models and faulty simulation: permanent stuck-at faults (the
    ATPG target), transient bit-flips (laser/EM injection). Injection
    overrides the fault site's value during evaluation — the simulation-
    level substitute for a physical rig. Every fault simulation sees one
    combinational frame, with every DFF output at 0, and runs on one of
    two engines, one per query shape. A single pattern against many
    faults (fault injection, dropping after one new test) runs on the
    lane sweep {!detects_many}: up to {!lanes} faults, each in its own
    bit lane, beside the fault-free circuit in the top lane. A pattern
    set against a fault list ({!fault_simulation}, {!coverage}, ATPG's
    random phase) runs on the pattern-parallel engine {!psim}: 63
    patterns per word, one fault at a time. A multi-cycle stuck-at is a
    {!faulty_copy} stepped by {!Netlist.Sim.step}. *)

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

(** Scratch of the pattern-parallel engine (PPSFP): up to 63 input
    {e patterns} in the bit lanes of each net word, one fault at a time,
    in {!detects_many}'s frame (DFF outputs read 0, DFF consumers do not
    propagate). One {!Netlist.Sim} word sweep gives the fault-free words;
    each fanout stem's observability comes from inverting it and
    propagating event-driven through its fanout region in level order;
    every net inside a fanout-free region gets its lanes by critical-path
    tracing back from its stem. *)
type psim

(** The engine for [circuit], with its topology resolved once. *)
val psim_create : Netlist.Circuit.t -> psim

(** [simulate_word p inputs ~patterns] loads [patterns] (1 to 63) input
    patterns: bit [j] of [inputs.(k)] is input [k] of pattern [j].
    @raise Invalid_argument on another count. *)
val simulate_word : psim -> int array -> patterns:int -> unit

(** The lanes of the loaded word whose pattern detects [fault]: bit [j]
    is set iff pattern [j] changes some primary output under [fault],
    exactly as {!detects_many} on that pattern. A word pays only for
    the fanout regions of the faults it is asked about. *)
val detecting_lanes : psim -> fault -> int

(** Per-fault detection by a pattern set, 63 patterns per word on the
    pattern-parallel engine. *)
val fault_simulation :
  Netlist.Circuit.t -> faults:fault list -> patterns:bool array list -> (fault * bool) list

(** Fraction of [faults] detected by [patterns] (1.0 on an empty list). *)
val coverage : Netlist.Circuit.t -> faults:fault list -> patterns:bool array list -> float
