(** Functional simulation of circuits: single-pattern, bit-parallel
    (63 patterns per machine word) and multi-cycle sequential.

    Every evaluation runs one kernel, the word sweep. A single pattern is
    evaluated on broadcast inputs (true loads -1, false loads 0, so every
    lane carries the pattern) and read back as [w <> 0]. *)

(** Values of every net for one input assignment, indexed by node id.
    DFF outputs come from [state] (all-false when absent); inputs follow
    the circuit's input declaration order. *)
val eval_all : ?state:bool array -> Circuit.t -> bool array -> bool array

(** As {!eval_all}, but writes the broadcast net words into the
    caller-supplied buffer [into] (length >= node count) instead of
    allocating: net [i] is true iff [into.(i) <> 0]. The buffer may be
    dirty from a previous call: input and DFF slots are (re)initialized
    and every combinational net is overwritten. *)
val eval_all_into : ?state:bool array -> Circuit.t -> bool array -> into:int array -> unit

(** Primary outputs for one input assignment, in output declaration order. *)
val eval : ?state:bool array -> Circuit.t -> bool array -> bool array

(** Bit-parallel evaluation: each input word carries up to 63 independent
    patterns; returns all net words. *)
val eval_all_word : ?state:int array -> Circuit.t -> int array -> int array

(** Reusable-buffer variant of {!eval_all_word}; zero per-pattern
    allocation when the buffer is hoisted out of the sweep loop. *)
val eval_all_word_into : ?state:int array -> Circuit.t -> int array -> into:int array -> unit

(** One clock cycle of a sequential circuit: (outputs, next DFF state). *)
val step : Circuit.t -> state:bool array -> bool array -> bool array * bool array

(** Truth table of one output (combinational circuits, <= 16 inputs). *)
val truth_table : Circuit.t -> output:int -> Logic.Truth_table.t

(** Exhaustive functional equivalence (combinational, <= 20 inputs);
    word-parallel, 63 patterns per circuit sweep. *)
val equivalent_exhaustive : Circuit.t -> Circuit.t -> bool

(** Randomized functional equivalence for wider circuits; sound only in
    the "no counterexample found" direction. Word-parallel: at least
    [patterns] patterns are compared, rounded up to full 63-pattern
    words. *)
val equivalent_random : Eda_util.Rng.t -> patterns:int -> Circuit.t -> Circuit.t -> bool

(** Per-node one-probability estimated over random patterns; the input to
    rare-signal (Trojan trigger) analysis. 63 patterns per word with
    reused buffers — no per-pattern allocation. *)
val signal_probabilities : Eda_util.Rng.t -> patterns:int -> Circuit.t -> float array
