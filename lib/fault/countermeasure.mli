(** Fault-attack countermeasures as netlist transforms (error-detecting
    architectures [10], infective countermeasures [18]) and their
    red-team validation. *)

type protected_circuit = {
  circuit : Netlist.Circuit.t;
  data_outputs : string list;  (** the functional outputs *)
  alarm_output : string;  (** raised on a detected error *)
}

(** Independent parity predictor + comparator; detects odd-multiplicity
    output corruption (and misses even — found by [validate]). *)
val parity_protect : Netlist.Circuit.t -> protected_circuit

(** Full duplication with output comparison; detects any fault confined to
    one copy (common-mode input faults escape). *)
val duplicate_protect : Netlist.Circuit.t -> protected_circuit

(** Duplication plus output infection: on a detected error the data
    outputs are scrambled with randomness (input ["infect_rnd"]), denying
    DFA its faulty ciphertexts. Infected outputs are registered with an
    ["_inf"] suffix. *)
val infective_protect : Netlist.Circuit.t -> protected_circuit

type outcome = Silent | Detected | Corrupted_undetected

(** Outcome of one fault under one pattern, on one combinational frame:
    [Detected] when the alarm reads 1 while the fault-free circuit's reads
    0; [Corrupted_undetected] when no alarm rose but some data output
    differs from the fault-free circuit's; [Silent] otherwise. *)
val classify : protected_circuit -> fault:Model.fault -> bool array -> outcome

(** Random-pattern campaign over a fault list: (detected, escaped, silent)
    counts, scoring each fault by its worst outcome ({!classify}'s, an
    escape under any pattern first, then a detection). The patterns are
    drawn from [rng] first; each then runs one word sweep per
    {!Model.lanes} (62) faults. *)
val validate :
  Eda_util.Rng.t ->
  protected_circuit ->
  faults:Model.fault list ->
  patterns:int ->
  int * int * int
