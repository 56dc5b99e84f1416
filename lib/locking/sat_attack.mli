(** The oracle-guided SAT attack on logic locking (Subramanyan et al.;
    the paper cites its SMT successor [33]). The attacker holds the locked
    netlist and a working chip (the oracle); distinguishing input patterns
    prune keys until any consistent key is provably correct. *)

type status =
  | Converged  (** no DIP remains: the returned key is provably correct *)
  | Iteration_limit  (** DIP loop hit [max_iterations]; the scheme resisted *)
  | Budget_exhausted of Eda_util.Budget.exhaustion
      (** solver budget ran out mid-attack *)

type result = {
  key : bool array option;
      (** recovered key — provably correct when [status = Converged];
          under [Budget_exhausted] a best-effort key consistent with the
          I/O pairs recorded so far (may or may not unlock the design) *)
  iterations : int;  (** number of DIP oracle queries completed *)
  solver_stats : Sat.Solver.stats;
  status : status;
}

(** Run the attack; [oracle data] must return the correct outputs for the
    data inputs. [max_iterations] (default 256) bounds the DIP loop.
    [budget] bounds total solver work (one step per conflict);
    [iteration_steps] additionally caps each individual DIP query. On any
    exhaustion the attack returns honestly instead of hanging: [status]
    records the reason and [iterations] the DIPs completed. The attack
    is deterministic: the same netlist, oracle and budget give the same
    DIP sequence, key and solver stats.
    @raise Invalid_argument when the locked circuit has DFFs; the
    message names the DFF count. *)
val run :
  ?max_iterations:int ->
  ?budget:Eda_util.Budget.t ->
  ?iteration_steps:int ->
  oracle:(bool array -> bool array) ->
  Lock.locked ->
  result

(** Checked entry point: lints the locked netlist first and converts
    internal failures into structured errors. *)
val run_checked :
  ?max_iterations:int ->
  ?budget:Eda_util.Budget.t ->
  ?iteration_steps:int ->
  oracle:(bool array -> bool array) ->
  Lock.locked ->
  (result, Eda_util.Eda_error.t) Stdlib.result

val describe_status : status -> string

(** Oracle built from the original (activated) circuit. *)
val oracle_of_circuit : Netlist.Circuit.t -> bool array -> bool array

(** Success check: the recovered key need not equal the inserted key
    bit-for-bit, only activate an equivalent circuit (SAT-checked). *)
val recovered_key_correct : Lock.locked -> original:Netlist.Circuit.t -> result -> bool
