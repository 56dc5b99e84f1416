(** SAT-based automatic test pattern generation for single stuck-at
    faults on combinational circuits: for each fault, a miter between the
    clean circuit and a faulty copy either yields a detecting pattern or
    proves the fault untestable (redundant logic).

    One entry point, optional capabilities — the repo-wide convention:
    {!run} always works; pass [?budget] to bound it, install a
    {!Eda_util.Telemetry} sink to observe it. The engine is incremental
    and greedy: one persistent {!Sat.Cnf.Stuck_at_session} (clean
    circuit encoded once, per-fault cones under retired clause groups)
    answers the head remaining fault, and each fresh pattern is
    word-parallel fault-simulated against the remaining faults to drop
    what it covers. The whole campaign runs in order on the calling
    domain; [?pool] is accepted for the uniform engine signature and
    ignored, so reports are identical with or without one. *)

type pattern_result =
  | Pattern of bool array  (** input assignment that detects the fault *)
  | Untestable  (** proven redundant: no pattern exists *)
  | Abstained of Eda_util.Budget.exhaustion  (** budget ran out mid-proof *)

(** Generate a test for one stuck-at fault, optionally bounded.
    @raise Invalid_argument on transient (non-stuck-at) faults. *)
val generate :
  ?budget:Eda_util.Budget.t ->
  ?on_stats:(Sat.Solver.stats -> unit) ->
  Netlist.Circuit.t ->
  Fault.Model.fault ->
  pattern_result

(** Outcome of a (possibly bounded) ATPG run. Coverage counts only faults
    with a generated detecting pattern — on exhaustion it is the honest
    partial number, never an extrapolation. *)
type report = {
  patterns : bool array list;
  coverage : float;  (** detected faults / total faults *)
  untestable : Fault.Model.fault list;
  faults_total : int;
  faults_remaining : int;  (** unprocessed because the budget ran out *)
  exhausted : Eda_util.Budget.exhaustion option;
  solver_stats : Sat.Solver.stats;  (** totals over all per-fault miter queries *)
}

(** Full ATPG campaign: a deterministic random-pattern bootstrap, then
    one greedy loop of incremental-session SAT queries, each fresh
    pattern word-parallel fault-simulated against the remaining faults
    (63 per sweep). [budget] goes straight into each query: one step per
    solver conflict plus one per fault processed, so a step cap of [k]
    spends at most [k] conflicts and [k + 1] steps. [faults] restricts
    the campaign to an explicit fault list (default: every stuck-at
    fault of the circuit) — the benchmark harness uses deterministic
    subsets to keep large circuits tractable; coverage is then relative
    to that list. [pool] and [chunk] are ignored: the campaign runs on
    the calling domain, so reports are identical with or without them,
    also when a budget truncates the run. Emits an [atpg.run] span with
    outcome/session counters and a coverage gauge when telemetry is
    installed. *)
val run :
  ?budget:Eda_util.Budget.t ->
  ?pool:Eda_util.Pool.t ->
  ?chunk:int ->
  ?faults:Fault.Model.fault list ->
  Netlist.Circuit.t ->
  report

(** {!run} behind a netlist lint and an exception guard, for untrusted
    inputs. *)
val run_checked :
  ?budget:Eda_util.Budget.t ->
  ?pool:Eda_util.Pool.t ->
  ?chunk:int ->
  ?faults:Fault.Model.fault list ->
  Netlist.Circuit.t ->
  (report, Eda_util.Eda_error.t) result

(** Redundancy removal: iteratively replace nodes whose stuck-at faults
    are untestable by the stuck constant and re-simplify — the classic
    synthesis-for-test connection (redundant logic hides watermarks and
    Trojans, and caps fault coverage). *)
val remove_redundancy : Netlist.Circuit.t -> Netlist.Circuit.t
