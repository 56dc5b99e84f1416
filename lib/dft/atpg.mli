(** Automatic test pattern generation for single stuck-at faults on
    combinational circuits: a random phase, then SAT. For each fault SAT
    is asked about, a miter between the clean circuit and a faulty copy
    either yields a detecting pattern or proves the fault untestable
    (redundant logic).

    One entry point, optional capabilities — the repo-wide convention:
    {!run} always works; pass [?budget] to bound it, install a
    {!Eda_util.Telemetry} sink to observe it. The random phase
    fault-simulates 1,008 fixed random patterns on the pattern-parallel
    engine ({!Fault.Model.psim}) and keeps the first detector of each
    fault it covers. The SAT phase is incremental and greedy: one
    persistent {!Sat.Cnf.Stuck_at_session} (clean circuit encoded once,
    per-fault cones under retired clause groups) answers the head
    remaining fault, and each fresh pattern is fault-simulated against
    the remaining faults on the lane sweep ({!Fault.Model.detects_many})
    to drop what it covers. The whole campaign runs in order on the
    calling domain. *)

type pattern_result =
  | Pattern of bool array  (** input assignment that detects the fault *)
  | Untestable  (** proven redundant: no pattern exists *)
  | Abstained of Eda_util.Budget.exhaustion  (** budget ran out mid-proof *)

(** Generate a test for one stuck-at fault, optionally bounded: one
    query on a one-shot {!Sat.Cnf.Stuck_at_session}, the path {!run}
    takes for every fault.
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

(** Full ATPG campaign: a deterministic random phase of 1,008 patterns
    (16 words of 63) on the pattern-parallel fault simulator, keeping
    exactly the patterns that first detect some fault, then one greedy
    loop of incremental-session SAT queries, each fresh pattern
    fault-simulated against the remaining faults (62 per sweep).
    [budget] is not charged by the random phase; it goes straight into
    each query: one step per solver conflict plus one per fault
    processed, so a step cap of [k] spends at most [k] conflicts and
    [k + 1] steps. The fault list is every stuck-at fault of the
    circuit. Unbounded, [coverage] and [untestable] do not depend on the
    random phase. Emits an [atpg.run] span with an [atpg.random] span,
    outcome/session counters and a coverage gauge when telemetry is
    installed. *)
val run : ?budget:Eda_util.Budget.t -> Netlist.Circuit.t -> report

(** {!run} behind a netlist lint and an exception guard, for untrusted
    inputs. *)
val run_checked :
  ?budget:Eda_util.Budget.t -> Netlist.Circuit.t -> (report, Eda_util.Eda_error.t) result

(** Redundancy removal: iteratively replace nodes whose stuck-at faults
    are untestable by the stuck constant and re-simplify — the classic
    synthesis-for-test connection (redundant logic hides watermarks and
    Trojans, and caps fault coverage). Each pass answers its queries on
    one stuck-at session, which sees one combinational frame.
    @raise Invalid_argument when the circuit has DFFs; the message names
    their count. *)
val remove_redundancy : Netlist.Circuit.t -> Netlist.Circuit.t
