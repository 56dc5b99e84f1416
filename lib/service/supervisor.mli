(** The supervised job engine: every engine invocation a {!Job.t},
    dispatched in deterministic waves with per-attempt budgets carved
    from a global admission budget, failures classified and contained.

    The supervisor's one promise: {!run} never raises, and every
    submitted job ends in exactly one structured terminal {!state} —

    - [Done] — the work concluded with a note;
    - [Failed] — the work kept refusing: a permanent error fails on the
      first attempt, a transient one only after the policy's retries
      (with exponential backoff and per-job jitter) are spent;
    - [Shed] — the supervisor refused to run it at all: the queue was
      over its depth limit at admission, or the admission budget ran
      out before its wave;
    - [Quarantined] — the circuit breaker: once a class accumulates
      [quarantine_after] consecutive failures, its remaining jobs are
      refused without dispatch (a success resets the class's count).

    {2 Failure taxonomy}

    Classification keys off the {!Eda_util.Eda_error.t} constructor:
    [Parse_error], [Lint_error] and [Invalid_input] are [Permanent] —
    the input is wrong and retrying cannot fix it; [Budget_exhausted]
    and [Engine_failure] are [Transient] — a bigger slice or a rerun
    may succeed. A raised exception is contained (on a pool, by
    {!Eda_util.Pool.parallel_try_map}'s per-task isolation), converted
    to [Engine_failure], and classified like any other transient error.

    {2 Determinism}

    Results are bit-identical across pool sizes (1, 2, 8 domains):
    waves have a fixed size independent of the domain count, all
    classification / retry / quarantine / shed decisions happen on the
    caller's domain in job-index order between waves, the admission
    budget is charged only there (crashed attempts charge zero), and
    each job's backoff jitter comes from its own {!Eda_util.Rng.split}
    stream. Wall-clock sleeps ([config.sleep]) and per-attempt deadline
    checks are the only nondeterministic inputs; with step budgets and
    [sleep = ignore] a run is a pure function of seed and inputs —
    {!fingerprint} is the bit-identity probe tests compare. *)

type severity = Transient | Permanent

(** Map a structured error to whether retrying could help. *)
val classify : Eda_util.Eda_error.t -> severity

type shed_reason =
  | Queue_depth of { limit : int }
  | Admission_exhausted of Eda_util.Budget.exhaustion

type state =
  | Done of string
  | Failed of { error : Eda_util.Eda_error.t; severity : severity; attempts : int }
  | Shed of shed_reason
  | Quarantined of { klass : string; strikes : int }

(** ["done" | "failed" | "shed" | "quarantined"] — stable machine key. *)
val state_code : state -> string

val describe_state : state -> string

type outcome = {
  job : Job.t;
  state : state;
  attempts : int;  (** dispatched attempts; 0 for shed/quarantined jobs *)
  backoffs : float list;  (** the waits scheduled before each retry, in order *)
}

type report = {
  outcomes : outcome list;  (** submission order *)
  succeeded : int;
  failed : int;
  shed : int;
  quarantined : int;
  retries : int;
  waves : int;
}

(** Jobs that ended [Failed] — the CLI's exit-status criterion. *)
val permanently_failed : report -> int

(** One line per job — name, class, terminal state, attempts, backoff
    schedule — for bit-identity comparison across pool sizes. *)
val fingerprint : report -> string

type config = {
  wave_size : int;
      (** jobs dispatched per wave — fixed, NOT the domain count, so
          outcomes don't depend on parallelism (default 8) *)
  max_queue_depth : int option;
      (** admission cap: submissions beyond it are [Shed] up front *)
  quarantine_after : int;
      (** consecutive failures that trip a class's breaker (default 3) *)
  sleep : float -> unit;
      (** how to wait out a backoff (default [Unix.sleepf], clamped);
          tests pass [ignore] *)
}

val default_config : config

(** [run ?pool ?budget ?config rng jobs] supervises [jobs] to completion
    and never raises. [budget] is the admission budget shared by every
    job (default unlimited); per-attempt budgets are detached slices of
    it capped by each job's policy. With [pool], attempts within a wave
    run on worker domains; without, they run sequentially — terminal
    states are identical either way. *)
val run :
  ?pool:Eda_util.Pool.t ->
  ?budget:Eda_util.Budget.t ->
  ?config:config ->
  Eda_util.Rng.t ->
  Job.t list ->
  report
