(** Fixed-size [Domain.t] worker pool with deterministic reduction.

    The engines this pool serves (TVLA trace batches and the supervised
    job waves of [Service]) are loops over independent tasks. The pool
    runs those tasks on [size] domains — the calling domain participates
    as slot 0, [size - 1] spawned domains fill the rest — while keeping
    every *result* independent of the domain count:

    - {b ordered reduction}: [parallel_map] returns results positionally,
      so downstream folds see task [i]'s result at index [i] no matter
      which domain ran it or when it finished;
    - {b per-task randomness}: callers split their generator with
      {!Rng.split} and hand stream [i] to task [i]; no generator is ever
      shared across tasks;
    - {b cooperative cancellation}: an atomic stop flag is set when the
      caller's {!Budget} reports exhaustion (polled on slot 0 between
      tasks). Unstarted tasks are skipped ([None]); running tasks can
      observe the flag via [ctx.cancelled] or a polling
      [ctx.task_budget]. All domains are joined before any call
      returns — a cancelled batch still leaves the pool reusable.

    Telemetry is ambient per domain; worker domains start without the
    caller's context, so each task instead runs under a private capture
    context ({!Telemetry.capture_task}): everything the task records is
    buffered in a [pool.task] span tagged with [task]/[domain]
    attributes, and after the join the buffers are merged into the
    caller's trace in task-index order ({!Telemetry.absorb}) — span ids
    remapped, worker spans reparented under the dispatching [pool.batch]
    span. Deterministic workloads merge bit-identically at any pool size
    once {!Telemetry.Trace.canonicalize} drops scheduling noise. The
    pool also counts [pool.tasks] and [pool.steals] per batch from the
    caller's domain, both stamped from one clock reading per batch;
    per-domain busy time comes from the [pool.task] spans
    ({!Telemetry.Trace.domain_timeline}).

    The pool is not reentrant (no pool calls from inside tasks) and
    serves one calling domain at a time. *)

type t

(** What a task knows about its execution context. *)
type task_ctx = {
  task_index : int;  (** index of this task in the submitted batch *)
  slot : int;  (** executing slot, 0 = the calling domain *)
  cancelled : unit -> bool;
      (** true once the batch is stopping, or a lower-index task has
          raised *)
  task_budget : ?steps:int -> ?seconds:float -> unit -> Budget.t;
      (** fresh per-task budget (wall-clock based) whose [status] also
          reads as [Cancelled] once the batch stops — hand it to solver
          calls so they abort promptly on cancellation *)
}

val size : t -> int

(** [with_pool ?num_domains f] spawns a pool, runs [f] on it and always
    joins its worker domains afterwards; the pool must not escape [f].
    [num_domains] defaults to [Domain.recommended_domain_count ()] and is
    clamped to [1, 64]. A pool of size 1 spawns no domains and runs every
    task inline on the caller — same code path, zero parallelism, ambient
    telemetry intact. *)
val with_pool : ?num_domains:int -> (t -> 'a) -> 'a

(** Pool size implied by the environment: [SECURE_EDA_JOBS] when set to
    a positive integer, else 1. The CLI reads this as its [-j] default,
    so exporting the variable widens every CLI run at once; the pool
    tests pin its parsing. *)
val default_jobs : unit -> int

(** [parallel_map ?budget ?label ?chunk t ~f inputs] runs
    [f ctx inputs.(i)] for every [i] and returns the results in input
    order. [None] marks a task skipped by cancellation. A task that
    raises bounds the batch at its index: tasks above the lowest raising
    index are skipped (a running one reads [ctx.cancelled] as true),
    every task below it still runs, all domains are joined, and the
    lowest-index exception is re-raised — the same one at any schedule
    and domain count, unless the [budget] cancels the batch first.
    [budget] is only polled for exhaustion — the pool never charges it;
    engines account their own steps on the calling domain.

    [chunk] (default 1) is the scheduling grain: each atomic claim takes
    up to [chunk] consecutive tasks, amortizing per-claim bookkeeping
    when tasks are tiny. Chunking affects scheduling only — which domain
    runs what — never results: the result array is positional and the
    stop flag is still polled before every task. Steals stay grain-1 so
    the tail rebalances. Raise it (e.g. [tasks / (4 * size)]) when tasks
    are microseconds; leave it at 1 when tasks are chunky or wildly
    uneven. *)
val parallel_map :
  ?budget:Budget.t ->
  ?label:string ->
  ?chunk:int ->
  t ->
  f:(task_ctx -> 'a -> 'b) ->
  'a array ->
  'b option array

(** Crash-isolating variant of {!parallel_map}: a task that raises
    yields [Some (Error exn)] at its own index and the rest of the batch
    keeps running — one crash never cancels its siblings and nothing is
    re-raised. [None] still marks tasks skipped because the [budget]
    exhausted (or an external cancel fired) before they started. The
    join is unconditional: the call returns only after every domain has
    finished its last task, so the pool is always reusable afterwards —
    the substrate the supervised job engine ({!module:Service} in the
    main library) builds on. *)
val parallel_try_map :
  ?budget:Budget.t ->
  ?label:string ->
  ?chunk:int ->
  t ->
  f:(task_ctx -> 'a -> 'b) ->
  'a array ->
  ('b, exn) result option array
