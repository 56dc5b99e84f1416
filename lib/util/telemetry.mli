(** Zero-dependency tracing and metrics for every engine in the toolkit.

    Security metrics are step functions of invested effort (Sec. IV); to
    see the step you must record where the effort went — SAT conflicts,
    ATPG fault outcomes, annealing moves, TVLA traces — as the flow runs.
    Telemetry makes every run an analyzable artifact:

    - {b spans}: named, attributed, hierarchically nested intervals whose
      lifecycle follows engine calls ([Flow.run] stages, SAT solves,
      DIP iterations);
    - {b counters / gauges / histograms}: registered by name; histograms
      aggregate online through {!Stats.moments};
    - {b sinks}: {!null} (the default ambient state — near-zero overhead),
      an in-memory collector for tests, and a JSONL exporter streaming one
      event per line.

    The sink is ambient {e per domain} (installed with {!with_sink},
    stored in domain-local storage) so engines need no signature changes;
    with no sink installed every instrumentation point is a single
    DLS read. Worker domains spawned by {!Pool} start with no context;
    the pool installs a private per-task {e capture} context in each
    worker ({!capture_task}), buffers what the task records, and merges
    the buffers back into the installing domain's trace after the join
    ({!absorb}) — span ids remapped onto the caller's id space, worker
    spans reparented under the dispatching [pool.batch] span, buffers
    applied in task-index order. Deterministic workloads therefore
    produce {e bit-identical merged traces at any pool size} once
    scheduling noise is projected away ({!Trace.canonicalize}).

    Clock semantics: the default clock is a monotonized
    [Unix.gettimeofday] — wall-clock seconds, never decreasing — not
    [Sys.time] (process CPU time, which reads wrong on multicore runs).
    Span durations are wall seconds. [?clock] still accepts fake clocks
    for deterministic tests, and [?task_clock] extends the same hook to
    pooled captures. *)

(** Attribute values carried by spans and point events. *)
type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type attrs = (string * value) list

type kind =
  | Span_start
  | Span_end  (** [value] holds the span duration in clock units *)
  | Point  (** a point-in-time note attached to the enclosing span *)
  | Count  (** [value] holds the increment *)
  | Gauge  (** [value] holds the sampled level *)
  | Hist  (** summary of an {!observe} series, emitted at sink teardown *)

type event = {
  kind : kind;
  span : int;  (** owning span id; for span events, the span's own id. 0 = none *)
  parent : int;  (** enclosing span id at emission time; 0 = root *)
  name : string;
  time : float;  (** clock reading at emission *)
  value : float;
  attrs : attrs;
}

(** {1 Sinks} *)

type sink

(** The no-op sink: installing it is identical to having no sink at all. *)
val null : sink

(** In-memory collector; the second component returns everything emitted
    so far, in emission order. *)
val memory_sink : unit -> sink * (unit -> event list)

(** Streams one JSON object per line to [oc] (flushed at teardown). *)
val jsonl_sink : out_channel -> sink

(** A fresh monotonized wall clock: [Unix.gettimeofday] forced
    non-decreasing. One closure per call; the internal ref is meant to
    stay confined to one domain. *)
val monotonic_clock : unit -> unit -> float

(** Install [sink] for the duration of [f]. Nests: the previous sink is
    restored afterwards (also on exceptions). [clock] defaults to a fresh
    {!monotonic_clock} (wall seconds — note this changed from [Sys.time],
    which was CPU seconds); pass a fake clock for deterministic tests.
    [task_clock] is the per-task clock factory used by pooled captures
    ({!capture_task}); it defaults to [fun _ -> monotonic_clock ()] so
    no mutable clock state is shared across domains. [gc] (default
    [false]) attaches per-span allocation deltas ([gc.alloc_words],
    [gc.major_words]) to every {!Span_end} event — useful, but
    nondeterministic, so off unless asked for. At teardown, one {!Hist}
    summary event per {!observe}d name is emitted and the sink is
    flushed. *)
val with_sink :
  ?clock:(unit -> float) ->
  ?task_clock:(int -> unit -> float) ->
  ?gc:bool ->
  sink ->
  (unit -> 'a) ->
  'a

(** True when a non-null sink is installed — use to guard instrumentation
    whose {e argument computation} is not free. *)
val active : unit -> bool

(** {1 Recording} *)

(** Run [f] inside a fresh span. Span ids are per-sink-installation and
    strictly increasing; nesting follows the dynamic call structure.
    An exception escaping [f] still ends the span, with an [error]
    attribute, and is re-raised. *)
val with_span : ?attrs:attrs -> string -> (unit -> 'a) -> 'a

(** The current context's clock reading; 0 with no sink installed. Use
    [?time] below to stamp several bookkeeping events from one reading. *)
val now : unit -> float

(** Point event in the current span. [?time] overrides the clock reading
    (used by {!Pool} to keep the caller's clock-read count independent of
    how many bookkeeping events a batch emits). *)
val note : ?time:float -> ?attrs:attrs -> string -> unit

(** Add [n] to the named counter (registry total) and emit a {!Count}
    event when [n <> 0]. *)
val count : ?time:float -> string -> int -> unit

(** Sample the named gauge. *)
val gauge : ?time:float -> string -> float -> unit

(** Feed one observation into the named histogram ({!Stats.moments}
    under the hood); no per-observation event is emitted — a {!Hist}
    summary (n, mean, std, min, max) appears at sink teardown. *)
val observe : string -> float -> unit

(** {1 Allocation accounting} — the GC cost model shared by per-span
    deltas and the bench harness. *)

type alloc = {
  alloc_words : float;  (** minor + major - promoted: total words allocated *)
  major_words : float;
}

(** Current allocation totals for this domain ([Gc.counters], the live
    allocation counters; does not force a collection). *)
val alloc_snapshot : unit -> alloc

(** Delta between now and an earlier {!alloc_snapshot}. *)
val alloc_since : alloc -> alloc

(** {1 Registry access} (valid inside [with_sink]; empty/0 outside) *)

val counter_total : string -> int
val counter_totals : unit -> (string * int) list  (** sorted by name *)

val gauge_last : string -> float option

(** [(n, mean, std)] of an {!observe} series. *)
val observed : string -> (int * float * float) option

(** [(min, max)] of an {!observe} series; [None] until the first
    observation. *)
val observed_range : string -> (float * float) option

(** {1 Cross-domain capture} — how {!Pool} makes worker telemetry land
    in the installing domain's trace.

    The installing domain takes a {!capture_spec} snapshot of its
    context before dispatch; each worker runs its task under
    {!capture_task}, which installs a private buffering context (events,
    registries, a per-task clock from the spec's factory) and wraps the
    task in a [pool.task] span carrying [task]/[domain] attributes. The
    finished buffer is handed to [into] even when the task raises, so a
    crashing worker still yields a well-formed buffer whose [pool.task]
    span ends with an [error] attribute. After the join the caller
    replays the buffers with {!absorb} {e in task-index order}: span ids
    are remapped onto a fresh block of the caller's id space, buffer
    roots are reparented under the caller's enclosing span, and registry
    totals merge once (counters add, gauges replace so the highest
    absorbed task index wins, moments merge via
    {!Stats.moments_merge}) — the re-emitted [Count] events are stream
    data only and do not double-bump totals. *)

(** A finished task's frozen telemetry: events in emission order plus
    name-sorted registry snapshots. Safe to move across domains. *)
type buffer

(** Immutable slice of the current context a worker needs to build its
    capture context. [None] when no sink is installed — {!capture_task}
    then degrades to running the task bare. *)
type worker_spec

val capture_spec : unit -> worker_spec option

(** Run one pooled task under a private capture context. The buffer is
    delivered to [into] from the worker domain at task end (normal or
    exceptional); the caller must keep it until {!absorb} after the
    join. Exceptions re-raise after delivery. *)
val capture_task :
  worker_spec option -> task:int -> domain:int -> into:(buffer -> unit) -> (unit -> 'a) -> 'a

(** Merge one buffer into the current context (see above for ordering
    and remapping guarantees). Call from the installing domain only,
    inside the span that should adopt the worker spans. *)
val absorb : buffer -> unit

(** {1 JSON} — the minimal encoder/parser behind the JSONL sink, exposed
    for other machine-readable outputs (e.g. bench reports). Strings are
    emitted as pure ASCII: control characters and every code point above
    U+007F become spec-compliant [\uXXXX] escapes (surrogate pairs
    beyond the BMP), and the parser decodes the full escape range back
    to UTF-8 — traces survive strict JSON parsers byte-for-byte. *)

module Json : sig
  type t =
    | Null
    | JBool of bool
    | JInt of int
    | JFloat of float  (** non-finite values serialize as [null] *)
    | JStr of string
    | JList of t list
    | JObj of (string * t) list

  val to_string : t -> string
  val parse : string -> (t, string) result
end

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result

(** One JSONL line (no trailing newline). *)
val event_to_line : event -> string

val event_of_line : string -> (event, string) result

(** {1 Traces} — reconstruction and reporting *)

module Trace : sig
  type span = {
    id : int;
    parent : int;
    name : string;
    start : float;
    mutable duration : float option;  (** [None]: never ended (crashed run) *)
    attrs : attrs;
    mutable end_attrs : attrs;
    mutable children : span list;  (** in start order *)
    mutable counters : (string * float) list;  (** this span's own increments *)
    mutable gauges : (string * float) list;  (** last value per name *)
    mutable notes : (string * attrs) list;
  }

  type t = {
    roots : span list;
    span_count : int;
    event_count : int;
    counter_totals : (string * float) list;  (** whole-trace, sorted *)
    gauge_last : (string * float) list;
    hists : (string * attrs) list;
  }

  (** Rebuild the span tree. [Error] on structural violations (an end or
      a counter referencing a span that never started). *)
  val of_events : event list -> (t, string) result

  (** Parse JSONL text (one event per line; blank lines ignored). *)
  val of_string : string -> (t, string) result

  val of_file : string -> (t, string) result

  (** All spans with the given name, in start order. *)
  val find_spans : t -> string -> span list

  (** Human-readable profile: the span tree with per-span wall time,
      counters and notes, then whole-trace counter/gauge/histogram
      totals. *)
  val pp_profile : Format.formatter -> t -> unit

  (** {2 Analysis} *)

  (** A span's duration; 0 when it never ended. *)
  val duration : span -> float

  (** Duration minus children's durations, clamped at 0 (merged worker
      spans overlap in wall time, so children can sum past the parent). *)
  val self_time : span -> float

  (** Longest root, then repeatedly the longest child; ties break to the
      earliest span in start order. Empty for an empty trace. *)
  val critical_path : t -> span list

  val pp_critical_path : Format.formatter -> t -> unit

  (** Folded stacks: one entry per distinct root-to-span name path
      ([a;b;c], sorted), value = summed self time in seconds. *)
  val fold_stacks : t -> (string * float) list

  (** {!fold_stacks} in the format flamegraph tooling ingests:
      ["path;to;span <self µs>"] per line. *)
  val pp_flame : Format.formatter -> t -> unit

  (** Per-name summed span durations over the whole trace, name-sorted —
      the aggregation {!diff_traces} compares; also the phase-split
      primitive (e.g. encode vs solve seconds) the bench reports. *)
  val span_totals : t -> (string * float) list

  (** Per-domain busy accounting from merged [pool.task] spans:
      [(domain, tasks, busy seconds)], sorted by domain id. *)
  val domain_timeline : t -> (int * int * float) list

  val pp_domains : Format.formatter -> t -> unit

  (** Project away scheduling noise: drops [pool.steals] /
      [pool.utilization] / [pool.domain] events and strips
      [domain]/[domains]/[slot]/[busy_s]/[gc.*] attributes, so a
      deterministic workload's merged trace is bit-identical across pool
      sizes. *)
  val canonicalize : event list -> event list

  (** {2 Trace-vs-trace diff} *)

  type verdict =
    | Regression  (** run worse than base past threshold (slower/bigger) *)
    | Improvement
    | Unchanged
    | Added  (** metric only in the run trace *)
    | Removed  (** metric only in the base trace *)
    | Changed  (** direction-free metrics (gauges) outside threshold *)

  type diff_entry = {
    metric : string;  (** prefixed ["span:"], ["counter:"] or ["gauge:"] *)
    base_value : float option;
    run_value : float option;
    diff_verdict : verdict;
  }

  type diff = {
    entries : diff_entry list;  (** spans, then counters, then gauges; name-sorted *)
    regressions : int;  (** number of [Regression] verdicts *)
  }

  (** Compare [run] against [base]: per-name span duration totals
      (summed over same-named spans), counter totals, and final gauge
      values. Two values compare [Unchanged] under the symmetric
      relative test [r <= b*(1+threshold) && b <= r*(1+threshold)]
      (default threshold 0.25); metrics are assumed nonnegative.
      [min_duration] (seconds, default 0) drops span entries whose
      larger total is below it, so microsecond-level jitter cannot flag
      regressions.

      Direction is per metric: span totals and counters generally
      measure work (bigger is the regression), but optimization-health
      counters ([atpg.session_reused], the SAT queries answered by the
      campaign's already-encoded session; [atpg.faults_dropped] and
      [atpg.covered_by_simulation], the faults swept by fault-simulating
      a pattern) invert — a {e drop} means the fast path stopped
      engaging and reads as [Regression]; neutral workload
      descriptors ([sat.groups_retired], [synth.gates_added],
      [event_sim.transitions]) and gauges read as [Changed]. *)
  val diff_traces : ?threshold:float -> ?min_duration:float -> base:t -> t -> diff

  val pp_diff : Format.formatter -> diff -> unit
end
