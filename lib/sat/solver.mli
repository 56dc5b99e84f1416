(** Conflict-driven clause learning SAT solver.

    Two-watched-literal propagation, first-UIP learning, VSIDS-style
    decisions, Luby restarts, phase saving, incremental solving under
    assumptions. Variables are created with {!new_var}; literals are
    encoded as [2v] (positive) / [2v+1] (negative).

    The core is allocation-free: the trail is a flat preallocated array
    indexed by a propagation head pointer (decision levels are trail
    offsets), clauses live inline in one int-array arena and are named
    by their offsets, watch lists are int vectors compacted in place,
    literal values are stored per literal, and conflict analysis reuses
    scratch buffers. Decisions come from an activity heap ({!Var_heap})
    that picks the highest-activity unassigned decision variable (see
    {!set_decision}), ties to the lowest index. Learnt clauses carry
    activity and LBD scores and live in a bounded database: when it
    outgrows its limit, the cold half is dropped (binary, low-LBD and
    reason clauses are kept) — see {!set_learnt_limit} /
    {!set_db_reduction}. *)

type lit = int

val lit_of_var : int -> sign:bool -> lit
val var_of_lit : lit -> int

(** True for positive literals. *)
val pos : lit -> bool

val negate : lit -> lit

type t

val create : unit -> t

(** Allocate the next variable index. *)
val new_var : t -> int

(** Allocate [n] consecutive variables and return the first index (so the
    block is [v .. v+n-1]). One growth check instead of [n]; the bulk
    allocation path for CNF encoders. *)
val new_vars : t -> int -> int

(** Raised by {!add_clause} when the formula is unsatisfiable at the root
    level (no assumptions involved). *)
exception Unsat_root

(** Add a clause. Backtracks to the root level first, so it is safe to
    call between incremental {!solve} invocations. Tautologies are
    dropped; root-satisfied clauses are skipped; unit clauses are
    propagated eagerly.
    @raise Unsat_root if the clause is falsified at level 0. *)
val add_clause : t -> lit list -> unit

type result =
  | Sat
  | Unsat
  | Unknown of Eda_util.Budget.exhaustion
      (** Budget ran out before the search concluded; only possible when a
          budget was passed. *)

(** Solve under [assumptions] (default none). The solver state is
    reusable across calls; learnt clauses persist — including across an
    [Unknown] answer, so a retry with a fresh budget resumes where the
    bounded run stopped (DB reduction only drops cold clauses, never the
    whole database). An [Unsat] answer under assumptions means no model
    extends them; without assumptions it is global unsatisfiability.

    [budget] is charged one step per conflict and its deadline/cancel flag
    is additionally checked periodically between decisions. Without a
    budget the search is unbounded and never answers [Unknown]. *)
val solve : ?budget:Eda_util.Budget.t -> ?assumptions:lit list -> t -> result

(** Model access after a [Sat] answer; unassigned variables read false. *)
val model_value : t -> int -> bool

(** [set_decision s v b] sets MiniSat's decision-variable flag: when [b]
    is false, the search never branches on [v], which then takes a value
    only by propagation, and {!solve} answers [Sat] once every decision
    variable is assigned without conflict, [v] possibly still unassigned
    (it then reads false in {!model_value}). Every variable starts as a
    decision variable, and {!shrink_vars} sets the flag again on the
    variables it releases.

    {b Soundness contract.} A [Sat] answer is only as good as the
    caller's guarantee that every conflict-free assignment of the
    decision variables extends to a model of the whole formula. A
    circuit's Tseitin encoding gives it when the decision variables are
    the nets of a fan-in-closed set plus variables whose clauses mention
    no other net: a net outside the set then takes the value its fanins
    compute, and a primary input outside it may take any value ([false]
    in the model when propagation left it unassigned). [Unsat] answers
    need no such guarantee.
    @raise Invalid_argument when [v] is not an allocated variable. *)
val set_decision : t -> int -> bool -> unit

(** {2 Clause groups}

    A clause group tags clauses with a shared activation literal: every
    clause added through {!add_clause_in} carries the extra disjunct
    [¬act], making the whole group inert unless a {!solve} call assumes
    {!group_lit}. This is the classic MiniSat activation-literal idiom
    for incremental sessions — encode a shared base formula once, push
    each query's private clauses under a fresh group, solve under the
    group's assumption, then retire the group.

    {!retire_group} permanently falsifies the activation variable with a
    root unit clause and then physically removes the group's clauses
    {e and every learnt clause derived from them}:
    resolution can never eliminate [¬act] (no clause contains the
    positive activation literal), so each such learnt clause contains
    [¬act] and becomes root-satisfied. Learnt clauses that mention only
    base-formula variables survive and keep accelerating later queries.
    Retirement visits only the group's own clauses and the learnt
    database when the activation unit is the only root literal added
    since the last sweep, and otherwise sweeps like {!simplify}; clauses
    that mention an activation variable must therefore be added with
    {!add_clause_in}, or a retirement may leave them in place.

    Answers are unaffected: with the assumption installed a group behaves
    exactly as if its clauses had been added plainly, and after
    retirement exactly as if they never existed (differential-tested
    against a fresh solver in the test suite). *)

type group

(** Allocate a group (costs one variable — the activation variable). *)
val new_group : t -> group

(** The positive activation literal; pass it in [assumptions] to enable
    the group's clauses for one {!solve} call. *)
val group_lit : group -> lit

(** Add a clause guarded by the group's activation literal.
    @raise Invalid_argument if the group was retired. *)
val add_clause_in : t -> group -> lit list -> unit

(** Permanently deactivate a group and reclaim its clauses and learnt
    descendants (see the section comment); the removal is exactly what
    {!simplify} would remove. Idempotent. *)
val retire_group : t -> group -> unit

(** Remove every root-satisfied clause from the watch lists and the
    learnt database. Antecedents of root assignments are detached first
    (conflict analysis never consults level-0 reasons), so clauses locked
    only by a root assignment are reclaimed too. Sound unconditionally;
    {!retire_group} runs this sweep, or the part of it its group can
    affect. *)
val simplify : t -> unit

(** Roll variable allocation back to [n] variables. The caller must have
    removed every clause mentioning a released variable first — the
    intended use is recycling per-query scratch variables above a fixed
    floor after {!retire_group}. Root assignments, activity, saved
    phases and decision flags of released variables are reset, so
    re-allocating the same indices behaves like fresh variables, and the
    surviving variables' decision heuristic is reset as by
    {!reset_activity}, so the next
    query starts from a fresh solver's order. Dropping a retired group's
    activation unit from the root trail keeps a later retirement on the
    group-sized path.
    @raise Invalid_argument when [n] is negative or above the current
    variable count. *)
val shrink_vars : t -> int -> unit

(** Reset the decision heuristic — VSIDS activities and saved phases —
    to a fresh solver's initial state (all-zero activity, so decisions
    go by lowest index until conflicts bump it; all-false phases).
    Incremental sessions call this between unrelated queries: stale
    activity or phases from an earlier query can deterministically steer
    the search into a pathological subtree. Learnt clauses are
    unaffected. *)
val reset_activity : t -> unit

(** Override the learnt-database size limit (default: automatic,
    [max 2000 #problem-clauses]). Passing [0] restores the automatic
    limit. Setting a small limit forces frequent reductions — used by
    stress tests and benchmarks. *)
val set_learnt_limit : t -> int -> unit

(** Enable or disable periodic learnt-DB reduction (enabled by default).
    Disabling reproduces the unbounded-growth behaviour of the reference
    solver — useful for determinism comparisons. *)
val set_db_reduction : t -> bool -> unit

(** A copy of the live learnt clauses, in database order. *)
val learnt_clauses : t -> lit array list

type stats = {
  vars : int;
  clauses : int;  (** live problem (non-learnt) clauses *)
  conflicts : int;
  decisions : int;
  propagations : int;
  learnt : int;  (** total clauses ever learnt *)
  learnt_live : int;  (** learnt clauses currently in the database *)
  restarts : int;
  db_reductions : int;  (** number of [reduce_db] passes *)
  clauses_deleted : int;  (** learnt clauses dropped by reduction *)
}

val stats : t -> stats
