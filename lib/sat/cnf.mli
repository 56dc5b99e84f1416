(** Tseitin encoding of circuits into a shared SAT solver instance, plus
    miter construction for equivalence checking. The node-to-variable map
    is explicit so attacks can constrain individual nets (keys, scan
    cells, fault sites). *)

type env = {
  solver : Solver.t;
  vars : int array;  (** circuit node id -> solver variable *)
}

(** Literal for a circuit node with the given polarity. *)
val lit : env -> node:int -> sign:bool -> Solver.lit

(** Encode the combinational logic of a circuit (DFF outputs become free
    variables — one unrolled time frame). Several circuits may share one
    [solver] (pass it explicitly) for miters and multi-copy attacks. *)
val encode : ?solver:Solver.t -> Netlist.Circuit.t -> env

(** {1 Miter primitives}

    Every miter — two circuit copies with tied inputs whose outputs are
    compared — is built from {!tie} and {!differs}. Both send their
    clauses to the sink [add]: [Solver.add_clause s] for a one-shot
    miter, [Solver.add_clause_in s g] for a query that clause group [g]
    must be able to retire whole. *)

(** Constrain two variables to be equal (two binary clauses). *)
val tie : add:(Solver.lit list -> unit) -> int -> int -> unit

(** Fresh variable constrained to the XOR of two existing variables. *)
val xor_var : Solver.t -> add:(Solver.lit list -> unit) -> int -> int -> int

(** [differs s ~add xs ys] is a fresh variable that is true exactly when
    [xs.(k) <> ys.(k)] for some [k]: one {!xor_var} per pair in index
    order, then their OR. Assert it for a miter, or assume it to switch
    the miter on per solve.
    @raise Invalid_argument when the arrays differ in length. *)
val differs : Solver.t -> add:(Solver.lit list -> unit) -> int array -> int array -> int

(** Three-valued outcome of a bounded equivalence query. *)
type equivalence =
  | Equivalent
  | Counterexample of bool array  (** distinguishing input assignment *)
  | Equiv_unknown of Eda_util.Budget.exhaustion

(** Incremental stuck-at sessions: the clean circuit is Tseitin-encoded
    {e once} per session; each {!Stuck_at_session.query} adds only the
    fault's fanout-cone faulty copy and miter under a fresh clause group
    ({!Solver.new_group}), solves under the group's activation literal,
    and retires the group afterwards. Learnt clauses about the clean
    circuit persist across queries and accelerate every later one, while
    {!Solver.shrink_vars} recycles each query's variable indices so the
    session's footprint stays bounded by one query.

    The fanout cone of a fault is cut at DFF boundaries (one time frame,
    as {!encode}); a fault whose cone reaches no output is answered
    [Equivalent] without solving. A query branches only on its support,
    the fan-in closure of its cone cut at DFF outputs
    ({!Solver.set_decision}), and a [Counterexample] holds 0 on every
    primary input outside it. Answers match a fresh solver's exactly,
    because both are sound and complete: the test suite checks every
    status against the reference oracle in [reference/], a fresh solver
    per fault over a whole faulty copy. A [Counterexample]'s witness
    pattern may differ (persistent learnt clauses steer the search), but
    it always detects the fault. Within one session, answers are a
    deterministic function of the query sequence. *)
module Stuck_at_session : sig
  type t

  (** Encode [circuit]'s clean copy once into [solver] (fresh by
      default). *)
  val create : ?solver:Solver.t -> Netlist.Circuit.t -> t

  (** Is [node] stuck at [value] detectable? [Equivalent] means
      undetectable; [Counterexample] carries a detecting input
      assignment. Charges [budget] one step per conflict. The query's
      clause group is retired and its variables recycled before
      returning — also after an [Equiv_unknown], so a later retry with a
      larger budget re-encodes only the fault's cone while keeping every
      clean-circuit learnt clause. [on_stats] observes this query's
      solver-statistics {e delta} (capacity fields are post-query
      totals, work fields per-query differences).
      @raise Invalid_argument when [node] is out of range. *)
  val query :
    ?budget:Eda_util.Budget.t ->
    ?on_stats:(Solver.stats -> unit) ->
    t ->
    node:int ->
    value:bool ->
    equivalence

  (** Number of queries issued so far (including cone-misses answered
      without solving). *)
  val queries : t -> int

  (** Session solver's cumulative statistics. *)
  val stats : t -> Solver.stats
end

(** Unbounded combinational equivalence of two identically-shaped
    circuits; [None] when equivalent, otherwise a distinguishing input
    assignment.
    @raise Eda_util.Eda_error.Error ([Invalid_input], what
    ["equivalence query"]) when the input or output counts differ, or
    when either circuit has DFFs (the message names the DFF count). *)
val check_equivalence : Netlist.Circuit.t -> Netlist.Circuit.t -> bool array option

(** Is output [output] ever true? Returns a witness input when so. *)
val satisfiable_output : Netlist.Circuit.t -> output:int -> bool array option
