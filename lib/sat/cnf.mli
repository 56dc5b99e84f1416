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

(** Fresh variable constrained to the XOR of two existing variables. *)
val xor_var : Solver.t -> int -> int -> int

(** Fresh variable constrained to the OR of existing variables. *)
val or_var : Solver.t -> int list -> int

(** Three-valued outcome of a bounded equivalence query. *)
type equivalence =
  | Equivalent
  | Counterexample of bool array  (** distinguishing input assignment *)
  | Equiv_unknown of Eda_util.Budget.exhaustion

(** Combinational equivalence bounded by [budget] (one step per solver
    conflict). Without a budget the answer is never [Equiv_unknown].
    [on_stats] observes the internal miter solver's statistics.
    @raise Eda_util.Eda_error.Error on interface mismatch. *)
val check_equivalence_b :
  ?budget:Eda_util.Budget.t ->
  ?on_stats:(Solver.stats -> unit) ->
  Netlist.Circuit.t ->
  Netlist.Circuit.t ->
  equivalence

(** Cone-based stuck-at detectability query — the ATPG miter. The clean
    circuit is encoded once; faulty variables exist only in the fault's
    transitive fanout cone (cut at DFF boundaries), and the miter XORs
    only the affected outputs. Outside the cone the copies share
    variables, so the solver never has to re-derive their equality —
    this is what keeps per-fault queries tractable on 10k+-gate
    circuits, where a whole-copy miter blows up. [Equivalent] means
    undetectable (the cone reaches no output, or the miter is UNSAT);
    [Counterexample] carries a detecting input assignment.
    @raise Invalid_argument when [node] is out of range. *)
val check_stuck_at :
  ?budget:Eda_util.Budget.t ->
  ?on_stats:(Solver.stats -> unit) ->
  Netlist.Circuit.t ->
  node:int ->
  value:bool ->
  equivalence

(** Incremental stuck-at sessions: the clean circuit is Tseitin-encoded
    {e once} per session; each {!Stuck_at_session.query} adds only the
    fault's fanout-cone faulty copy and miter under a fresh clause group
    ({!Solver.new_group}), solves under the group's activation literal,
    and retires the group afterwards. Learnt clauses about the clean
    circuit persist across queries and accelerate every later one, while
    {!Solver.shrink_vars} recycles each query's variable indices so the
    session's footprint stays bounded by one query.

    Answers match fresh-solver {!check_stuck_at} exactly — both are
    sound and complete, so the per-fault status is identical
    (differential-tested). A [Counterexample]'s witness pattern may
    differ (persistent learnt clauses steer the search), but it always
    detects the fault. Within one session, answers are a deterministic
    function of the query sequence. *)
module Stuck_at_session : sig
  type t

  (** Encode [circuit]'s clean copy once into [solver] (fresh by
      default). *)
  val create : ?solver:Solver.t -> Netlist.Circuit.t -> t

  (** One stuck-at query; same contract as {!check_stuck_at}. The query's
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
    assignment. *)
val check_equivalence : Netlist.Circuit.t -> Netlist.Circuit.t -> bool array option

(** Is output [output] ever true? Returns a witness input when so. *)
val satisfiable_output : Netlist.Circuit.t -> output:int -> bool array option
