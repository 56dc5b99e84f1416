(** Fresh-solver stuck-at check — the oracle {!Sat.Cnf.Stuck_at_session}
    is differential-tested against. Production ATPG answers every query
    on a session; this is kept for the test suite only.

    Each query builds a new solver holding the clean circuit and a whole
    faulty copy ({!Fault.Model.faulty_copy}: the fault site replaced by
    its stuck constant), ties their primary inputs and latched state
    (DFF outputs are free variables, one time frame, as in
    {!Sat.Cnf.encode}), and asks whether some output differs. It shares
    no cone marking, clause group, variable recycling or learnt clause
    with the session, so a bug in any of those shows up as a differing
    status. Whole-copy miters get slow on large circuits; use it on
    test-sized designs. *)

module Circuit = Netlist.Circuit
module Solver = Sat.Solver
module Cnf = Sat.Cnf

(** [Equivalent] when [node] stuck at [value] is undetectable, otherwise
    a detecting input assignment.
    @raise Invalid_argument when [node] is out of range. *)
let check_stuck_at circuit ~node ~value =
  if node < 0 || node >= Circuit.node_count circuit then
    invalid_arg "Stuck_at_ref.check_stuck_at: node out of range";
  let faulty = Fault.Model.faulty_copy circuit (Fault.Model.Stuck_at { node; value }) in
  let solver = Solver.create () in
  let add = Solver.add_clause solver in
  let env_c = Cnf.encode ~solver circuit in
  let env_f = Cnf.encode ~solver faulty in
  let vars env ids = Array.map (fun id -> env.Cnf.vars.(id)) ids in
  let ins = vars env_c (Circuit.inputs circuit) in
  Array.iter2 (Cnf.tie ~add) ins (vars env_f (Circuit.inputs faulty));
  Array.iter2 (Cnf.tie ~add) (vars env_c (Circuit.dffs circuit)) (vars env_f (Circuit.dffs faulty));
  let any =
    Cnf.differs solver ~add (vars env_c (Circuit.output_ids circuit))
      (vars env_f (Circuit.output_ids faulty))
  in
  match
    add [ Solver.lit_of_var any ~sign:true ];
    Solver.solve solver
  with
  | Solver.Unsat | (exception Solver.Unsat_root) -> Cnf.Equivalent
  | Solver.Sat -> Cnf.Counterexample (Array.map (Solver.model_value solver) ins)
  | Solver.Unknown e -> Cnf.Equiv_unknown e
