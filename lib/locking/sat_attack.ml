(** The oracle-guided SAT attack on logic locking (Subramanyan et al.; the
    paper cites its SMT successor [33]). The attacker holds the locked
    netlist (reverse-engineered from layout) and a working chip (the
    oracle). Two copies of the locked circuit with shared data inputs and
    independent keys form a miter; each SAT solution is a distinguishing
    input pattern (DIP) whose oracle response prunes all keys disagreeing
    on it. When no DIP remains, any key consistent with the recorded I/O
    pairs is functionally correct. *)

module Circuit = Netlist.Circuit
module Solver = Sat.Solver
module Cnf = Sat.Cnf

module Budget = Eda_util.Budget
module Telemetry = Eda_util.Telemetry

type status =
  | Converged  (* no DIP remains: the returned key is provably correct *)
  | Iteration_limit  (* DIP loop hit max_iterations *)
  | Budget_exhausted of Budget.exhaustion  (* solver budget ran out *)

type result = {
  key : bool array option;
      (* recovered key; provably correct only when [status = Converged],
         best-effort (consistent with the recorded I/O pairs) otherwise *)
  iterations : int;  (* number of DIP queries completed *)
  solver_stats : Solver.stats;
  status : status;
}

let fix solver v b = Solver.add_clause solver [ Solver.lit_of_var v ~sign:b ]

let describe_status = function
  | Converged -> "converged"
  | Iteration_limit -> "iteration limit reached"
  | Budget_exhausted e -> Budget.describe_exhaustion e

(** Run the attack. [oracle data] must return the correct outputs for the
    data inputs (the activated chip).

    [budget] bounds the whole attack (one step per solver conflict);
    [iteration_steps] additionally caps each individual DIP query, so one
    pathological miter cannot consume the entire allowance. On exhaustion
    the attack stops honestly: [status] records the reason, [iterations]
    how many DIPs completed, and [key] carries a best-effort key consistent
    with the I/O pairs recorded so far (extracted under a small grace
    budget), which is exactly the partial progress a real attacker keeps.

    Telemetry: one [sat_attack.run] span for the whole attack, one
    [sat_attack.dip] span per DIP query (the nested [sat.solve] spans
    carry the solver counters), a [sat_attack.dips] counter, and a final
    [sat_attack.status] note. *)
let run ?(max_iterations = 256) ?budget ?iteration_steps ~oracle (locked : Lock.locked) =
  Telemetry.with_span "sat_attack.run"
    ~attrs:
      [ ("key_bits", Telemetry.Int (Array.length locked.Lock.key_inputs));
        ("data_bits", Telemetry.Int (Array.length locked.Lock.data_inputs)) ]
  @@ fun () ->
  let c = locked.Lock.circuit in
  (* The miter ties only the data inputs, so DFF outputs would float
     apart in the two copies. *)
  if Circuit.num_dffs c > 0 then
    invalid_arg
      (Printf.sprintf
         "Sat_attack.run: sequential circuit (%d DFFs); the attack unlocks combinational logic only"
         (Circuit.num_dffs c));
  let solver = Solver.create () in
  let add = Solver.add_clause solver in
  let vars env ids = Array.map (fun id -> env.Cnf.vars.(id)) ids in
  let key_vars env = vars env locked.Lock.key_inputs in
  let data_vars env = vars env locked.Lock.data_inputs in
  let out_vars env = vars env (Circuit.output_ids c) in
  (* The miter: two copies of the locked circuit with shared data inputs
     and independent keys. *)
  let env_a = Cnf.encode ~solver c in
  let env_b = Cnf.encode ~solver c in
  let data = data_vars env_a and keys_a = key_vars env_a and keys_b = key_vars env_b in
  Array.iter2 (Cnf.tie ~add) data (data_vars env_b);
  (* Some output differs: activated by assumption, so it can be dropped
     for the final key extraction. *)
  let any_diff = Cnf.differs solver ~add (out_vars env_a) (out_vars env_b) in
  let miter_on = Solver.lit_of_var any_diff ~sign:true in
  let solve_bounded ?(assumptions = []) () =
    match budget, iteration_steps with
    | None, None -> Solver.solve ~assumptions solver
    | Some b, steps -> Solver.solve ~budget:(Budget.sub ?steps b) ~assumptions solver
    | None, Some steps -> Solver.solve ~budget:(Budget.create ~steps ()) ~assumptions solver
  in
  let model_key () = Array.map (fun v -> Solver.model_value solver v) keys_a in
  (* Best-effort key: any key consistent with the I/O pairs recorded so
     far. Extracted under an independent grace budget so a spent main
     budget still yields partial progress rather than nothing. *)
  let best_effort_key () =
    match Solver.solve ~budget:(Budget.create ~steps:4096 ()) solver with
    | Solver.Sat -> Some (model_key ())
    | Solver.Unsat | Solver.Unknown _ -> None
  in
  let finish ?key iterations status =
    let stats = Solver.stats solver in
    Telemetry.note "sat_attack.status"
      ~attrs:
        [ ("status", Telemetry.Str (describe_status status));
          ("iterations", Telemetry.Int iterations);
          ("key_recovered", Telemetry.Bool (key <> None));
          ("learnt_live", Telemetry.Int stats.Solver.learnt_live);
          ("db_reductions", Telemetry.Int stats.Solver.db_reductions) ];
    { key; iterations; solver_stats = stats; status }
  in
  let rec loop iterations =
    if iterations >= max_iterations then
      (* The scheme resisted this attacker budget; no key claimed. *)
      finish iterations Iteration_limit
    else begin
      match
        Telemetry.with_span "sat_attack.dip"
          ~attrs:[ ("iteration", Telemetry.Int iterations) ]
          (fun () -> solve_bounded ~assumptions:[ miter_on ] ())
      with
      | Solver.Sat ->
        let dip = Array.map (fun v -> Solver.model_value solver v) data in
        let response = oracle dip in
        (* Both key copies must reproduce the oracle response on this DIP,
           enforced on fresh circuit copies. *)
        List.iter
          (fun keys ->
            let env_f = Cnf.encode ~solver c in
            Array.iteri (fun k v -> fix solver v dip.(k)) (data_vars env_f);
            Array.iteri (fun k v -> fix solver v response.(k)) (out_vars env_f);
            Array.iter2 (Cnf.tie ~add) (key_vars env_f) keys)
          [ keys_a; keys_b ];
        Telemetry.count "sat_attack.dips" 1;
        if Telemetry.active () then
          Telemetry.gauge "sat_attack.learnt_db"
            (float_of_int (Solver.stats solver).Solver.learnt_live);
        loop (iterations + 1)
      | Solver.Unknown reason ->
        finish ?key:(best_effort_key ()) iterations (Budget_exhausted reason)
      | Solver.Unsat ->
        (* No distinguishing input remains: extract any consistent key. *)
        (match solve_bounded () with
         | Solver.Sat -> finish ~key:(model_key ()) iterations Converged
         | Solver.Unknown reason ->
           finish ?key:(best_effort_key ()) iterations (Budget_exhausted reason)
         | Solver.Unsat ->
           (* Cannot happen with a truthful oracle. *)
           finish iterations Converged)
    end
  in
  try loop 0 with Solver.Unsat_root -> finish 0 Converged

(** Checked entry point: lint the locked netlist, then run with internal
    failures converted to structured errors. *)
let run_checked ?max_iterations ?budget ?iteration_steps ~oracle locked =
  let open Eda_util.Eda_error in
  let* _ = Netlist.Lint.validate locked.Lock.circuit in
  guard ~engine:"sat-attack" (fun () ->
      run ?max_iterations ?budget ?iteration_steps ~oracle locked)

(** Convenience oracle from the original (unlocked) circuit. *)
let oracle_of_circuit original data = Netlist.Sim.eval original data

(** Attack success check: the recovered key need not equal the inserted
    key bit-for-bit, only produce an equivalent circuit. *)
let recovered_key_correct locked ~original result =
  match result.key with
  | None -> false
  | Some key ->
    let unlocked = Lock.apply_key locked ~key in
    Cnf.check_equivalence original unlocked = None
