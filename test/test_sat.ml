(* Tests for the CDCL solver and the circuit CNF layer. The solver is
   cross-validated against brute-force enumeration on random small CNFs. *)

module Solver = Sat.Solver
module Cnf = Sat.Cnf
module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Sim = Netlist.Sim
module Rng = Eda_util.Rng

let lit v sign = Solver.lit_of_var v ~sign

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ lit v true ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "model" true (Solver.model_value s v)

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ lit v true ];
  (match Solver.add_clause s [ lit v false ] with
   | () -> Alcotest.fail "expected root conflict"
   | exception Solver.Unsat_root -> ())

(* A root conflict found by one solve stays an Unsat answer: the unit
   [a] is only enqueued, so the first solve propagates it into the
   conflict of (¬a ∨ c) and (¬a ∨ ¬c); the root trail is not propagated
   again after that, so later solves must remember the conflict. *)
let test_root_conflict_sticks () =
  (* Two solves, each with ([true]) or without an assumption on a free
     variable [b]. *)
  let unsat assumed =
    let s = Solver.create () in
    let a = Solver.new_var s and c = Solver.new_var s and b = Solver.new_var s in
    Solver.add_clause s [ lit a false; lit c true ];
    Solver.add_clause s [ lit a false; lit c false ];
    Solver.add_clause s [ lit a true ];
    List.map
      (fun with_b ->
        Solver.solve ~assumptions:(if with_b then [ lit b true ] else []) s = Solver.Unsat)
      assumed
  in
  List.iter
    (fun assumed ->
      Alcotest.(check (list bool)) "both Unsat" [ true; true ] (unsat assumed))
    [ [ false; false ]; [ true; true ]; [ false; true ]; [ true; false ] ]

let test_unsat_pigeon () =
  (* 2 pigeons, 1 hole is immediate; use 3 pigeons, 2 holes. Variables
     p(i,j): pigeon i in hole j. *)
  let s = Solver.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Solver.new_var s)) in
  (* Each pigeon somewhere. *)
  Array.iter (fun row -> Solver.add_clause s [ lit row.(0) true; lit row.(1) true ]) p;
  (* No two pigeons share a hole. *)
  for j = 0 to 1 do
    for i = 0 to 2 do
      for k = i + 1 to 2 do
        Solver.add_clause s [ lit p.(i).(j) false; lit p.(k).(j) false ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ lit a false; lit b true ];  (* a -> b *)
  Alcotest.(check bool) "sat under a" true
    (Solver.solve ~assumptions:[ lit a true ] s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.model_value s b);
  Solver.add_clause s [ lit b false ];
  Alcotest.(check bool) "unsat under a" true
    (Solver.solve ~assumptions:[ lit a true ] s = Solver.Unsat);
  Alcotest.(check bool) "sat without" true (Solver.solve s = Solver.Sat)

let test_assumption_already_true () =
  (* An assumption the root already implies opens no decision level, so
     a conflict on the first free decision is not a refutation of the
     assumptions. Here x3 is a root unit and the first free decision
     conflicts; the instance is satisfiable (x0 = 1, x4 = 1). *)
  let s = Solver.create () in
  ignore (Solver.new_vars s 7);
  List.iter
    (fun cl -> Solver.add_clause s (List.map (fun (v, sign) -> lit v sign) cl))
    [ [ (5, false) ]; [ (2, true); (4, false); (0, true) ]; [ (0, true); (4, true) ];
      [ (2, false); (1, false); (0, false) ]; [ (2, false) ]; [ (3, true) ] ];
  Alcotest.(check bool) "sat under an already-true assumption" true
    (Solver.solve ~assumptions:[ lit 3 true ] s = Solver.Sat);
  Alcotest.(check bool) "sat under a repeated assumption" true
    (Solver.solve ~assumptions:[ lit 3 true; lit 3 true; lit 1 true ] s = Solver.Sat)

let test_incremental_reuse () =
  let s = Solver.create () in
  let vs = Array.init 10 (fun _ -> Solver.new_var s) in
  (* Chain of implications v0 -> v1 -> ... -> v9. *)
  for i = 0 to 8 do
    Solver.add_clause s [ lit vs.(i) false; lit vs.(i + 1) true ]
  done;
  Alcotest.(check bool) "sat" true (Solver.solve ~assumptions:[ lit vs.(0) true ] s = Solver.Sat);
  Alcotest.(check bool) "chain propagated" true (Solver.model_value s vs.(9));
  Alcotest.(check bool) "still sat negated" true
    (Solver.solve ~assumptions:[ lit vs.(9) false ] s = Solver.Sat);
  Alcotest.(check bool) "v0 must be false" false (Solver.model_value s vs.(0))

let test_group_retire_reclaims () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ lit a true; lit b true ];
  let base_clauses = (Solver.stats s).Solver.clauses in
  let floor = (Solver.stats s).Solver.vars in
  let g = Solver.new_group s in
  let x = Solver.new_var s in
  Solver.add_clause_in s g [ lit a false; lit x true ];
  Solver.add_clause_in s g [ lit x false; lit b false ];
  Alcotest.(check bool) "sat under group" true
    (Solver.solve ~assumptions:[ Solver.group_lit g ] s = Solver.Sat);
  Solver.retire_group s g;
  Solver.shrink_vars s floor;
  let st = Solver.stats s in
  Alcotest.(check int) "group clauses reclaimed" base_clauses st.Solver.clauses;
  Alcotest.(check int) "scratch vars rolled back" floor st.Solver.vars;
  (match Solver.add_clause_in s g [ lit a true ] with
   | () -> Alcotest.fail "expected Invalid_argument on retired group"
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "base still sat" true (Solver.solve s = Solver.Sat)

(* MiniSat's decision-variable flag. The search never branches on a
   variable whose flag is clear: [Sat] can leave it unassigned, and it
   reads false, where a decision in its saved (true) phase would have set
   it. Setting the flag again puts it back in the order, and
   [shrink_vars] hands a released index back as a decision variable. *)
let test_decision_flag () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ lit a true; lit b true ];
  Alcotest.(check bool) "sat with c" true (Solver.solve ~assumptions:[ lit c true ] s = Solver.Sat);
  Solver.set_decision s c false;
  let decisions () = (Solver.stats s).Solver.decisions in
  let d0 = decisions () in
  Alcotest.(check bool) "sat without branching on c" true (Solver.solve s = Solver.Sat);
  Alcotest.(check int) "one decision, on a" 1 (decisions () - d0);
  Alcotest.(check bool) "c unassigned, reads false" false (Solver.model_value s c);
  Alcotest.(check bool) "the model still satisfies a or b" true
    (Solver.model_value s a || Solver.model_value s b);
  Solver.set_decision s c true;
  Alcotest.(check bool) "sat branching on c" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "c decided in its saved phase" true (Solver.model_value s c);
  let fresh_decisions ~shrink =
    let s = Solver.create () in
    Solver.set_decision s (Solver.new_var s) false;
    if shrink then begin
      Solver.shrink_vars s 0;
      ignore (Solver.new_var s)
    end;
    ignore (Solver.solve s);
    (Solver.stats s).Solver.decisions
  in
  Alcotest.(check int) "a cleared flag holds" 0 (fresh_decisions ~shrink:false);
  Alcotest.(check int) "shrink_vars restores the flag" 1 (fresh_decisions ~shrink:true);
  (match Solver.set_decision s 3 true with
   | () -> Alcotest.fail "expected Invalid_argument on an unallocated variable"
   | exception Invalid_argument _ -> ())

(* Retirement must give back everything a query added, whichever sweep
   it takes. After every query of a session the problem-clause count is
   the clean circuit's again, and no live learnt clause mentions a
   variable at or above the session's floor. *)
let test_retire_restores_session () =
  let c = Netlist.Bench_gen.sized ~seed:5 Netlist.Bench_gen.C432 ~target_gates:200 in
  let s = Solver.create () in
  let session = Cnf.Stuck_at_session.create ~solver:s c in
  let clean = Solver.stats s in
  let floor = clean.Solver.vars in
  for node = 0 to Circuit.node_count c - 1 do
    List.iter
      (fun value ->
        ignore (Cnf.Stuck_at_session.query session ~node ~value);
        let st = Solver.stats s in
        let name what = Printf.sprintf "node %d/%b: %s" node value what in
        Alcotest.(check int) (name "clean clause count") clean.Solver.clauses
          st.Solver.clauses;
        Alcotest.(check int) (name "variables at the floor") floor st.Solver.vars;
        Alcotest.(check bool) (name "learnt clauses below the floor") true
          (List.for_all
             (Array.for_all (fun l -> Solver.var_of_lit l < floor))
             (Solver.learnt_clauses s)))
      [ false; true ]
  done

(* A group clause whose base literals all turn false at the root forces
   its own activation variable there, as the antecedent of [¬act]. The
   root then gained more than the activation unit since the last sweep,
   so retirement sweeps the whole watch table — which must reclaim the
   group clause and the base clause that the new root literals satisfy. *)
let test_retire_self_forcing_group () =
  let s = Solver.create () in
  let u = Solver.new_var s and x = Solver.new_var s and y = Solver.new_var s in
  Solver.add_clause s [ lit u false; lit x false ];
  Solver.add_clause s [ lit x true; lit y true ];
  Solver.simplify s;
  let floor = (Solver.stats s).Solver.vars in
  let g = Solver.new_group s in
  Solver.add_clause_in s g [ lit x true ];
  Alcotest.(check int) "group clause created" 3 (Solver.stats s).Solver.clauses;
  (* The root unit arrives after the group clause: only root propagation
     turns x false, and then the group clause forces ¬act. *)
  Solver.add_clause s [ lit u true ];
  Alcotest.(check bool) "unsat under the group" true
    (Solver.solve ~assumptions:[ Solver.group_lit g ] s = Solver.Unsat);
  Solver.retire_group s g;
  Solver.shrink_vars s floor;
  (* u, ¬x and y are root literals now, so every clause is satisfied. *)
  Alcotest.(check int) "group and satisfied base clauses reclaimed" 0
    (Solver.stats s).Solver.clauses;
  Alcotest.(check bool) "base still sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "y forced" true (Solver.model_value s y)

(* Brute-force reference: enumerate assignments over n vars. *)
let brute_force nvars clauses =
  let sat = ref false in
  for m = 0 to (1 lsl nvars) - 1 do
    let ok =
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let v = Solver.var_of_lit l in
              let value = (m lsr v) land 1 = 1 in
              if Solver.pos l then value else not value)
            clause)
        clauses
    in
    if ok then sat := true
  done;
  !sat

let random_cnf rng ~nvars ~nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + Rng.int rng 3 in
      List.init len (fun _ -> lit (Rng.int rng nvars) (Rng.bool rng)))

let test_fuzz_against_brute_force () =
  let rng = Rng.create 1234 in
  for trial = 1 to 300 do
    let nvars = 3 + Rng.int rng 6 in
    let nclauses = 2 + Rng.int rng 20 in
    let clauses = random_cnf rng ~nvars ~nclauses in
    let expected = brute_force nvars clauses in
    let s = Solver.create () in
    for _ = 1 to nvars do
      ignore (Solver.new_var s)
    done;
    (match List.iter (Solver.add_clause s) clauses with
     | () ->
       let got = Solver.solve s = Solver.Sat in
       Alcotest.(check bool) (Printf.sprintf "trial %d" trial) expected got;
       (* If SAT, the model must satisfy every clause. *)
       if got then
         List.iter
           (fun clause ->
             let satisfied =
               List.exists
                 (fun l ->
                   let v = Solver.var_of_lit l in
                   let value = Solver.model_value s v in
                   if Solver.pos l then value else not value)
                 clause
             in
             Alcotest.(check bool) "model satisfies clause" true satisfied)
           clauses
     | exception Solver.Unsat_root ->
       Alcotest.(check bool) (Printf.sprintf "trial %d (root)" trial) expected false)
  done

(* Answer of a throwaway solver on [clauses]; root conflicts count as unsat. *)
let fresh_answer nvars clauses =
  let s = Solver.create () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  match List.iter (Solver.add_clause s) clauses with
  | () -> Solver.solve s = Solver.Sat
  | exception Solver.Unsat_root -> false

(* Differential check of the clause-group lifecycle: solving under a group's
   activation literal must answer exactly like a fresh solver on base+extra,
   and after retire_group + shrink_vars the session must answer exactly like
   a fresh solver on the base alone, with the variable count back at the
   pre-group floor. *)
let test_group_fuzz_vs_fresh () =
  let rng = Rng.create 4242 in
  for trial = 1 to 150 do
    let nvars = 3 + Rng.int rng 6 in
    let base = random_cnf rng ~nvars ~nclauses:(2 + Rng.int rng 12) in
    let extra = random_cnf rng ~nvars ~nclauses:(1 + Rng.int rng 8) in
    let name what = Printf.sprintf "trial %d: %s" trial what in
    match
      let s = Solver.create () in
      for _ = 1 to nvars do
        ignore (Solver.new_var s)
      done;
      List.iter (Solver.add_clause s) base;
      s
    with
    | exception Solver.Unsat_root ->
      Alcotest.(check bool) (name "root unsat") false (fresh_answer nvars base)
    | s ->
      let floor = (Solver.stats s).Solver.vars in
      let g = Solver.new_group s in
      List.iter (Solver.add_clause_in s g) extra;
      let combined =
        Solver.solve ~assumptions:[ Solver.group_lit g ] s = Solver.Sat
      in
      Alcotest.(check bool) (name "combined answer")
        (fresh_answer nvars (base @ extra))
        combined;
      Solver.retire_group s g;
      Solver.shrink_vars s floor;
      Alcotest.(check int) (name "vars at floor") floor (Solver.stats s).Solver.vars;
      Alcotest.(check bool) (name "base answer after retire")
        (fresh_answer nvars base)
        (Solver.solve s = Solver.Sat)
  done

let test_circuit_encoding_agrees_with_sim () =
  let rng = Rng.create 77 in
  for seed = 1 to 20 do
    let c = Gen.random_dag ~seed ~inputs:6 ~gates:30 ~outputs:2 in
    let env = Cnf.encode c in
    (* Constrain inputs to a random pattern, solve, compare every output. *)
    let pattern = Array.init 6 (fun _ -> Rng.bool rng) in
    let input_ids = Circuit.inputs c in
    Array.iteri
      (fun k id -> Solver.add_clause env.Cnf.solver [ Cnf.lit env ~node:id ~sign:pattern.(k) ])
      input_ids;
    (match Solver.solve env.Cnf.solver with
     | Solver.Sat ->
       let expected = Sim.eval c pattern in
       Array.iteri
         (fun k o ->
           Alcotest.(check bool) (Printf.sprintf "seed %d out %d" seed k) expected.(k)
             (Solver.model_value env.Cnf.solver env.Cnf.vars.(o)))
         (Circuit.output_ids c)
     | Solver.Unsat | Solver.Unknown _ ->
       Alcotest.fail "circuit CNF must be satisfiable under full input assignment")
  done

let test_equivalence_adders () =
  let a = Gen.ripple_adder 4 in
  let b = Gen.ripple_adder 4 in
  Alcotest.(check bool) "equivalent" true (Cnf.check_equivalence a b = None)

let test_equivalence_detects_difference () =
  let a = Gen.parity_tree 4 in
  (* Build an almost-parity circuit: flips behaviour on one input combo. *)
  let b = Circuit.create () in
  let xs = List.init 4 (fun i -> Circuit.add_input ~name:(Printf.sprintf "x%d" i) b) in
  let p = Circuit.reduce b Gate.Xor xs in
  let all_and = Circuit.reduce b Gate.And xs in
  let out = Circuit.add_gate b Gate.Or [ p; all_and ] in
  Circuit.set_output b "parity" out;
  (match Cnf.check_equivalence a b with
   | None -> Alcotest.fail "must find difference"
   | Some witness ->
     (* Witness must actually distinguish. *)
     Alcotest.(check bool) "witness distinguishes" true
       (Sim.eval a witness <> Sim.eval b witness))

(* A miter needs one input and one output per pair: circuits whose
   interfaces differ are refused with a structured error, in both
   directions and for inputs as well as outputs. *)
let test_equivalence_interface_mismatch () =
  let refused name a b =
    match Cnf.check_equivalence a b with
    | _ -> Alcotest.fail (name ^ ": mismatched interfaces were compared")
    | exception
        Eda_util.Eda_error.Error
          (Eda_util.Eda_error.Invalid_input { what = "equivalence query"; _ }) -> ()
  in
  let two_outputs = Gen.ripple_adder 1 in
  refused "more inputs" (Gen.parity_tree 4) (Gen.parity_tree 3);
  refused "fewer inputs" (Gen.parity_tree 3) (Gen.parity_tree 4);
  refused "more outputs" two_outputs (Gen.parity_tree 3);
  refused "fewer outputs" (Gen.parity_tree 3) two_outputs

let test_satisfiable_output () =
  let c = Gen.comparator 4 in
  (match Cnf.satisfiable_output c ~output:0 with
   | Some witness -> Alcotest.(check bool) "eq witness" true (Sim.eval c witness).(0)
   | None -> Alcotest.fail "comparator can be true");
  (* A constant-false output is unsatisfiable. *)
  let k = Circuit.create () in
  let a = Circuit.add_input ~name:"a" k in
  let na = Circuit.add_gate k Gate.Not [ a ] in
  let z = Circuit.add_gate k Gate.And [ a; na ] in
  Circuit.set_output k "z" z;
  Alcotest.(check bool) "a & !a unsat" true (Cnf.satisfiable_output k ~output:0 = None)

let test_xor_chain_equivalence_deep () =
  (* Associativity: left chain vs balanced tree of XORs. *)
  let left = Circuit.create () in
  let xs = List.init 8 (fun i -> Circuit.add_input ~name:(Printf.sprintf "x%d" i) left) in
  Circuit.set_output left "y" (Circuit.reduce_chain left Gate.Xor xs);
  let tree = Circuit.create () in
  let ys = List.init 8 (fun i -> Circuit.add_input ~name:(Printf.sprintf "x%d" i) tree) in
  Circuit.set_output tree "y" (Circuit.reduce tree Gate.Xor ys);
  Alcotest.(check bool) "chain = tree" true (Cnf.check_equivalence left tree = None)

(* ---- Allocation-free core regressions: determinism, learnt-DB
   reduction, stress instances, differential vs the reference solver. ---- *)

module Ref = Reference.Solver_ref

(* Random 3-SAT over distinct variables (the classic hard distribution;
   ratio ~4.26 clauses/var sits at the phase transition). *)
let random_3sat rng ~nvars ~nclauses =
  List.init nclauses (fun _ ->
      let rec pick k acc =
        if k = 0 then acc
        else begin
          let v = Rng.int rng nvars in
          if List.exists (fun l -> Solver.var_of_lit l = v) acc then pick k acc
          else pick (k - 1) (lit v (Rng.bool rng) :: acc)
        end
      in
      pick 3 [])

(* Feed an instance to a fresh solver; [configure] runs before clauses are
   added (e.g. to force a tiny learnt limit). *)
let run_instance ?(configure = fun _ -> ()) ~nvars clauses =
  let s = Solver.create () in
  ignore (Solver.new_vars s nvars);
  configure s;
  match List.iter (Solver.add_clause s) clauses with
  | () ->
    let r = Solver.solve s in
    (Some r, Solver.stats s)
  | exception Solver.Unsat_root -> (None, Solver.stats s)

let model_satisfies s clauses =
  List.for_all
    (List.exists (fun l ->
         let value = Solver.model_value s (Solver.var_of_lit l) in
         if Solver.pos l then value else not value))
    clauses

let pigeonhole_clauses ~pigeons ~holes =
  (* Variables p(i,j) = pigeon i in hole j, numbered i*holes + j. *)
  let v i j = (i * holes) + j in
  let somewhere =
    List.init pigeons (fun i -> List.init holes (fun j -> lit (v i j) true))
  in
  let exclusive = ref [] in
  for j = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for k = i + 1 to pigeons - 1 do
        exclusive := [ lit (v i j) false; lit (v k j) false ] :: !exclusive
      done
    done
  done;
  (pigeons * holes, somewhere @ !exclusive)

(* Satellite: identical instance + seed must give bit-identical statistics
   across two fresh solvers — the solver has no hidden nondeterminism.
   Checked both with DB reduction forced on (tiny limit) and disabled. *)
let test_determinism () =
  let configs =
    [ ("default", fun _ -> ());
      ("forced reduction", fun s -> Solver.set_learnt_limit s 20);
      ("no reduction", fun s -> Solver.set_db_reduction s false) ]
  in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let nvars = 50 in
      let clauses = random_3sat rng ~nvars ~nclauses:213 in
      List.iter
        (fun (label, configure) ->
          let r1, st1 = run_instance ~configure ~nvars clauses in
          let r2, st2 = run_instance ~configure ~nvars clauses in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d %s: same result" seed label)
            true (r1 = r2);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d %s: same stats" seed label)
            true (st1 = st2))
        configs)
    [ 11; 42; 99 ]

(* Stress: a pigeonhole instance large enough to force real conflict
   analysis, restarts and learnt-clause traffic. *)
let test_pigeonhole_stress () =
  let nvars, clauses = pigeonhole_clauses ~pigeons:7 ~holes:6 in
  let r, st = run_instance ~nvars clauses in
  Alcotest.(check bool) "unsat" true (r = Some Solver.Unsat);
  Alcotest.(check bool) "learnt something" true (st.Solver.learnt > 0);
  Alcotest.(check bool) "had conflicts" true (st.Solver.conflicts > 0)

(* Stress + differential: random 3-SAT at the phase transition, new solver
   vs the retained reference implementation; verdicts must agree and SAT
   models must validate. *)
let test_phase_transition_differential () =
  let rng = Rng.create 2026 in
  for trial = 1 to 25 do
    let nvars = 25 + Rng.int rng 15 in
    let nclauses = Float.to_int (4.26 *. Float.of_int nvars) in
    let clauses = random_3sat rng ~nvars ~nclauses in
    let s = Solver.create () in
    ignore (Solver.new_vars s nvars);
    (* Tiny limit so DB reduction actually exercises on these instances. *)
    Solver.set_learnt_limit s 10;
    let r = Ref.create () in
    for _ = 1 to nvars do
      ignore (Ref.new_var r)
    done;
    let new_verdict =
      match List.iter (Solver.add_clause s) clauses with
      | () -> Solver.solve s = Solver.Sat
      | exception Solver.Unsat_root -> false
    in
    let ref_verdict =
      match List.iter (Ref.add_clause r) clauses with
      | () -> Ref.solve r = Ref.Sat
      | exception Ref.Unsat_root -> false
    in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d verdicts agree" trial)
      ref_verdict new_verdict;
    if new_verdict then
      Alcotest.(check bool)
        (Printf.sprintf "trial %d model valid" trial)
        true (model_satisfies s clauses)
  done

(* Satellite: a budgeted call returning [Unknown] must keep its learnt
   clauses — including across a DB reduction — so the resumed call picks up
   where it left off instead of starting cold. *)
let test_budget_resume_preserves_learnts () =
  let nvars, clauses = pigeonhole_clauses ~pigeons:7 ~holes:6 in
  let s = Solver.create () in
  ignore (Solver.new_vars s nvars);
  Solver.set_learnt_limit s 20;  (* force reductions during the run *)
  List.iter (Solver.add_clause s) clauses;
  let budget = Eda_util.Budget.create ~steps:60 () in
  (match Solver.solve ~budget s with
   | Solver.Unknown _ -> ()
   | Solver.Sat | Solver.Unsat ->
     Alcotest.fail "instance must not fit in 60 conflicts");
  let mid = Solver.stats s in
  Alcotest.(check bool) "learnts survive Unknown" true (mid.Solver.learnt_live > 0);
  (* Resume without a budget: must converge to UNSAT, accumulating on top
     of the preserved clauses rather than re-learning from zero. *)
  Alcotest.(check bool) "resumed unsat" true (Solver.solve s = Solver.Unsat);
  let final = Solver.stats s in
  Alcotest.(check bool) "reductions happened" true (final.Solver.db_reductions > 0);
  Alcotest.(check bool) "deletions happened" true (final.Solver.clauses_deleted > 0);
  Alcotest.(check bool) "learnt total monotone" true
    (final.Solver.learnt >= mid.Solver.learnt)

(* Acceptance: the learnt DB stays bounded — after a long run with a tiny
   limit, the live count must sit far below the total ever learnt. *)
let test_learnt_db_bounded () =
  let nvars, clauses = pigeonhole_clauses ~pigeons:7 ~holes:6 in
  let configure s = Solver.set_learnt_limit s 20 in
  let r, st = run_instance ~configure ~nvars clauses in
  Alcotest.(check bool) "unsat" true (r = Some Solver.Unsat);
  Alcotest.(check bool) "db was reduced" true (st.Solver.db_reductions > 0);
  Alcotest.(check bool) "live strictly below total" true
    (st.Solver.learnt_live < st.Solver.learnt);
  Alcotest.(check bool) "deleted accounts for gap" true
    (st.Solver.learnt_live + st.Solver.clauses_deleted = st.Solver.learnt)

(* Fuzz vs brute force with DB reduction forced on tiny instances: clause
   deletion must never change a verdict or corrupt a model. *)
let test_fuzz_forced_reduction () =
  let rng = Rng.create 5678 in
  for trial = 1 to 150 do
    let nvars = 3 + Rng.int rng 6 in
    let nclauses = 2 + Rng.int rng 20 in
    let clauses = random_cnf rng ~nvars ~nclauses in
    let expected = brute_force nvars clauses in
    let configure s = Solver.set_learnt_limit s 1 in
    match run_instance ~configure ~nvars clauses with
    | Some r, _ ->
      Alcotest.(check bool) (Printf.sprintf "trial %d" trial) expected (r = Solver.Sat)
    | None, _ ->
      Alcotest.(check bool) (Printf.sprintf "trial %d (root)" trial) expected false
  done

(* ---- Search fingerprint: the exact search path, pinned ----

   Every value below was recorded before the decision heap, the
   per-literal value array and group-sized retirement replaced the
   linear branching scan, the variable-indexed values and the full
   retirement sweep. Those changes make each step cheaper without
   choosing a different step, so any drift here means the search itself
   changed. [Reference.Solver_ref] cannot serve as this oracle: its list
   watch lists propagate in another order. *)

let stats_line (st : Solver.stats) =
  Printf.sprintf "c%d d%d p%d l%d r%d db%d del%d" st.Solver.conflicts st.Solver.decisions
    st.Solver.propagations st.Solver.learnt st.Solver.restarts st.Solver.db_reductions
    st.Solver.clauses_deleted

(* Model bits of variables [0 .. nvars-1], digested. *)
let model_digest s nvars =
  String.init nvars (fun v -> if Solver.model_value s v then '1' else '0')
  |> Digest.string |> Digest.to_hex |> fun h -> String.sub h 0 12

let answer_line s nvars = function
  | Solver.Sat -> "sat " ^ model_digest s nvars
  | Solver.Unsat -> "unsat"
  | Solver.Unknown _ -> "unknown"

(* The solver-level lines take a [prepare] step that runs once the
   clauses are in, before the first solve. *)
let fingerprint_3sat ?(prepare = ignore) ~seed ~nvars ~learnt_limit () =
  let rng = Rng.create seed in
  let nclauses = Float.to_int (4.26 *. Float.of_int nvars) in
  let clauses = random_3sat rng ~nvars ~nclauses in
  let s = Solver.create () in
  ignore (Solver.new_vars s nvars);
  Solver.set_learnt_limit s learnt_limit;
  List.iter (Solver.add_clause s) clauses;
  prepare s;
  let r = Solver.solve s in
  Printf.sprintf "3sat seed %d: %s %s" seed (answer_line s nvars r) (stats_line (Solver.stats s))

(* Pigeonhole: past ~4,490 conflicts the decaying increment pushes an
   activity over 1e100 and every activity is rescaled, which can merge
   distinct scores into ties. *)
let fingerprint_pigeonhole ?(prepare = ignore) () =
  let nvars, clauses = pigeonhole_clauses ~pigeons:8 ~holes:7 in
  let s = Solver.create () in
  ignore (Solver.new_vars s nvars);
  List.iter (Solver.add_clause s) clauses;
  prepare s;
  let r = Solver.solve s in
  let st = Solver.stats s in
  Alcotest.(check bool) "pigeonhole crosses the activity rescale" true
    (st.Solver.conflicts > 4_500);
  Printf.sprintf "pigeonhole 8/7: %s %s" (answer_line s nvars r) (stats_line st)

(* One solver, a sequence of solves under shifting assumptions with
   clauses added in between. *)
let fingerprint_incremental ?(prepare = ignore) () =
  let rng = Rng.create 77 in
  let nvars = 90 in
  let clauses = random_3sat rng ~nvars ~nclauses:330 in
  let s = Solver.create () in
  ignore (Solver.new_vars s nvars);
  List.iter (Solver.add_clause s) clauses;
  prepare s;
  List.init 8 (fun step ->
      let assumptions = List.init 6 (fun _ -> lit (Rng.int rng nvars) (Rng.bool rng)) in
      let r = Solver.solve ~assumptions s in
      let line =
        Printf.sprintf "incremental %d: %s %s" step (answer_line s nvars r)
          (stats_line (Solver.stats s))
      in
      (match List.iter (Solver.add_clause s) (random_3sat rng ~nvars ~nclauses:6) with
       | () -> ()
       | exception Solver.Unsat_root -> ());
      line)

(* A stuck-at session over a generated design: per-query activity reset,
   group retirement and variable shrinking, query after query. *)
let fingerprint_session () =
  let c = Netlist.Bench_gen.sized ~seed:3 Netlist.Bench_gen.C880 ~target_gates:300 in
  let session = Cnf.Stuck_at_session.create c in
  let answers = Buffer.create 1024 in
  for node = 0 to Circuit.node_count c - 1 do
    List.iter
      (fun value ->
        match Cnf.Stuck_at_session.query session ~node ~value with
        | Cnf.Equivalent -> Buffer.add_char answers 'e'
        | Cnf.Counterexample w ->
          Array.iter (fun b -> Buffer.add_char answers (if b then '1' else '0')) w;
          Buffer.add_char answers ';'
        | Cnf.Equiv_unknown _ -> Buffer.add_char answers 'u')
      [ false; true ]
  done;
  let st = Cnf.Stuck_at_session.stats session in
  Printf.sprintf "session c880: %s %s"
    (String.sub (Digest.to_hex (Digest.string (Buffer.contents answers))) 0 12)
    (stats_line st)

(* The miter engines build their solvers internally, so their search is
   read off the [sat.solve] spans [f] emits: the number of solves, the
   variables and problem clauses each solve starts from, and the
   conflict, decision and propagation counters, all summed. [f] returns
   a digest of its answer. *)
let traced_search name f =
  let module T = Eda_util.Telemetry in
  let sink, events = T.memory_sink () in
  let answer = T.with_sink sink f in
  let solves = ref 0 and vars = ref 0 and clauses = ref 0 in
  let conflicts = ref 0 and decisions = ref 0 and propagations = ref 0 in
  let attr e k = match List.assoc_opt k e.T.attrs with Some (T.Int n) -> n | _ -> 0 in
  let add r e = r := !r + Float.to_int e.T.value in
  List.iter
    (fun e ->
      match (e.T.kind, e.T.name) with
      | T.Span_start, "sat.solve" ->
        incr solves;
        vars := !vars + attr e "vars";
        clauses := !clauses + attr e "clauses"
      | T.Count, "sat.conflicts" -> add conflicts e
      | T.Count, "sat.decisions" -> add decisions e
      | T.Count, "sat.propagations" -> add propagations e
      | _ -> ())
    (events ());
  Printf.sprintf "%s: %s s%d v%d cl%d c%d d%d p%d" name answer !solves !vars !clauses
    !conflicts !decisions !propagations

let bits_digest w =
  String.init (Array.length w) (fun i -> if w.(i) then '1' else '0')
  |> Digest.string |> Digest.to_hex |> fun h -> String.sub h 0 12

let witness_line = function None -> "none" | Some w -> bits_digest w

(* One line per engine that builds a two-copy miter. *)
let fingerprint_miters () =
  let module BG = Netlist.Bench_gen in
  let design = BG.sized ~seed:5 BG.C880 ~target_gates:150 in
  let optimized = Synth.Pipeline.run_recipe "optimize" design in
  let buggy = BG.sized ~seed:6 BG.C880 ~target_gates:150 in
  let locked = Locking.Lock.epic (Rng.create 41) ~key_bits:10 design in
  let oracle = Locking.Sat_attack.oracle_of_circuit design in
  let formal prot fault =
    match Fault.Formal.check_fault prot fault with
    | Fault.Formal.Proven_detected -> "proven"
    | Fault.Formal.Harmless -> "harmless"
    | Fault.Formal.Escape w -> "escape " ^ bits_digest w
  in
  let round = Crypto.Sbox_circuit.aes_round_registered () in
  let scanned = (Dft.Scan.insert round).Dft.Scan.circuit in
  let redundant = BG.sized ~seed:2 BG.Layered ~target_gates:40 in
  [ traced_search "check_equivalence" (fun () ->
        witness_line (Cnf.check_equivalence design optimized)
        ^ " " ^ witness_line (Cnf.check_equivalence design buggy));
    traced_search "sat_attack" (fun () ->
        let r = Locking.Sat_attack.run ~oracle locked in
        Printf.sprintf "%d %s" r.Locking.Sat_attack.iterations
          (witness_line r.Locking.Sat_attack.key));
    traced_search "sensitization" (fun () ->
        let o = Locking.Sensitization.run ~oracle locked in
        Printf.sprintf "%d/%d q%d" (List.length o.Locking.Sensitization.recovered)
          (List.length o.Locking.Sensitization.unresolved)
          o.Locking.Sensitization.oracle_queries);
    traced_search "formal escape" (fun () ->
        formal (Fault.Countermeasure.parity_protect (Gen.ripple_adder 3))
          (Fault.Model.Stuck_at { node = 7; value = false }));
    traced_search "formal proven" (fun () ->
        formal (Fault.Countermeasure.duplicate_protect (Gen.ripple_adder 3))
          (Fault.Model.Stuck_at { node = 9; value = true }));
    traced_search "two_safety_leak" (fun () ->
        witness_line
          (Sat.Unroll.two_safety_leak scanned ~frames:2 ~secret_state:[ 0; 1; 2; 3 ]));
    traced_search "bounded_equivalence" (fun () ->
        string_of_bool (Sat.Unroll.bounded_equivalence round round ~frames:2));
    traced_search "remove_redundancy" (fun () ->
        BG.fingerprint (Dft.Atpg.remove_redundancy redundant)) ]

let solver_fingerprints ?prepare () =
  [ fingerprint_3sat ?prepare ~seed:1 ~nvars:150 ~learnt_limit:0 ();
    fingerprint_3sat ?prepare ~seed:2 ~nvars:150 ~learnt_limit:0 ();
    fingerprint_3sat ?prepare ~seed:3 ~nvars:150 ~learnt_limit:0 ();
    fingerprint_3sat ?prepare ~seed:4 ~nvars:150 ~learnt_limit:40 ();
    fingerprint_pigeonhole ?prepare () ]
  @ fingerprint_incremental ?prepare ()

let search_fingerprints () =
  solver_fingerprints () @ [ fingerprint_session () ] @ fingerprint_miters ()

let pinned_fingerprints =
  [ "3sat seed 1: unsat c1362 d1708 p41481 l1354 r15 db0 del0";
    "3sat seed 2: sat 82f234e59c3c c995 d1390 p31979 l995 r15 db0 del0";
    "3sat seed 3: unsat c3123 d3857 p96054 l3112 r15 db1 del1000";
    "3sat seed 4: sat 02ea0af411ae c730 d1036 p23431 l730 r14 db8 del502";
    "pigeonhole 8/7: unsat c4698 d5700 p61917 l4690 r15 db3 del3335";
    "incremental 0: sat f86a819782be c29 d49 p651 l29 r0 db0 del0";
    "incremental 1: sat 10ba6733672c c41 d71 p947 l41 r0 db0 del0";
    "incremental 2: sat a411be874c86 c65 d118 p1684 l65 r0 db0 del0";
    "incremental 3: unsat c82 d141 p2033 l81 r0 db0 del0";
    "incremental 4: unsat c82 d141 p2038 l81 r0 db0 del0";
    "incremental 5: unsat c118 d181 p2810 l116 r1 db0 del0";
    "incremental 6: unsat c162 d229 p3585 l159 r2 db0 del0";
    "incremental 7: unsat c183 d257 p4012 l179 r2 db0 del0";
    (* Each query branches only on its support (Solver.set_decision). *)
    "session c880: be08adc83d1a c19361 d82678 p1137710 l19361 r447 db0 del18927";
    (* The miter lines were recorded before the engines moved onto the
       shared Cnf.tie / Cnf.differs primitives, which emit the same
       clauses in the same order over the same variables. The last line
       is the exception: redundancy removal moved from one fresh solver
       per query (s220 v12948 cl36326 c1486 d3495 p36939) to one
       stuck-at session per pass, which removes the same gates. The
       sensitization attack recovers no bit in its first pass here, so
       it stops at that fixed point after one pass. *)
    "check_equivalence: none 5b84739a1529 s2 v714 cl2278 c1283 d2984 p60731";
    "sat_attack: 4 fe6eaa020d50 s6 v7926 cl23298 c1280 d3737 p75491";
    "sensitization: 0/10 q10 s10 v4110 cl12470 c16 d257 p5602";
    (* The escape query asks that the alarm not rise: one binary clause
       over the two copies' alarm variables. *)
    "formal escape: escape 2be4f0108563 s1 v94 cl290 c8 d19 p258";
    "formal proven: proven s2 v192 cl575 c86 d120 p3335";
    "two_safety_leak: 60997cc8aef7 s1 v1823 cl6763 c0 d47 p1823";
    "bounded_equivalence: true s1 v1777 cl6561 c406 d757 p181674";
    "remove_redundancy: 68d3c904909b4717 s220 v13168 cl37912 c1533 d3544 p38484" ]

let test_search_fingerprint () =
  Alcotest.(check (list string)) "search fingerprints" pinned_fingerprints
    (search_fingerprints ())

(* Clearing every decision flag, rebuilding the order without them and
   setting them again, one insertion at a time, leaves every variable a
   decision variable: the solver-level lines must not move. *)
let test_decision_flags_set_fingerprint () =
  let prepare s =
    let n = (Solver.stats s).Solver.vars in
    for v = 0 to n - 1 do
      Solver.set_decision s v false
    done;
    Solver.reset_activity s;
    for v = 0 to n - 1 do
      Solver.set_decision s v true
    done
  in
  let lines = solver_fingerprints ~prepare () in
  Alcotest.(check (list string)) "search fingerprints, every flag set"
    (List.filteri (fun k _ -> k < List.length lines) pinned_fingerprints)
    lines

let prop_miter_random_dags_self_equal =
  QCheck.Test.make ~name:"every circuit equals itself (SAT miter)" ~count:15
    QCheck.(int_bound 500)
    (fun seed ->
      let c = Gen.random_dag ~seed ~inputs:5 ~gates:25 ~outputs:2 in
      Cnf.check_equivalence c c = None)

let prop_equivalence_agrees_with_exhaustive =
  QCheck.Test.make ~name:"SAT equivalence agrees with exhaustive sim" ~count:15
    QCheck.(pair (int_bound 500) (int_bound 500))
    (fun (s1, s2) ->
      let a = Gen.random_dag ~seed:s1 ~inputs:5 ~gates:20 ~outputs:1 in
      let b = Gen.random_dag ~seed:s2 ~inputs:5 ~gates:20 ~outputs:1 in
      let sat_eq = Cnf.check_equivalence a b = None in
      let sim_eq = Sim.equivalent_exhaustive a b in
      sat_eq = sim_eq)

let () =
  Alcotest.run "sat"
    [ ("solver",
       [ Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
         Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
         Alcotest.test_case "root conflict sticks" `Quick test_root_conflict_sticks;
         Alcotest.test_case "pigeonhole unsat" `Quick test_unsat_pigeon;
         Alcotest.test_case "assumptions" `Quick test_assumptions;
         Alcotest.test_case "assumption already true" `Quick test_assumption_already_true;
         Alcotest.test_case "incremental reuse" `Quick test_incremental_reuse;
         Alcotest.test_case "group retire reclaims" `Quick test_group_retire_reclaims;
         Alcotest.test_case "retire restores the session" `Quick
           test_retire_restores_session;
         Alcotest.test_case "retire a self-forcing group" `Quick
           test_retire_self_forcing_group;
         Alcotest.test_case "decision flag" `Quick test_decision_flag;
         Alcotest.test_case "group fuzz vs fresh" `Quick test_group_fuzz_vs_fresh;
         Alcotest.test_case "fuzz vs brute force" `Slow test_fuzz_against_brute_force ]);
      ("perf core",
       [ Alcotest.test_case "determinism" `Quick test_determinism;
         Alcotest.test_case "pigeonhole stress" `Quick test_pigeonhole_stress;
         Alcotest.test_case "phase transition differential" `Slow
           test_phase_transition_differential;
         Alcotest.test_case "budget resume keeps learnts" `Quick
           test_budget_resume_preserves_learnts;
         Alcotest.test_case "learnt DB bounded" `Quick test_learnt_db_bounded;
         Alcotest.test_case "search fingerprint" `Quick test_search_fingerprint;
         Alcotest.test_case "search fingerprint, every flag set" `Quick
           test_decision_flags_set_fingerprint;
         Alcotest.test_case "fuzz with forced reduction" `Slow
           test_fuzz_forced_reduction ]);
      ("cnf",
       [ Alcotest.test_case "encoding matches sim" `Quick test_circuit_encoding_agrees_with_sim;
         Alcotest.test_case "adder self-equivalence" `Quick test_equivalence_adders;
         Alcotest.test_case "detects difference" `Quick test_equivalence_detects_difference;
         Alcotest.test_case "interface mismatch refused" `Quick
           test_equivalence_interface_mismatch;
         Alcotest.test_case "satisfiable output" `Quick test_satisfiable_output;
         Alcotest.test_case "xor associativity miter" `Quick test_xor_chain_equivalence_deep ]);
      ("properties",
       List.map Seeded.to_alcotest
         [ prop_miter_random_dags_self_equal; prop_equivalence_agrees_with_exhaustive ]) ]
