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
         Alcotest.test_case "pigeonhole unsat" `Quick test_unsat_pigeon;
         Alcotest.test_case "assumptions" `Quick test_assumptions;
         Alcotest.test_case "assumption already true" `Quick test_assumption_already_true;
         Alcotest.test_case "incremental reuse" `Quick test_incremental_reuse;
         Alcotest.test_case "group retire reclaims" `Quick test_group_retire_reclaims;
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
         Alcotest.test_case "fuzz with forced reduction" `Slow
           test_fuzz_forced_reduction ]);
      ("cnf",
       [ Alcotest.test_case "encoding matches sim" `Quick test_circuit_encoding_agrees_with_sim;
         Alcotest.test_case "adder self-equivalence" `Quick test_equivalence_adders;
         Alcotest.test_case "detects difference" `Quick test_equivalence_detects_difference;
         Alcotest.test_case "satisfiable output" `Quick test_satisfiable_output;
         Alcotest.test_case "xor associativity miter" `Quick test_xor_chain_equivalence_deep ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_miter_random_dags_self_equal; prop_equivalence_agrees_with_exhaustive ]) ]
