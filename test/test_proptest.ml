(* Property-based suite: the Proptest harness's own contract (replay,
   shrinking, bounds), arithmetic oracles for the reference generators,
   seed determinism and lint cleanliness of every Bench_gen family, and
   differential checks of the hot engines against their reference
   implementations — including pooled-vs-sequential bit-identity at
   1/2/8 domains.

   Every check goes through Proptest.check_exn, so a failure prints a
   shrunk counterexample with its PROPTEST_SEED replay line; CI greps
   for that marker. The seed comes from PROPTEST_SEED when set (CI pins
   it), else the library default. *)

module P = Eda_util.Proptest
module Rng = Eda_util.Rng
module Pool = Eda_util.Pool
module Gen = Netlist.Generators
module BG = Netlist.Bench_gen
module Circuit = Netlist.Circuit
module Sim = Netlist.Sim
module Lint = Netlist.Lint

(* --- the harness itself ------------------------------------------------- *)

let test_passes () =
  match P.check ~name:"tautology" (P.int_range 0 100) (fun n -> n >= 0) with
  | P.Passed n -> Alcotest.(check int) "all cases ran" 100 n
  | P.Failed f -> Alcotest.fail (P.describe_failure f)

let test_replay_deterministic () =
  let run () =
    P.check ~seed:77 ~name:"threshold" (P.int_range 0 10_000) (fun n -> n < 500)
  in
  match (run (), run ()) with
  | P.Failed a, P.Failed b ->
    Alcotest.(check int) "same failing case" a.P.case_index b.P.case_index;
    Alcotest.(check string) "same original" a.P.original b.P.original;
    Alcotest.(check string) "same minimal" a.P.minimal b.P.minimal
  | _ -> Alcotest.fail "property should fail on both runs"

let test_shrinks_to_boundary () =
  (* n < 500 fails first at some random n >= 500; the binary ladder must
     land exactly on the boundary value 500. *)
  match P.check ~seed:77 ~name:"threshold" (P.int_range 0 10_000) (fun n -> n < 500) with
  | P.Failed f -> Alcotest.(check string) "minimal counterexample" "500" f.P.minimal
  | P.Passed _ -> Alcotest.fail "property should fail"

let test_shrink_budget_respected () =
  let bound = 7 in
  match
    P.check ~seed:1 ~max_shrink_steps:bound ~name:"always-false"
      (P.int_range 0 1_000_000) (fun _ -> false)
  with
  | P.Failed f ->
    Alcotest.(check bool) "bounded" true (f.P.shrink_steps <= bound)
  | P.Passed _ -> Alcotest.fail "property should fail"

let test_pair_shrinks_componentwise () =
  (* Failure depends only on the first component; the second must shrink
     all the way to its minimum. *)
  match
    P.check ~seed:5 ~name:"pair"
      (P.pair (P.int_range 0 1000) (P.int_range 0 1000))
      (fun (x, _) -> x < 100)
  with
  | P.Failed f ->
    Alcotest.(check string) "minimal pair" "(100, 0)" f.P.minimal
  | P.Passed _ -> Alcotest.fail "property should fail"

let test_list_min_len_kept () =
  match
    P.check ~seed:9 ~name:"list"
      (P.list_of ~min_len:2 ~max_len:10 (P.int_range 0 9))
      (fun l -> List.length l < 2)
  with
  | P.Failed f ->
    (* every list has >= 2 elements, so the property always fails; the
       shrunk list must still respect min_len *)
    Alcotest.(check string) "minimal list" "[0; 0]" f.P.minimal
  | P.Passed _ -> Alcotest.fail "property should fail"

let test_failure_report_replayable () =
  match P.check ~seed:123 ~name:"demo" (P.int_range 0 99) (fun n -> n < 50) with
  | P.Failed f ->
    let text = P.describe_failure f in
    let contains sub =
      let n = String.length text and m = String.length sub in
      let rec at i = i + m <= n && (String.sub text i m = sub || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "names the shrunk counterexample" true
      (contains "shrunk counterexample");
    Alcotest.(check bool) "carries the replay seed" true (contains "PROPTEST_SEED=123")
  | P.Passed _ -> Alcotest.fail "property should fail"

(* --- arithmetic oracles for the reference generators --------------------- *)

let bits_of_int ~width v = Array.init width (fun i -> (v lsr i) land 1 = 1)
let int_of_bits bits = Array.to_list bits |> List.fold_left (fun _ _ -> 0) 0 |> ignore

let () = ignore int_of_bits

let eval_outputs c inputs = Sim.eval c inputs

let test_ripple_adder_oracle () =
  let arb =
    P.make
      ~show:(fun (w, a, b, cin) -> Printf.sprintf "w=%d a=%d b=%d cin=%b" w a b cin)
      (fun rng ->
        let w = 1 + Rng.int rng 16 in
        let a = Rng.int rng (1 lsl w) in
        let b = Rng.int rng (1 lsl w) in
        (w, a, b, Rng.bool rng))
  in
  P.check_exn ~name:"ripple_adder matches integer addition" arb
    (fun (w, a, b, cin) ->
      let c = Gen.ripple_adder w in
      let inputs =
        Array.concat
          [ bits_of_int ~width:w a; bits_of_int ~width:w b; [| cin |] ]
      in
      let outs = eval_outputs c inputs in
      (* outputs: s0..s(w-1), cout *)
      let got =
        Array.to_seq outs
        |> Seq.fold_lefti (fun acc i bit -> if bit then acc lor (1 lsl i) else acc) 0
      in
      got = a + b + Bool.to_int cin)

let test_comparator_oracle () =
  let arb =
    P.make
      ~show:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
      (fun rng ->
        let w = 1 + Rng.int rng 16 in
        let a = Rng.int rng (1 lsl w) in
        (* force equality half the time so both branches are exercised *)
        let b = if Rng.bool rng then a else Rng.int rng (1 lsl w) in
        (w, a, b))
  in
  P.check_exn ~name:"comparator matches integer equality" arb (fun (w, a, b) ->
      let c = Gen.comparator w in
      let inputs = Array.append (bits_of_int ~width:w a) (bits_of_int ~width:w b) in
      (eval_outputs c inputs).(0) = (a = b))

let test_parity_tree_oracle () =
  let arb =
    P.make
      ~show:(fun bits ->
        "0b" ^ String.concat "" (List.map (fun b -> if b then "1" else "0") bits))
      (fun rng ->
        let w = 1 + Rng.int rng 24 in
        List.init w (fun _ -> Rng.bool rng))
  in
  P.check_exn ~name:"parity_tree matches xor fold" arb (fun bits ->
      let c = Gen.parity_tree (List.length bits) in
      let expect = List.fold_left (fun acc b -> acc <> b) false bits in
      (eval_outputs c (Array.of_list bits)).(0) = expect)

(* --- Bench_gen: determinism and lint cleanliness ------------------------- *)

let family_arb =
  P.choose_from ~show:BG.family_name BG.all_families

let test_generators_seed_deterministic () =
  let arb =
    P.pair family_arb
      (P.pair (P.int_range 0 1_000_000) (P.int_range 64 800))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  P.check_exn ~count:40 ~name:"same seed, same fingerprint"
    { arb with P.show } (fun (fam, (seed, tgt)) ->
      let fp () = BG.fingerprint (BG.sized ~seed fam ~target_gates:tgt) in
      fp () = fp ())

let test_generators_lint_clean () =
  let arb =
    P.pair family_arb
      (P.pair (P.int_range 0 1_000_000) (P.int_range 64 800))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  P.check_exn ~count:40 ~name:"generated circuits lint clean"
    { arb with P.show } (fun (fam, (seed, tgt)) ->
      let c = BG.sized ~seed fam ~target_gates:tgt in
      let issues = Lint.check c in
      List.for_all
        (fun i -> i.Lint.severity <> Lint.Error && i.Lint.check <> "dangling-net")
        issues)

let test_layered_params_lint_clean () =
  (* the raw layered entry point across its whole parameter space, not
     just the sized presets *)
  let arb =
    P.make
      ~show:(fun (seed, ins, layers, width, loc) ->
        Printf.sprintf "seed=%d inputs=%d layers=%d width=%d locality=%.2f"
          seed ins layers width loc)
      (fun rng ->
        ( Rng.int rng 100_000,
          1 + Rng.int rng 32,
          1 + Rng.int rng 12,
          1 + Rng.int rng 64,
          Rng.float rng ))
  in
  P.check_exn ~count:40 ~name:"layered lint clean at any params" arb
    (fun (seed, inputs, layers, width, locality) ->
      let c = BG.layered ~seed ~locality ~inputs ~layers ~width () in
      let issues = Lint.check c in
      List.for_all
        (fun i -> i.Lint.severity <> Lint.Error && i.Lint.check <> "dangling-net")
        issues)

let test_sized_hits_target () =
  let arb =
    P.pair family_arb (P.pair (P.int_range 0 1000) (P.int_range 400 4000))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  P.check_exn ~count:25 ~name:"sized lands within 40% of target"
    { arb with P.show } (fun (fam, (seed, tgt)) ->
      let n = Circuit.node_count (BG.sized ~seed fam ~target_gates:tgt) in
      let ratio = Float.of_int n /. Float.of_int tgt in
      ratio > 0.6 && ratio < 1.4)

let test_multiplier_families_agree () =
  (* c6288_like (array grid) and csa_multiplier (Wallace tree) compute
     the same product *)
  let arb =
    P.make
      ~show:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
      (fun rng ->
        let w = 2 + Rng.int rng 5 in
        (w, Rng.int rng (1 lsl w), Rng.int rng (1 lsl w)))
  in
  P.check_exn ~count:60 ~name:"array and CSA multipliers agree" arb
    (fun (w, a, b) ->
      let inputs = Array.append (bits_of_int ~width:w a) (bits_of_int ~width:w b) in
      let product c =
        let outs = Circuit.outputs c in
        let vals = Sim.eval c inputs in
        (* sum named product bits m<i>; skip po_obs-style extras *)
        Array.to_seq outs
        |> Seq.fold_lefti
             (fun acc k (name, _) ->
               if String.length name > 1 && name.[0] = 'm' then
                 match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
                 | Some i when vals.(k) -> acc + (1 lsl i)
                 | _ -> acc
               else acc)
             0
      in
      let pa = product (BG.c6288_like ~width:w ()) in
      let pc = product (BG.csa_multiplier ~width:w ()) in
      pa = a * b && pc = a * b)

(* --- differential: hot engines vs references ----------------------------- *)

let cnf_arb =
  P.make
    ~show:(fun (nvars, clauses) ->
      Printf.sprintf "%d vars, %d clauses" nvars (List.length clauses))
    (fun rng ->
      let nvars = 3 + Rng.int rng 25 in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clause () =
        let len = 1 + Rng.int rng 3 in
        List.init len (fun _ -> (Rng.int rng nvars, Rng.bool rng))
      in
      (nvars, List.init nclauses (fun _ -> clause ())))

let test_sat_differential () =
  P.check_exn ~count:120 ~name:"arrays solver agrees with reference CDCL"
    cnf_arb (fun (nvars, clauses) ->
      let open Sat in
      let module Solver_ref = Reference.Solver_ref in
      let satisfies model =
        List.for_all
          (List.exists (fun (v, sign) -> model v = sign))
          clauses
      in
      (* add_clause may raise Unsat_root on a level-0 conflict — that is
         a documented Unsat verdict, not an error *)
      let run_new () =
        let s = Solver.create () in
        ignore (Solver.new_vars s nvars);
        match
          List.iter
            (fun cl ->
              Solver.add_clause s
                (List.map (fun (v, sign) -> Solver.lit_of_var v ~sign) cl))
            clauses
        with
        | () ->
          (match Solver.solve s with
           | Solver.Sat -> `Sat (Solver.model_value s)
           | Solver.Unsat -> `Unsat
           | Solver.Unknown _ -> `Unknown)
        | exception Solver.Unsat_root -> `Unsat
      in
      let run_ref () =
        let sref = Solver_ref.create () in
        match
          List.iter
            (fun cl ->
              Solver_ref.add_clause sref
                (List.map (fun (v, sign) -> Solver_ref.lit_of_var v ~sign) cl))
            clauses
        with
        | () ->
          (match Solver_ref.solve sref with
           | Solver_ref.Sat -> `Sat (Solver_ref.model_value sref)
           | Solver_ref.Unsat -> `Unsat
           | Solver_ref.Unknown _ -> `Unknown)
        | exception Solver_ref.Unsat_root -> `Unsat
      in
      match (run_new (), run_ref ()) with
      | `Sat m, `Sat mref -> satisfies m && satisfies mref
      | `Unsat, `Unsat -> true
      | _ -> false)

(* A growing instance solved under assumptions after every batch: the
   incremental shape of the SAT attack's DIP loop and of ATPG sessions. *)
let incremental_arb =
  P.make
    ~show:(fun (nvars, batches) ->
      Printf.sprintf "%d vars, batches of %s clauses" nvars
        (String.concat "/"
           (List.map (fun (cls, _) -> string_of_int (List.length cls)) batches)))
    (fun rng ->
      let nvars = 3 + Rng.int rng 25 in
      let lit () = (Rng.int rng nvars, Rng.bool rng) in
      let batch () =
        let clause () = List.init (1 + Rng.int rng 3) (fun _ -> lit ()) in
        ( List.init (1 + Rng.int rng nvars) (fun _ -> clause ()),
          List.init (Rng.int rng 4) (fun _ -> lit ()) )
      in
      (nvars, List.init (3 + Rng.int rng 3) (fun _ -> batch ())))

let test_sat_incremental_differential () =
  let open Sat in
  let module Solver_ref = Reference.Solver_ref in
  let holds model = List.for_all (fun (v, sign) -> model v = sign) in
  let satisfies model = List.for_all (List.exists (fun (v, sign) -> model v = sign)) in
  (* Feed the batches to one solver, solving after each. [add] is false
     once a clause is refuted at the root: the instance is then Unsat for
     good and the solver is not used again. A Sat model is checked on the
     spot, before the next batch can change it. *)
  let drive ~add ~solve batches =
    let dead = ref false and so_far = ref [] in
    List.map
      (fun (clauses, assumptions) ->
        so_far := clauses @ !so_far;
        if not !dead then dead := not (List.for_all add clauses);
        if !dead then `Unsat
        else
          match solve assumptions with
          | `Sat model ->
            if satisfies model !so_far && holds model assumptions then `Sat else `Bad_model
          | (`Unsat | `Unknown) as v -> v)
      batches
  in
  let array_solver nvars =
    let s = Solver.create () in
    ignore (Solver.new_vars s nvars);
    let lits = List.map (fun (v, sign) -> Solver.lit_of_var v ~sign) in
    ( (fun cl ->
        match Solver.add_clause s (lits cl) with
        | () -> true
        | exception Solver.Unsat_root -> false),
      fun a ->
        match Solver.solve ~assumptions:(lits a) s with
        | Solver.Sat -> `Sat (Solver.model_value s)
        | Solver.Unsat -> `Unsat
        | Solver.Unknown _ -> `Unknown )
  in
  let ref_solver nvars =
    let r = Solver_ref.create () in
    for _ = 1 to nvars do
      ignore (Solver_ref.new_var r)
    done;
    let lits = List.map (fun (v, sign) -> Solver_ref.lit_of_var v ~sign) in
    ( (fun cl ->
        match Solver_ref.add_clause r (lits cl) with
        | () -> true
        | exception Solver_ref.Unsat_root -> false),
      fun a ->
        match Solver_ref.solve ~assumptions:(lits a) r with
        | Solver_ref.Sat -> `Sat (Solver_ref.model_value r)
        | Solver_ref.Unsat -> `Unsat
        | Solver_ref.Unknown _ -> `Unknown )
  in
  (* Ground truth that shares no assumption handling with either side: a
     fresh reference solver given the clauses so far plus each assumption
     as a unit clause, solved without assumptions. *)
  let truth nvars batches =
    let so_far = ref [] in
    List.map
      (fun (clauses, assumptions) ->
        so_far := clauses @ !so_far;
        let add, solve = ref_solver nvars in
        let units = List.map (fun l -> [ l ]) assumptions in
        List.hd (drive ~add ~solve [ (units @ !so_far, []) ]))
      batches
  in
  let seen_sat = ref 0 and seen_unsat = ref 0 in
  P.check_exn ~count:2000 ~name:"incremental solving under assumptions agrees with reference"
    incremental_arb (fun (nvars, batches) ->
      let run (add, solve) = drive ~add ~solve batches in
      let got = run (array_solver nvars) and expect = run (ref_solver nvars) in
      List.iter
        (function `Sat -> incr seen_sat | `Unsat -> incr seen_unsat | _ -> ())
        expect;
      got = expect && got = truth nvars batches
      && List.for_all (fun v -> v = `Sat || v = `Unsat) got);
  (* Both verdicts must occur, or the property says nothing about one. *)
  Alcotest.(check bool)
    (Printf.sprintf "both verdicts seen (%d Sat, %d Unsat)" !seen_sat !seen_unsat)
    true
    (!seen_sat > 0 && !seen_unsat > 0)

let test_word_sim_differential () =
  (* 63 patterns per case: lane j of the word simulation must equal the
     boolean simulation of pattern j, on a fresh random circuit. *)
  let arb =
    P.make
      ~show:(fun (seed, pat_seed) -> Printf.sprintf "seed=%d patterns=%d" seed pat_seed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  P.check_exn ~count:25 ~name:"word-parallel sim matches naive eval" arb
    (fun (seed, pat_seed) ->
      let c = BG.layered ~seed ~inputs:12 ~layers:4 ~width:24 () in
      let ni = Circuit.num_inputs c in
      let rng = Rng.create pat_seed in
      let words = Array.init ni (fun _ -> Rng.bits63 rng) in
      let word_out = Sim.eval_word c words in
      let ok = ref true in
      for lane = 0 to 62 do
        let bools = Array.map (fun w -> (w lsr lane) land 1 = 1) words in
        let bool_out = Sim.eval c bools in
        Array.iteri
          (fun k w ->
            if ((w lsr lane) land 1 = 1) <> bool_out.(k) then ok := false)
          word_out
      done;
      !ok)

let test_session_vs_fresh () =
  (* One persistent Stuck_at_session must answer every query exactly like a
     throwaway check_stuck_at solver: same Equivalent/Counterexample status,
     and any session witness must actually detect the fault. *)
  let arb =
    P.make
      ~show:(fun (seed, fseed) -> Printf.sprintf "circuit=%d faults=%d" seed fseed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  P.check_exn ~count:20 ~name:"incremental session matches fresh check_stuck_at" arb
    (fun (seed, fseed) ->
      let c = BG.layered ~seed ~inputs:8 ~layers:4 ~width:12 () in
      let faults = Array.of_list (Fault.Model.all_stuck_at_faults c) in
      Rng.shuffle (Rng.create fseed) faults;
      let n = min 25 (Array.length faults) in
      let session = Sat.Cnf.Stuck_at_session.create c in
      let ok = ref true in
      for i = 0 to n - 1 do
        match faults.(i) with
        | Fault.Model.Bit_flip _ -> ()
        | Fault.Model.Stuck_at { node; value } as f ->
          let fresh = Sat.Cnf.check_stuck_at c ~node ~value in
          let inc = Sat.Cnf.Stuck_at_session.query session ~node ~value in
          (match (fresh, inc) with
           | Sat.Cnf.Equivalent, Sat.Cnf.Equivalent -> ()
           | Sat.Cnf.Counterexample _, Sat.Cnf.Counterexample w ->
             (* The witness pattern may legitimately differ between the two
                solvers, but it must detect the fault either way. *)
             if not (Fault.Model.detects c ~fault:f w) then ok := false
           | _ -> ok := false)
      done;
      !ok)

let test_session_budget_resume () =
  (* A zero-step budget forces Equiv_unknown on every query whose solve
     needs at least one conflict. The session must survive the abandoned
     query: an unbudgeted retry of the same fault — and every later query —
     must still match a fresh solver. *)
  let c = BG.layered ~seed:47 ~inputs:8 ~layers:5 ~width:14 () in
  let faults = Array.of_list (Fault.Model.all_stuck_at_faults c) in
  Rng.shuffle (Rng.create 48) faults;
  let session = Sat.Cnf.Stuck_at_session.create c in
  let checked = ref 0 and unknowns = ref 0 in
  Array.iter
    (fun f ->
      if !checked < 12 then
        match f with
        | Fault.Model.Bit_flip _ -> ()
        | Fault.Model.Stuck_at { node; value } ->
          incr checked;
          let b = Eda_util.Budget.create ~steps:0 () in
          (match Sat.Cnf.Stuck_at_session.query ~budget:b session ~node ~value with
           | Sat.Cnf.Equiv_unknown _ -> incr unknowns
           | Sat.Cnf.Equivalent | Sat.Cnf.Counterexample _ -> ());
          let retry = Sat.Cnf.Stuck_at_session.query session ~node ~value in
          (match (Sat.Cnf.check_stuck_at c ~node ~value, retry) with
           | Sat.Cnf.Equivalent, Sat.Cnf.Equivalent -> ()
           | Sat.Cnf.Counterexample _, Sat.Cnf.Counterexample w ->
             Alcotest.(check bool) "retry witness detects" true
               (Fault.Model.detects c ~fault:f w)
           | _ -> Alcotest.fail "post-Unknown session answer diverged from fresh"))
    faults;
  Alcotest.(check bool) "at least one query hit the budget" true (!unknowns > 0)

let test_atpg_ground_truth () =
  (* Unbudgeted campaigns checked against independent ground truth: the
     pattern set's simulated coverage is exactly the reported coverage,
     every reported untestable fault is re-proven by a fresh per-fault
     solver, and detected plus untestable accounts for every fault. *)
  let untestable_seen = ref 0 in
  let arb =
    P.pair family_arb (P.pair (P.int_range 0 1_000_000) (P.int_range 24 160))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  P.check_exn ~count:30 ~name:"ATPG report matches fault simulation and fresh proofs"
    { arb with P.show }
    (fun (fam, (seed, tgt)) ->
      let c = BG.sized ~seed fam ~target_gates:tgt in
      let faults = Fault.Model.all_stuck_at_faults c in
      let r = Dft.Atpg.run c in
      let detected =
        List.length
          (List.filter snd
             (Fault.Model.fault_simulation c ~faults ~patterns:r.Dft.Atpg.patterns))
      in
      let untestable = r.Dft.Atpg.untestable in
      untestable_seen := !untestable_seen + List.length untestable;
      r.Dft.Atpg.exhausted = None
      && Int64.bits_of_float r.Dft.Atpg.coverage
         = Int64.bits_of_float (Fault.Model.coverage c ~faults ~patterns:r.Dft.Atpg.patterns)
      && List.for_all (fun f -> Dft.Atpg.generate c f = Dft.Atpg.Untestable) untestable
      && detected + List.length untestable = r.Dft.Atpg.faults_total);
  Alcotest.(check bool) "some campaign reported untestable faults" true (!untestable_seen > 0)

let test_detects_many_differential () =
  (* Lane k of the word-parallel fault simulation must agree with the
     scalar [detects] oracle, and reusing the scratch must not leak state
     between calls. *)
  let arb =
    P.make
      ~show:(fun (seed, pseed) -> Printf.sprintf "circuit=%d pattern=%d" seed pseed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  P.check_exn ~count:25 ~name:"word-parallel fault drop matches scalar detects" arb
    (fun (seed, pseed) ->
      let c = BG.layered ~seed ~inputs:10 ~layers:4 ~width:16 () in
      let rng = Rng.create pseed in
      let all = Array.of_list (Fault.Model.all_stuck_at_faults c) in
      Rng.shuffle rng all;
      let nf = min 63 (Array.length all) in
      let faults = Array.sub all 0 nf in
      if nf > 2 then
        faults.(1) <- Fault.Model.Bit_flip { node = Fault.Model.node_of faults.(1) };
      let pattern = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
      let w = Fault.Model.wsim_create c in
      let mask = Fault.Model.detects_many w c ~faults ~pos:0 ~len:nf pattern in
      (* The same faults as a slice at an offset of a longer array. *)
      let padded = Array.append all faults in
      let again =
        Fault.Model.detects_many w c ~faults:padded ~pos:(Array.length all) ~len:nf pattern
      in
      let lanes_agree = ref true in
      Array.iteri
        (fun k f ->
          if (mask lsr k) land 1 = 1 <> Fault.Model.detects c ~fault:f pattern then
            lanes_agree := false)
        faults;
      mask = again && !lanes_agree)

(* --- flat event engine vs the record-heap reference ---------------------- *)

module Ev = Timing.Event_sim
module Ev_ref = Reference.Event_sim_ref

(* A storm is part of the outcome: both engines must give up with the same
   message. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let transition_bits l =
  List.map (fun tr -> (Int64.bits_of_float tr.Ev.time, tr.Ev.node, tr.Ev.value)) l

let sample_bits = Array.map Int64.bits_of_float

(* The engines agree on one cycle: the same (time, node, value) list and
   the same power-trace samples, bit for bit, noise draws included. *)
let engines_agree ?input_arrivals c ~prev_inputs ~next_inputs =
  let config = { Power.Model.default_config with Power.Model.noise_sigma = 0.3 } in
  let same f g = outcome f = outcome g in
  same
    (fun () -> transition_bits (Ev.cycle ?input_arrivals c ~prev_inputs ~next_inputs))
    (fun () -> transition_bits (Ev_ref.cycle ?input_arrivals c ~prev_inputs ~next_inputs))
  && same
       (fun () ->
         sample_bits
           (Power.Model.trace (Rng.create 77) ?input_arrivals c ~config ~prev_inputs
              ~next_inputs))
       (fun () ->
         sample_bits
           (Ev_ref.trace (Rng.create 77) ?input_arrivals c ~config ~prev_inputs ~next_inputs))

type ev_source = Family of BG.family | Random_dag | Masked of Synth.Masking.style * int

let ev_source_name = function
  | Family f -> BG.family_name f
  | Random_dag -> "random_dag"
  | Masked (style, shares) ->
    Printf.sprintf "%s_%d_shares" (Synth.Masking.string_of_style style) shares

let test_event_sim_differential () =
  (* Every Bench_gen family, random DAGs (duplicate fanins included), and
     the ISW/DOM gadget netlists the glitch campaign simulates, whose
     equal-time buckets hold dozens of events. Each cycle runs with all
     inputs at 0, with arrivals on a 5 ps grid like the cell delays (so
     equal-time ties between inputs and gate outputs are common), with
     multiples of 0.1 ps computed two ways (k *. 0.1 and k /. 10.0 differ
     in the last bit for some k, so their times must not be merged), and
     with -0.0 arrivals beside 0.0 ones. *)
  let source_arb =
    P.choose_from ~show:ev_source_name
      ((Random_dag :: List.map (fun f -> Family f) BG.all_families)
      @ List.concat_map
          (fun style -> [ Masked (style, 2); Masked (style, 3) ])
          [ Synth.Masking.Isw; Synth.Masking.Dom ])
  in
  let arb =
    P.pair source_arb (P.triple (P.int_range 0 100_000) (P.int_range 16 600) (P.int_range 0 100_000))
  in
  let show (src, (seed, size, vseed)) =
    Printf.sprintf "%s seed=%d size=%d vectors=%d" (ev_source_name src) seed size vseed
  in
  P.check_exn ~count:80 ~name:"flat event engine matches the record-heap reference"
    { arb with P.show } (fun (src, (seed, size, vseed)) ->
      let c =
        match src with
        | Family fam -> BG.sized ~seed fam ~target_gates:size
        | Random_dag -> Gen.random_dag ~seed ~inputs:(2 + (size mod 14)) ~gates:size ~outputs:4
        | Masked (style, shares) ->
          (* The multiplier families storm at 3 shares; keep the bases
             that finish, so the gadgets' ties are what gets compared. *)
          let fam = [| BG.Layered; BG.C432; BG.C880 |].(seed mod 3) in
          let base = BG.sized ~seed fam ~target_gates:(16 + (size / 16)) in
          (Synth.Masking.transform ~shares ~style ~seed base).Synth.Masking.circuit
      in
      let ni = Circuit.num_inputs c in
      let rng = Rng.create vseed in
      let vec () = Array.init ni (fun _ -> Rng.bool rng) in
      let prev_inputs = vec () and next_inputs = vec () in
      let grid () = Float.of_int (5 * Rng.int rng 12) in
      let on_grid = Array.init ni (fun _ -> if Rng.bool rng then 0.0 else grid ()) in
      let fractional =
        Array.init ni (fun _ ->
            let k = Float.of_int (Rng.int rng 30) in
            if Rng.bool rng then k *. 0.1 else k /. 10.0)
      in
      let signed_zeros =
        Array.init ni (fun k ->
            if k = 0 then -0.0
            else match Rng.int rng 3 with 0 -> 0.0 | 1 -> -0.0 | _ -> grid ())
      in
      engines_agree c ~prev_inputs ~next_inputs
      && List.for_all
           (fun input_arrivals -> engines_agree ~input_arrivals c ~prev_inputs ~next_inputs)
           [ on_grid; fractional; signed_zeros ])

let test_event_storm_pinned () =
  (* A 6x6 array multiplier storms on the all-zero -> all-one step: a DAG,
     not an oscillation — glitches multiply through the adder grid until
     the cap. Both engines must stop at the same pop. *)
  let c = BG.c6288_like ~width:6 () in
  let ni = Circuit.num_inputs c in
  let prev_inputs = Array.make ni false and next_inputs = Array.make ni true in
  (match outcome (fun () -> Ev.cycle c ~prev_inputs ~next_inputs) with
   | Error m ->
     let key = "event storm" in
     let rec has i =
       i + String.length key <= String.length m
       && (String.sub m i (String.length key) = key || has (i + 1))
     in
     Alcotest.(check bool) "storm message names the storm" true (has 0)
   | Ok _ -> Alcotest.fail "expected an event storm");
  Alcotest.(check bool) "same storm as the reference" true
    (engines_agree c ~prev_inputs ~next_inputs);
  (* The reference gives up on pop 200 * nodes + 1. *)
  let sink, _ = Eda_util.Telemetry.memory_sink () in
  let pops =
    Eda_util.Telemetry.with_sink sink (fun () ->
        (try ignore (Ev.cycle c ~prev_inputs ~next_inputs) with Invalid_argument _ -> ());
        Eda_util.Telemetry.counter_total "event_sim.events")
  in
  Alcotest.(check int) "cap counted on pops" ((200 * Circuit.node_count c) + 1) pops

let test_hw_sampler_differential () =
  (* The campaign-resolved sampler reproduces the one-shot model, bit for
     bit, through a scratch buffer left dirty by the previous call. *)
  let arb =
    P.make
      ~show:(fun (fam, seed) -> Printf.sprintf "%s seed=%d" (BG.family_name fam) seed)
      (fun rng -> (Rng.choose rng BG.all_families, Rng.int rng 100_000))
  in
  P.check_exn ~count:30 ~name:"prepared Hamming-weight sampler matches the model" arb
    (fun (fam, seed) ->
      let c = BG.sized ~seed fam ~target_gates:120 in
      let sample = Power.Model.hamming_weight_sampler c in
      let scratch = Array.make (Circuit.node_count c) true in
      let rng = Rng.create seed in
      List.for_all
        (fun k ->
          let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
          let a = sample (Rng.create k) ~scratch ~noise_sigma:0.5 ~inputs in
          let b = Power.Model.hamming_weight_sample (Rng.create k) c ~noise_sigma:0.5 ~inputs in
          Int64.bits_of_float a = Int64.bits_of_float b)
        [ 1; 2; 3; 4 ])

(* Random multi-sample campaign: per sample a large common offset (the
   DC level of a power trace, which stresses cancellation), and for the
   fixed class a mean shift and a different spread, so both orders carry
   signal. Pure in [stream], so safe to run pooled. *)
let synthetic_collect ~seed ~samples =
  let params = Rng.create seed in
  let offset = Array.init samples (fun _ -> 50.0 *. Rng.float params) in
  let shift = Array.init samples (fun _ -> Rng.float params -. 0.5) in
  let sigma = Array.init samples (fun _ -> 0.5 +. (2.0 *. Rng.float params)) in
  fun stream cls ->
    Array.init samples (fun k ->
        let x = Rng.gaussian stream in
        match cls with
        | `Fixed -> offset.(k) +. shift.(k) +. (sigma.(k) *. x)
        | `Random -> offset.(k) +. x)

let test_tvla_streaming_differential () =
  (* The streamed first and second order agree with the list t-tests on
     the very traces the campaign consumed. *)
  let module Tvla = Sidechannel.Tvla in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  let agree (got : Tvla.result) (want : Tvla.result) =
    got.Tvla.traces_per_class = want.Tvla.traces_per_class
    && Array.length got.Tvla.t_per_sample = Array.length want.Tvla.t_per_sample
    && Array.for_all2 close got.Tvla.t_per_sample want.Tvla.t_per_sample
  in
  P.check_exn ~count:40 ~name:"streamed TVLA matches the list t-tests"
    (P.triple (P.int_range 0 1_000_000) (P.int_range 1 8) (P.int_range 2 150))
    (fun (seed, samples, pairs) ->
      let synthetic = synthetic_collect ~seed ~samples in
      let fixed = ref [] and random = ref [] in
      let collect stream cls =
        let tr = synthetic stream cls in
        (match cls with `Fixed -> fixed := tr :: !fixed | `Random -> random := tr :: !random);
        tr
      in
      let o1, o2 = Tvla.campaign_orders (Rng.create (seed + 1)) ~traces_per_class:pairs ~collect in
      agree o1 (Reference.Tvla_ref.t_test !fixed !random)
      && agree o2 (Reference.Tvla_ref.t_test_second_order !fixed !random))

module Place = Physical.Placement
module Place_ref = Reference.Placement_ref
module Split = Splitmfg.Split

(* A random DAG, optionally with a gate that reads one net twice and a
   DFF that feeds itself (its net lists the driver as a consumer too):
   the pin multiplicities the move kernel must count like the lists. *)
let placement_circuit ~seed ~gates ~dup =
  let c = Gen.random_dag ~seed ~inputs:(2 + (seed mod 6)) ~gates ~outputs:2 in
  if dup then begin
    let v = Circuit.node_count c - 1 in
    ignore (Circuit.add_gate c Netlist.Gate.Xor [ v; v ]);
    let q = Circuit.add_dff c ~d:v in
    Circuit.connect_dff c q ~d:q
  end;
  c

let test_placement_differential () =
  (* The CSR move kernel against the list annealer: positions, moves
     performed and the winning start at 1 and 4 starts, with and without
     a step budget; perturbation positions; full wirelength (the cached
     HPWL sums against a from-scratch list recount); and the bucketed
     proximity attack's CCR on lifted splits. *)
  let arb =
    P.pair
      (P.triple (P.int_range 0 100_000) (P.int_range 1 250) P.bool_arb)
      (P.triple (P.int_range 0 3000) (P.int_range 1 4000) (P.int_range 0 4))
  in
  let show ((seed, gates, dup), (moves, steps, knob)) =
    Printf.sprintf "seed=%d gates=%d dup=%b moves=%d steps=%d knob=%d" seed gates dup moves
      steps knob
  in
  P.check_exn ~count:40 ~name:"CSR placement kernel matches the list annealer"
    { arb with P.show } (fun ((seed, gates, dup), (moves, steps, knob)) ->
      let c = placement_circuit ~seed ~gates ~dup in
      let same_place starts budgeted =
        let budget () = if budgeted then Some (Eda_util.Budget.create ~steps ()) else None in
        let o = Place.place ~starts ~moves ?budget:(budget ()) (Rng.create seed) c in
        let r = Place_ref.place ~starts ~moves ?budget:(budget ()) (Rng.create seed) c in
        o.Place.placement.Place.position = r.Place.placement.Place.position
        && o.Place.moves_performed = r.Place.moves_performed
        && o.Place.best_start = r.Place.best_start
      in
      let p = (Place.place ~moves (Rng.create seed) c).Place.placement in
      let lambda = [| 0.5; 0.0; 1.3; 0.1; 2.0 |].(knob) in
      let q = Place.perturb (Rng.create (seed + 1)) ~lambda ~moves p in
      let q_ref = Place_ref.perturb (Rng.create (seed + 1)) ~lambda ~moves p in
      let ccr placement =
        let s =
          Split.lift_wires ~fraction:(Float.of_int knob /. 4.0)
            (Split.split_by_length ~feol_threshold:(knob mod 3) placement)
        in
        Int64.bits_of_float (Split.proximity_attack s)
        = Int64.bits_of_float (Place_ref.proximity_attack s)
      in
      List.for_all (fun starts -> same_place starts false && same_place starts true) [ 1; 4 ]
      && q.Place.position = q_ref.Place.position
      && Place.wirelength p = Place_ref.wirelength p
      && Place.wirelength q = Place_ref.wirelength q
      && ccr p && ccr q)

let test_tvla_second_order_large_shift () =
  (* Both classes share one spread and the fixed class sits 100-1000
     above the random one: there is no second-order leakage to find.
     With noiseless classes every second-order t must be exactly 0 (no
     rounding residue in the sum of squares), and with a small spread no
     sample may cross the threshold. *)
  let module Tvla = Sidechannel.Tvla in
  P.check_exn ~count:40 ~name:"second order stays silent under a large mean shift"
    (P.pair
       (P.triple (P.int_range 0 1_000_000) (P.int_range 1 8) (P.int_range 2 150))
       (P.choose_from ~show:string_of_float [ 0.0; 1e-6; 1e-3 ]))
    (fun ((seed, samples, pairs), sigma) ->
      let params = Rng.create seed in
      let level = Array.init samples (fun _ -> Rng.float params -. 0.5) in
      let shift = Array.init samples (fun _ -> 100.0 +. (900.0 *. Rng.float params)) in
      let collect stream cls =
        Array.init samples (fun k ->
            let x = sigma *. Rng.gaussian stream in
            match cls with `Fixed -> level.(k) +. shift.(k) +. x | `Random -> level.(k) +. x)
      in
      let _, o2 = Tvla.campaign_orders (Rng.create (seed + 1)) ~traces_per_class:pairs ~collect in
      if sigma = 0.0 then Array.for_all (fun t -> t = 0.0) o2.Tvla.t_per_sample
      else not (Tvla.leaks o2))

(* [Tvla.campaign_seeded]'s t_per_sample digests, captured before the
   streaming-moments rewrite: the first-order bits must never move. *)
let t_digest (r : Sidechannel.Tvla.result) =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") r.Sidechannel.Tvla.t_per_sample))))

let test_tvla_pinned_fingerprint () =
  let module Tvla = Sidechannel.Tvla in
  let collect stream cls =
    Array.init 7 (fun k ->
        let shift = match cls with `Fixed when k = 3 -> 0.4 | _ -> 0.0 in
        (Rng.gaussian stream *. (1.0 +. (float_of_int k *. 0.25))) +. shift)
  in
  List.iter
    (fun (seed, pairs, digest) ->
      let label = Printf.sprintf "seed %d, %d pairs" seed pairs in
      Alcotest.(check string) label digest
        (t_digest (Tvla.campaign_seeded (Rng.create seed) ~traces_per_class:pairs ~collect));
      Alcotest.(check string) (label ^ ", first order of campaign_orders") digest
        (t_digest (fst (Tvla.campaign_orders (Rng.create seed) ~traces_per_class:pairs ~collect))))
    [ (1, 45, "fbce966047c35f834a69b98f6f78eb87");
      (2, 100, "5f237b66119763eb0362e0a05c46eb68");
      (3, 257, "e4bc9bdb5c7a3037f72d66dc34ab5149") ];
  Alcotest.(check string) "secure-synthesis HW gate on c17" "715e3e7d0e12107882bcbf0f1a83e0fb"
    (t_digest
       (Sidechannel.Secure_synth.assess (Rng.create 21) (Gen.c17 ()) ~traces_per_class:1500
          ~noise_sigma:0.8))

(* --- pooled vs sequential bit-identity at 1/2/8 domains ------------------ *)

let domain_counts = [ 1; 2; 8 ]

let with_pools f =
  List.map
    (fun d ->
      if d = 1 then f None
      else Pool.with_pool ~num_domains:d (fun p -> f (Some p)))
    domain_counts

let all_equal = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (( = ) x) rest

let test_tvla_pool_identical () =
  let c = BG.sized ~seed:32 BG.Layered ~target_gates:220 in
  let ni = Circuit.num_inputs c in
  let nodes = Circuit.node_count c in
  let collect stream cls =
    let vec =
      Array.init ni (fun _ ->
          match cls with `Fixed -> true | `Random -> Rng.bool stream)
    in
    let scratch = Array.make nodes false in
    [| Power.Model.hamming_weight_sample stream ~scratch c ~noise_sigma:0.4 ~inputs:vec |]
  in
  let results =
    with_pools (fun pool ->
        let r =
          Sidechannel.Tvla.campaign_seeded ?pool (Rng.create 5150)
            ~traces_per_class:257 ~collect
        in
        (r.Sidechannel.Tvla.t_per_sample, r.Sidechannel.Tvla.max_abs_t))
  in
  Alcotest.(check bool) "TVLA bit-identical at 1/2/8 domains" true (all_equal results);
  Alcotest.(check string) "pinned t_per_sample" "f008d0c27a41158e65b8a781e1d0f8d2"
    (t_digest
       (Sidechannel.Tvla.campaign_seeded (Rng.create 5150) ~traces_per_class:257 ~collect))

let test_secure_synth_pool_identical () =
  (* The HW-TVLA gate recycles one net-value buffer between traces;
     pooled workers must never share it. *)
  let c = BG.sized ~seed:34 BG.C432 ~target_gates:40 in
  let masked = Synth.Pass.apply ~params:[ ("shares", "2"); ("seed", "4") ] "mask_insertion" c in
  let results =
    with_pools (fun pool ->
        (Sidechannel.Secure_synth.assess ?pool (Rng.create 36) masked ~traces_per_class:300
           ~noise_sigma:0.8)
          .Sidechannel.Tvla.t_per_sample)
  in
  Alcotest.(check bool) "HW-TVLA gate bit-identical at 1/2/8 domains" true (all_equal results)

let test_placement_pool_identical () =
  let c = BG.sized ~seed:33 BG.C432 ~target_gates:220 in
  let results =
    with_pools (fun pool ->
        let o = Physical.Placement.place ~starts:8 ~moves:400 ?pool (Rng.create 2718) c in
        ( Physical.Placement.wirelength o.Physical.Placement.placement,
          o.Physical.Placement.best_start ))
  in
  Alcotest.(check bool) "placement bit-identical at 1/2/8 domains" true
    (all_equal results)

let test_trace_merge_deterministic () =
  (* Canonical merged telemetry must be byte-identical at 1/2/8 domains
     for any deterministic workload: random task counts and payloads,
     deterministic caller/worker clocks. *)
  let module T = Eda_util.Telemetry in
  let fake_clock () =
    let t = ref 0.0 in
    fun () ->
      let v = !t in
      t := v +. 1.0;
      v
  in
  let task_clock i =
    let t = ref (1000.0 *. Float.of_int (i + 1)) in
    fun () ->
      let v = !t in
      t := v +. 1.0;
      v
  in
  let traced_batch ~tasks ~salt d =
    let sink, events = T.memory_sink () in
    T.with_sink ~clock:(fake_clock ()) ~task_clock sink (fun () ->
        Pool.with_pool ~num_domains:d (fun p ->
            ignore
              (Pool.parallel_map p
                 ~f:(fun _ctx i ->
                   T.with_span "task.work" ~attrs:[ ("i", T.Int i) ] (fun () ->
                       T.count "work.done" 1;
                       T.observe "work.cost" (Float.of_int ((i * salt) mod 97)));
                   i)
                 (Array.init tasks (fun i -> i)))));
    String.concat "\n" (List.map T.event_to_line (T.Trace.canonicalize (events ())))
  in
  let arb = P.pair (P.int_range 1 12) (P.int_range 1 1000) in
  P.check_exn ~count:15 ~name:"canonical merged trace identical at 1/2/8 domains" arb
    (fun (tasks, salt) ->
      let base = traced_batch ~tasks ~salt 1 in
      String.length base > 0
      && List.for_all (fun d -> traced_batch ~tasks ~salt d = base) [ 2; 8 ])

let test_pool_chunking_preserves_results () =
  (* scheduling grain must never leak into results *)
  let inputs = Array.init 500 (fun i -> i) in
  let expect = Array.map (fun i -> Some (i * 7)) inputs in
  List.iter
    (fun chunk ->
      Pool.with_pool ~num_domains:4 (fun p ->
          let got = Pool.parallel_map ~chunk p ~f:(fun _ctx x -> x * 7) inputs in
          Alcotest.(check bool)
            (Printf.sprintf "chunk=%d keeps ordered results" chunk)
            true (got = expect)))
    [ 1; 3; 64; 1000 ]

let () =
  Alcotest.run "proptest"
    [ ( "harness",
        [ Alcotest.test_case "passing property" `Quick test_passes;
          Alcotest.test_case "replay deterministic" `Quick test_replay_deterministic;
          Alcotest.test_case "shrinks to boundary" `Quick test_shrinks_to_boundary;
          Alcotest.test_case "shrink budget" `Quick test_shrink_budget_respected;
          Alcotest.test_case "pair shrinks componentwise" `Quick
            test_pair_shrinks_componentwise;
          Alcotest.test_case "list min length kept" `Quick test_list_min_len_kept;
          Alcotest.test_case "failure report replayable" `Quick
            test_failure_report_replayable ] );
      ( "oracles",
        [ Alcotest.test_case "ripple adder" `Quick test_ripple_adder_oracle;
          Alcotest.test_case "comparator" `Quick test_comparator_oracle;
          Alcotest.test_case "parity tree" `Quick test_parity_tree_oracle;
          Alcotest.test_case "multipliers agree" `Quick test_multiplier_families_agree ] );
      ( "bench-gen",
        [ Alcotest.test_case "seed determinism" `Quick test_generators_seed_deterministic;
          Alcotest.test_case "lint clean (sized)" `Quick test_generators_lint_clean;
          Alcotest.test_case "lint clean (layered params)" `Quick
            test_layered_params_lint_clean;
          Alcotest.test_case "sized hits target" `Quick test_sized_hits_target ] );
      ( "differential",
        [ Alcotest.test_case "sat vs reference" `Quick test_sat_differential;
          Alcotest.test_case "incremental sat vs reference" `Quick
            test_sat_incremental_differential;
          Alcotest.test_case "word sim vs naive" `Quick test_word_sim_differential;
          Alcotest.test_case "session vs fresh" `Slow test_session_vs_fresh;
          Alcotest.test_case "session budget resume" `Quick test_session_budget_resume;
          Alcotest.test_case "word fault drop vs scalar" `Quick
            test_detects_many_differential;
          Alcotest.test_case "atpg vs ground truth" `Quick test_atpg_ground_truth;
          Alcotest.test_case "event engine vs reference" `Quick test_event_sim_differential;
          Alcotest.test_case "pinned event storm" `Quick test_event_storm_pinned;
          Alcotest.test_case "HW sampler vs model" `Quick test_hw_sampler_differential;
          Alcotest.test_case "placement kernel vs list annealer" `Quick
            test_placement_differential;
          Alcotest.test_case "streamed tvla vs list t-tests" `Quick
            test_tvla_streaming_differential;
          Alcotest.test_case "tvla second order under large shift" `Quick
            test_tvla_second_order_large_shift;
          Alcotest.test_case "pinned tvla fingerprint" `Quick test_tvla_pinned_fingerprint ] );
      ( "pooled",
        [ Alcotest.test_case "tvla 1/2/8 domains" `Slow test_tvla_pool_identical;
          Alcotest.test_case "secure-synth gate 1/2/8 domains" `Slow
            test_secure_synth_pool_identical;
          Alcotest.test_case "placement 1/2/8 domains" `Slow test_placement_pool_identical;
          Alcotest.test_case "trace merge deterministic" `Quick
            test_trace_merge_deterministic;
          Alcotest.test_case "chunking invariant" `Quick
            test_pool_chunking_preserves_results ] ) ]
