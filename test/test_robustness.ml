(* Robustness: resource budgets, structured errors, netlist linting,
   malformed-input handling, and the chaos harness driving the safe flow
   through injected failure modes. The invariant under test everywhere:
   engines degrade honestly (Unknown / partial / degradation note), they
   never hang, lie, or let an exception escape a result-typed API. *)

module Budget = Eda_util.Budget
module Eda_error = Eda_util.Eda_error
module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Io = Netlist.Io
module Lint = Netlist.Lint
module Solver = Sat.Solver
module Rng = Eda_util.Rng
module Flow = Secure_eda.Flow
module Chaos = Fault.Chaos

(* --- Budget ------------------------------------------------------------ *)

let test_budget_steps () =
  let b = Budget.create ~steps:3 () in
  Alcotest.(check bool) "fresh budget ok" true (Budget.status b = None);
  Budget.tick b;
  Budget.tick b;
  Alcotest.(check bool) "2/3 spent still ok" true (Budget.status b = None);
  Budget.tick b;
  Alcotest.(check bool) "exhausted" true (Budget.status b = Some Budget.Out_of_steps);
  Alcotest.(check bool) "spend reports error" true (Budget.spend b = Error Budget.Out_of_steps)

let test_budget_fake_clock_deadline () =
  let now = ref 0.0 in
  let b = Budget.create ~clock:(fun () -> !now) ~seconds:5.0 () in
  Alcotest.(check bool) "before deadline" true (Budget.status b = None);
  now := 4.9;
  Alcotest.(check bool) "just before deadline" true (Budget.status b = None);
  now := 5.0;
  Alcotest.(check bool) "at deadline" true (Budget.status b = Some Budget.Deadline_passed);
  Alcotest.(check bool) "elapsed tracks clock" true (Budget.elapsed b = 5.0)

let test_budget_cancel () =
  let b = Budget.create ~steps:1000 () in
  Budget.cancel b;
  Alcotest.(check bool) "cancelled" true (Budget.status b = Some Budget.Cancelled)

let test_sub_budget_charges_parent () =
  let parent = Budget.create ~steps:10 () in
  let child = Budget.sub ~steps:100 parent in
  Budget.tick ~cost:10 child;
  (* The child has its own allowance left, but the chain is spent. *)
  Alcotest.(check bool) "parent exhausted" true
    (Budget.status parent = Some Budget.Out_of_steps);
  Alcotest.(check bool) "child sees ancestor exhaustion" true
    (Budget.status child = Some Budget.Out_of_steps)

let test_sub_budget_tighter_than_parent () =
  let parent = Budget.create ~steps:1000 () in
  let child = Budget.sub ~steps:2 parent in
  Budget.tick ~cost:2 child;
  Alcotest.(check bool) "child exhausted" true
    (Budget.status child = Some Budget.Out_of_steps);
  Alcotest.(check bool) "parent still live" true (Budget.status parent = None);
  (* A sibling stage can still draw from the parent. *)
  let sibling = Budget.sub ~steps:2 parent in
  Alcotest.(check bool) "sibling live" true (Budget.status sibling = None)

(* --- Solver three-valued result ---------------------------------------- *)

(* Pigeonhole: n+1 pigeons into n holes. Unsatisfiable, and resolution
   proofs are exponential, so a small conflict budget cannot finish it. *)
let pigeonhole solver n =
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Solver.new_var solver)) in
  for p = 0 to n do
    Solver.add_clause solver
      (List.init n (fun h -> Solver.lit_of_var var.(p).(h) ~sign:true))
  done;
  for h = 0 to n - 1 do
    for p = 0 to n do
      for q = p + 1 to n do
        Solver.add_clause solver
          [ Solver.lit_of_var var.(p).(h) ~sign:false;
            Solver.lit_of_var var.(q).(h) ~sign:false ]
      done
    done
  done

let test_solver_unknown_on_tiny_budget () =
  let s = Solver.create () in
  pigeonhole s 5;
  (match Solver.solve ~budget:(Budget.create ~steps:5 ()) s with
   | Solver.Unknown Budget.Out_of_steps -> ()
   | Solver.Unknown _ -> Alcotest.fail "wrong exhaustion reason"
   | Solver.Sat | Solver.Unsat -> Alcotest.fail "php(5) cannot be decided in 5 conflicts");
  (* Learnt clauses persist: the same solver finishes the proof when the
     budget constraint is lifted. *)
  (match Solver.solve s with
   | Solver.Unsat -> ()
   | Solver.Sat | Solver.Unknown _ -> Alcotest.fail "php(5) is unsat");
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts counted" true (st.Solver.conflicts > 5);
  Alcotest.(check bool) "restarts counted" true (st.Solver.restarts >= 0)

let test_solver_unbudgeted_never_unknown () =
  let s = Solver.create () in
  pigeonhole s 3;
  match Solver.solve s with
  | Solver.Unsat -> ()
  | Solver.Sat | Solver.Unknown _ -> Alcotest.fail "php(3) is unsat"

(* --- Budgeted engines: sat-attack, ATPG, placement ---------------------- *)

let test_sat_attack_budget_exhaustion () =
  let original = Gen.alu 4 in
  let rng = Rng.create 7 in
  let locked = Locking.Lock.epic rng ~key_bits:8 original in
  let oracle = Locking.Sat_attack.oracle_of_circuit original in
  let result =
    Locking.Sat_attack.run ~budget:(Budget.create ~steps:2 ()) ~oracle locked
  in
  (match result.Locking.Sat_attack.status with
   | Locking.Sat_attack.Budget_exhausted _ -> ()
   | Locking.Sat_attack.Converged | Locking.Sat_attack.Iteration_limit ->
     Alcotest.fail "a 2-conflict budget cannot complete the attack");
  Alcotest.(check bool) "iterations reported" true (result.Locking.Sat_attack.iterations >= 0);
  (* And the same attack converges when unbudgeted. *)
  let full = Locking.Sat_attack.run ~oracle locked in
  Alcotest.(check bool) "unbudgeted attack converges" true
    (full.Locking.Sat_attack.status = Locking.Sat_attack.Converged);
  Alcotest.(check bool) "recovered key unlocks" true
    (Locking.Sat_attack.recovered_key_correct locked ~original full)

let test_atpg_partial_coverage () =
  let c = Gen.alu 4 in
  let r = Dft.Atpg.run ~budget:(Budget.create ~steps:3 ()) c in
  (match r.Dft.Atpg.exhausted with
   | Some _ -> ()
   | None -> Alcotest.fail "a 3-step budget cannot cover the alu fault list");
  Alcotest.(check bool) "faults remain" true (r.Dft.Atpg.faults_remaining > 0);
  Alcotest.(check bool) "coverage is partial, not a lie" true (r.Dft.Atpg.coverage < 1.0);
  Alcotest.(check bool) "totals consistent" true
    (r.Dft.Atpg.faults_remaining <= r.Dft.Atpg.faults_total);
  (* Unbudgeted report on a small circuit: complete, nothing remaining. *)
  let full = Dft.Atpg.run (Gen.c17 ()) in
  Alcotest.(check bool) "no exhaustion" true (full.Dft.Atpg.exhausted = None);
  Alcotest.(check int) "nothing remaining" 0 full.Dft.Atpg.faults_remaining;
  Alcotest.(check (float 0.001)) "c17 full coverage" 1.0 full.Dft.Atpg.coverage;
  (* c17's whole fault list is covered by the random-pattern bootstrap,
     so the SAT phase may legitimately run zero queries. *)
  Alcotest.(check bool) "solver stats aggregated" true
    (full.Dft.Atpg.solver_stats.Sat.Solver.conflicts >= 0
     && full.Dft.Atpg.solver_stats.Sat.Solver.decisions >= 0)

(* A step cap is a real cap. The SAT residue of this 540-node c6288-class
   multiplier needs more than [cap] conflicts, so a capped run must stop
   at the cap: at most [cap] conflicts, and at most one step beyond it
   (the per-fault charge of a query whose last conflict spent the
   balance but still concluded). *)
let step_capped_multiplier () = Netlist.Bench_gen.sized ~seed:1 Netlist.Bench_gen.C6288 ~target_gates:600

let test_atpg_step_cap_is_real () =
  let c = step_capped_multiplier () in
  let cap = 500 in
  let full = Dft.Atpg.run c in
  Alcotest.(check bool) "the residue needs more than the cap" true
    (full.Dft.Atpg.solver_stats.Sat.Solver.conflicts > cap);
  let b = Budget.create ~steps:cap () in
  let r = Dft.Atpg.run ~budget:b c in
  Alcotest.(check bool) "exhaustion reported" true (r.Dft.Atpg.exhausted <> None);
  Alcotest.(check bool)
    (Printf.sprintf "conflicts %d <= cap %d" r.Dft.Atpg.solver_stats.Sat.Solver.conflicts cap)
    true
    (r.Dft.Atpg.solver_stats.Sat.Solver.conflicts <= cap);
  Alcotest.(check bool)
    (Printf.sprintf "consumed %d <= cap + 1" (Budget.consumed_steps b))
    true
    (Budget.consumed_steps b <= cap + 1)

let test_flow_testing_stage_cap_is_real () =
  let module T = Eda_util.Telemetry in
  let c = step_capped_multiplier () in
  let cap = 500 in
  let root = Budget.unlimited () in
  let sink, _events = T.memory_sink () in
  let conflicts =
    T.with_sink sink (fun () ->
        match
          Flow.run (Rng.create 1) ~budget:root
            ~stage_steps:(function Flow.Testing -> Some cap | _ -> None)
            ~stages:[ Flow.Testing ] c
        with
        | Error e -> Alcotest.fail (Eda_error.to_string e)
        | Ok r ->
          Alcotest.(check int) "testing stage degraded" 1 r.Flow.degraded_stages;
          T.counter_total "sat.conflicts")
  in
  Alcotest.(check bool) (Printf.sprintf "conflicts %d <= cap %d" conflicts cap) true
    (conflicts <= cap);
  Alcotest.(check bool)
    (Printf.sprintf "consumed %d <= cap + 1" (Budget.consumed_steps root))
    true
    (Budget.consumed_steps root <= cap + 1)

let test_placement_budget_truncates_moves () =
  let c = Gen.alu 4 in
  let rng = Rng.create 3 in
  let outcome =
    Physical.Placement.place rng ~moves:2000 ~budget:(Budget.create ~steps:100 ()) c
  in
  let performed = outcome.Physical.Placement.moves_performed in
  Alcotest.(check bool) "stopped early" true (performed < 2000);
  Alcotest.(check bool) "did some work" true (performed > 0);
  let full = Physical.Placement.place (Rng.create 3) ~moves:500 c in
  Alcotest.(check int) "unbudgeted performs all moves" 500
    full.Physical.Placement.moves_performed

(* --- Malformed netlists ------------------------------------------------- *)

let expect_parse_error ?line text =
  match Io.of_string_result text with
  | Ok _ -> Alcotest.fail "malformed netlist accepted"
  | Error (Eda_error.Parse_error { line = got; _ }) ->
    (match line with
     | Some expected -> Alcotest.(check (option int)) "error line" (Some expected) got
     | None -> ())
  | Error e -> Alcotest.fail ("expected Parse_error, got " ^ Eda_error.to_string e)

let c17_text = Io.to_string (Gen.c17 ())

let test_malformed_truncated () =
  let cut = String.length c17_text * 2 / 3 in
  expect_parse_error (String.sub c17_text 0 cut)

let test_malformed_undefined_fanin () =
  expect_parse_error ~line:3 "INPUT(a)\nINPUT(b)\nc = AND(a, ghost)\nOUTPUT(c)"

let test_malformed_self_loop () =
  (* A combinational self-loop is an undefined net at definition time. *)
  expect_parse_error ~line:2 "INPUT(a)\nw = AND(w, a)\nOUTPUT(w)"

let test_malformed_duplicate_net () =
  expect_parse_error ~line:3 "INPUT(a)\nw = NOT(a)\nw = NOT(a)\nOUTPUT(w)"

let test_malformed_unknown_cell () =
  expect_parse_error ~line:2 "INPUT(a)\nw = FROBNICATE(a)\nOUTPUT(w)"

let test_malformed_bad_arity () =
  expect_parse_error ~line:3 "INPUT(a)\nINPUT(b)\nw = NOT(a, b)\nOUTPUT(w)"

let test_legacy_of_string_unchanged () =
  (* The historical exception-based API keeps its exact message. *)
  (match Io.of_string "what is this" with
   | exception Io.Parse_error msg ->
     Alcotest.(check string) "legacy message" "bad line: what is this" msg
   | _ -> Alcotest.fail "garbage accepted");
  (* And a valid netlist still round-trips through both entry points. *)
  (match Io.of_string_result c17_text with
   | Ok c -> Alcotest.(check bool) "well formed" true (Circuit.well_formed c)
   | Error e -> Alcotest.fail (Eda_error.to_string e))

let test_read_file_result_missing () =
  match Io.read_file_result "/nonexistent/netlist.bench" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error (Eda_error.Invalid_input _) -> ()
  | Error e -> Alcotest.fail ("expected Invalid_input, got " ^ Eda_error.to_string e)

(* --- Lint --------------------------------------------------------------- *)

let has_check issues check = List.exists (fun i -> i.Lint.check = check) issues

let test_lint_no_outputs () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  ignore (Circuit.add_gate ~name:"w" c Gate.Not [ a ]);
  Alcotest.(check bool) "no-outputs error" true (has_check (Lint.errors c) "no-outputs");
  match Lint.validate c with
  | Error (Eda_error.Lint_error { check = "no-outputs"; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Eda_error.to_string e)
  | Ok _ -> Alcotest.fail "validate accepted an output-less circuit"

let test_lint_duplicate_output () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let w = Circuit.add_gate ~name:"w" c Gate.Not [ a ] in
  Circuit.set_output c "y" w;
  Circuit.set_output c "y" a;
  Alcotest.(check bool) "duplicate-output error" true
    (has_check (Lint.errors c) "duplicate-output")

let test_lint_dangling_net_warning () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let w = Circuit.add_gate ~name:"w" c Gate.Not [ a ] in
  ignore (Circuit.add_gate ~name:"orphan" c Gate.Not [ a ]);
  Circuit.set_output c "w" w;
  Alcotest.(check bool) "dangling warning" true (has_check (Lint.check c) "dangling-net");
  Alcotest.(check bool) "warnings tolerated by default" true (Lint.validate c = Ok c);
  match Lint.validate ~allow_warnings:false c with
  | Error (Eda_error.Lint_error _) -> ()
  | Ok _ -> Alcotest.fail "strict validate ignored a warning"
  | Error e -> Alcotest.fail ("wrong error: " ^ Eda_error.to_string e)

(* Corrupt a well-formed circuit in memory (the node record's fanins are
   mutable precisely so tests can fabricate violations no parser emits). *)
let test_lint_fabricated_corruption () =
  let c = Gen.c17 () in
  Alcotest.(check bool) "clean before corruption" true (Lint.errors c = []);
  let victim = Circuit.node_count c - 1 in
  let nd = Circuit.node c victim in
  let original = nd.Circuit.fanins in
  nd.Circuit.fanins <- [| 9999; 0 |];
  Alcotest.(check bool) "undefined fanin caught" true
    (has_check (Lint.errors c) "undefined-fanin");
  nd.Circuit.fanins <- [| victim; 0 |];
  Alcotest.(check bool) "combinational loop caught" true
    (has_check (Lint.errors c) "combinational-loop");
  nd.Circuit.fanins <- original;
  Alcotest.(check bool) "clean after restore" true (Lint.errors c = [])

(* --- Safe flow: budgets, degradation, checkpoint/resume ----------------- *)

let test_flow_safe_unbudgeted_matches_run () =
  let c = Gen.c17 () in
  match Flow.run (Rng.create 1) c with
  | Error e -> Alcotest.fail (Eda_error.to_string e)
  | Ok r ->
    Alcotest.(check int) "four stages" 4 (List.length r.Flow.stages);
    Alcotest.(check int) "nothing degraded" 0 r.Flow.degraded_stages;
    List.iter
      (fun sr -> Alcotest.(check bool) "no note" true (sr.Flow.degraded = None))
      r.Flow.stages

let test_flow_starved_budget_degrades_every_stage () =
  let c = Gen.alu 4 in
  match Flow.run (Rng.create 1) ~budget:(Chaos.starved_budget ()) c with
  | Error e -> Alcotest.fail (Eda_error.to_string e)
  | Ok r ->
    Alcotest.(check int) "all four stages reported" 4 (List.length r.Flow.stages);
    Alcotest.(check int) "every stage degraded" 4 r.Flow.degraded_stages;
    List.iter
      (fun sr ->
        Alcotest.(check bool)
          (Flow.stage_name sr.Flow.stage ^ " carries a note") true
          (sr.Flow.degraded <> None))
      r.Flow.stages

let test_flow_rejects_invalid_circuit () =
  let c = Circuit.create () in
  ignore (Circuit.add_input ~name:"a" c);
  match Flow.run (Rng.create 1) c with
  | Error (Eda_error.Lint_error _) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Eda_error.to_string e)
  | Ok _ -> Alcotest.fail "flow accepted an output-less circuit"

let test_flow_checkpoint_resume () =
  let c = Gen.c17 () in
  let first =
    match Flow.run (Rng.create 1) ~stages:[ Flow.Logic_synthesis ] c with
    | Ok r -> r
    | Error e -> Alcotest.fail (Eda_error.to_string e)
  in
  Alcotest.(check int) "one stage done" 1 (List.length first.Flow.stages);
  match Flow.run (Rng.create 1) ~resume:first.Flow.checkpoint c with
  | Error e -> Alcotest.fail (Eda_error.to_string e)
  | Ok r ->
    Alcotest.(check int) "all four stages after resume" 4 (List.length r.Flow.stages);
    let synth_reports =
      List.filter (fun sr -> sr.Flow.stage = Flow.Logic_synthesis) r.Flow.stages
    in
    Alcotest.(check int) "synthesis not re-run" 1 (List.length synth_reports)

(* --- On-disk checkpoints ------------------------------------------------- *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let flow_once_checkpoint () =
  (* A checkpoint with real content: one completed stage. *)
  match Flow.run (Rng.create 1) ~stages:[ Flow.Logic_synthesis ] (Gen.c17 ()) with
  | Ok r -> r.Flow.checkpoint
  | Error e -> Alcotest.fail (Eda_error.to_string e)

let test_checkpoint_roundtrip () =
  let cp = flow_once_checkpoint () in
  match Flow.checkpoint_of_string (Flow.checkpoint_to_string cp) with
  | Error e -> Alcotest.fail (Eda_error.to_string e)
  | Ok got ->
    Alcotest.(check int) "stage reports survive" (List.length cp.Flow.done_stages)
      (List.length got.Flow.done_stages);
    Alcotest.(check string) "circuit survives bit-for-bit"
      (Io.to_string cp.Flow.circuit) (Io.to_string got.Flow.circuit);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "report fields equal" true
          (a.Flow.stage = b.Flow.stage && a.Flow.area = b.Flow.area
           && a.Flow.delay_ps = b.Flow.delay_ps && a.Flow.note = b.Flow.note
           && a.Flow.degraded = b.Flow.degraded && a.Flow.wirelength = b.Flow.wirelength
           && a.Flow.fault_coverage = b.Flow.fault_coverage))
      cp.Flow.done_stages got.Flow.done_stages

let test_checkpoint_corrupt_files_rejected () =
  let cp = flow_once_checkpoint () in
  List.iter
    (fun corruption ->
      let path = tmp_path ("robustness-ck-" ^ Chaos.file_corruption_name corruption ^ ".json") in
      (match Flow.save_checkpoint path cp with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Eda_error.to_string e));
      Chaos.corrupt_file (Rng.create 13) corruption path;
      match Flow.load_checkpoint path with
      | Ok _ -> Alcotest.failf "%s: corrupt checkpoint accepted"
                  (Chaos.file_corruption_name corruption)
      | Error (Eda_error.Invalid_input { what = "checkpoint"; _ }) -> ()
      | Error e ->
        Alcotest.failf "%s: wrong error class: %s"
          (Chaos.file_corruption_name corruption) (Eda_error.to_string e))
    Chaos.all_file_corruptions

let test_checkpoint_stale_version_rejected () =
  let cp = flow_once_checkpoint () in
  let bumped =
    (* Rewrite the version field; the hash guards content, the version
       guards format drift, so the rejection must name the version. *)
    let text = Flow.checkpoint_to_string cp in
    let marker = "\"version\":1" in
    let idx =
      let n = String.length text and m = String.length marker in
      let rec scan i =
        if i + m > n then Alcotest.fail "version field not found"
        else if String.sub text i m = marker then i
        else scan (i + 1)
      in
      scan 0
    in
    String.sub text 0 idx ^ "\"version\":999"
    ^ String.sub text (idx + String.length marker) (String.length text - idx - String.length marker)
  in
  match Flow.checkpoint_of_string bumped with
  | Ok _ -> Alcotest.fail "stale-version checkpoint accepted"
  | Error (Eda_error.Invalid_input { what = "checkpoint"; msg }) ->
    Alcotest.(check bool) "names the version" true
      (let n = String.length msg in
       let rec scan i = i + 3 <= n && (String.sub msg i 3 = "999" || scan (i + 1)) in
       scan 0)
  | Error e -> Alcotest.fail ("wrong error class: " ^ Eda_error.to_string e)

let test_checkpoint_to_persists_and_resumes () =
  let path = tmp_path "robustness-flow-ck.json" in
  if Sys.file_exists path then Sys.remove path;
  let c = Gen.c17 () in
  (match Flow.run (Rng.create 1) ~checkpoint_to:path c with
   | Error e -> Alcotest.fail (Eda_error.to_string e)
   | Ok _ -> ());
  match Flow.load_checkpoint path with
  | Error e -> Alcotest.fail (Eda_error.to_string e)
  | Ok cp ->
    Alcotest.(check int) "all four stages persisted" 4 (List.length cp.Flow.done_stages);
    (* Resuming from the loaded file re-runs nothing. *)
    (match Flow.run (Rng.create 1) ~resume:cp c with
     | Error e -> Alcotest.fail (Eda_error.to_string e)
     | Ok r ->
       Alcotest.(check int) "four stages total" 4 (List.length r.Flow.stages);
       let synth_reports =
         List.filter (fun sr -> sr.Flow.stage = Flow.Logic_synthesis) r.Flow.stages
       in
       Alcotest.(check int) "synthesis not re-run" 1 (List.length synth_reports))

(* --- Chaos -------------------------------------------------------------- *)

(* Parse-then-flow consumer: the composition a CLI user exercises. *)
let parse_and_flow text =
  match Io.of_string_result text with
  | Error e -> Error e
  | Ok c ->
    (match Flow.run (Rng.create 5) ~budget:(Budget.create ~steps:100_000 ()) c with
     | Error e -> Error e
     | Ok r -> Ok (Printf.sprintf "%d stages, %d degraded" (List.length r.Flow.stages)
                     r.Flow.degraded_stages))

let test_chaos_corruption_campaign () =
  let rng = Rng.create 11 in
  let observations =
    Chaos.corruption_campaign rng ~text:c17_text ~consumer:parse_and_flow
  in
  Alcotest.(check int) "every corruption exercised" (List.length Chaos.all_corruptions)
    (List.length observations);
  List.iter
    (fun o ->
      Alcotest.(check bool) (Chaos.describe_observation o) true (Chaos.graceful o))
    observations;
  let degraded =
    List.filter (fun o -> match o.Chaos.outcome with Chaos.Degraded _ -> true | _ -> false)
      observations
  in
  Alcotest.(check bool) "at least three corruptions forced degradation" true
    (List.length degraded >= 3)

let test_chaos_budget_starvation_scenarios () =
  let c = Gen.alu 4 in
  let scenarios =
    [ ("flow:starved", fun () ->
        (match Flow.run (Rng.create 2) ~budget:(Chaos.starved_budget ()) c with
         | Ok r -> Ok (Printf.sprintf "%d degraded" r.Flow.degraded_stages)
         | Error e -> Error e));
      ("flow:tiny", fun () ->
        (match Flow.run (Rng.create 2) ~budget:(Chaos.tiny_budget ()) c with
         | Ok r -> Ok (Printf.sprintf "%d degraded" r.Flow.degraded_stages)
         | Error e -> Error e));
      ("atpg:starved", fun () ->
        (match Dft.Atpg.run_checked ~budget:(Chaos.starved_budget ()) c with
         | Ok r ->
           Ok (Printf.sprintf "%d/%d faults left" r.Dft.Atpg.faults_remaining
                 r.Dft.Atpg.faults_total)
         | Error e -> Error e)) ]
  in
  let observations = Chaos.execute scenarios in
  Alcotest.(check bool) "all graceful" true (Chaos.all_graceful observations)

let test_chaos_detects_crashes () =
  let o = Chaos.observe "boom" (fun () -> failwith "unhandled") in
  (match o.Chaos.outcome with
   | Chaos.Crashed _ -> ()
   | Chaos.Survived _ | Chaos.Degraded _ -> Alcotest.fail "escaped exception not flagged");
  Alcotest.(check bool) "crash is not graceful" false (Chaos.graceful o)

let () =
  Alcotest.run "robustness"
    [ ("budget",
       [ Alcotest.test_case "step accounting" `Quick test_budget_steps;
         Alcotest.test_case "deadline with fake clock" `Quick test_budget_fake_clock_deadline;
         Alcotest.test_case "cancellation" `Quick test_budget_cancel;
         Alcotest.test_case "sub-budget charges parent" `Quick test_sub_budget_charges_parent;
         Alcotest.test_case "sub-budget tighter than parent" `Quick
           test_sub_budget_tighter_than_parent ]);
      ("solver",
       [ Alcotest.test_case "unknown on tiny budget, resumable" `Quick
           test_solver_unknown_on_tiny_budget;
         Alcotest.test_case "unbudgeted never unknown" `Quick
           test_solver_unbudgeted_never_unknown ]);
      ("budgeted engines",
       [ Alcotest.test_case "sat-attack exhaustion" `Quick test_sat_attack_budget_exhaustion;
         Alcotest.test_case "atpg partial coverage" `Quick test_atpg_partial_coverage;
         Alcotest.test_case "atpg step cap is real" `Quick test_atpg_step_cap_is_real;
         Alcotest.test_case "flow testing cap is real" `Quick
           test_flow_testing_stage_cap_is_real;
         Alcotest.test_case "placement truncated moves" `Quick
           test_placement_budget_truncates_moves ]);
      ("malformed netlists",
       [ Alcotest.test_case "truncated file" `Quick test_malformed_truncated;
         Alcotest.test_case "undefined fanin" `Quick test_malformed_undefined_fanin;
         Alcotest.test_case "combinational self-loop" `Quick test_malformed_self_loop;
         Alcotest.test_case "duplicate net" `Quick test_malformed_duplicate_net;
         Alcotest.test_case "unknown cell" `Quick test_malformed_unknown_cell;
         Alcotest.test_case "bad arity" `Quick test_malformed_bad_arity;
         Alcotest.test_case "legacy of_string unchanged" `Quick test_legacy_of_string_unchanged;
         Alcotest.test_case "missing file as result" `Quick test_read_file_result_missing ]);
      ("lint",
       [ Alcotest.test_case "no outputs" `Quick test_lint_no_outputs;
         Alcotest.test_case "duplicate output" `Quick test_lint_duplicate_output;
         Alcotest.test_case "dangling net warning" `Quick test_lint_dangling_net_warning;
         Alcotest.test_case "fabricated corruption" `Quick test_lint_fabricated_corruption ]);
      ("safe flow",
       [ Alcotest.test_case "unbudgeted clean run" `Quick test_flow_safe_unbudgeted_matches_run;
         Alcotest.test_case "starved budget degrades every stage" `Quick
           test_flow_starved_budget_degrades_every_stage;
         Alcotest.test_case "rejects invalid circuit" `Quick test_flow_rejects_invalid_circuit;
         Alcotest.test_case "checkpoint/resume" `Quick test_flow_checkpoint_resume ]);
      ("on-disk checkpoints",
       [ Alcotest.test_case "string round-trip" `Quick test_checkpoint_roundtrip;
         Alcotest.test_case "corrupt files rejected" `Quick
           test_checkpoint_corrupt_files_rejected;
         Alcotest.test_case "stale version rejected" `Quick
           test_checkpoint_stale_version_rejected;
         Alcotest.test_case "checkpoint_to persists and resumes" `Quick
           test_checkpoint_to_persists_and_resumes ]);
      ("chaos",
       [ Alcotest.test_case "corruption campaign" `Quick test_chaos_corruption_campaign;
         Alcotest.test_case "budget starvation scenarios" `Quick
           test_chaos_budget_starvation_scenarios;
         Alcotest.test_case "detects crashes" `Quick test_chaos_detects_crashes ]) ]
