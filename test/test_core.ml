(* Integration tests for the secure_eda core: Table I data, Table II
   registry, the Fig. 1 flow, the composition engine and metric shapes. *)

module Rng = Eda_util.Rng
module Composition = Secure_eda.Composition
module Metric = Secure_eda.Metric
module Threat = Secure_eda.Threat_model
module Registry = Secure_eda.Scheme_registry
module Flow = Secure_eda.Flow

let find_metric name metrics =
  match List.find_opt (fun m -> m.Metric.name = name) metrics with
  | Some m -> m.Metric.value
  | None -> Alcotest.fail ("missing metric " ^ name)

let test_table1_covers_all_vectors () =
  List.iter
    (fun v ->
      Alcotest.(check bool) (Threat.name v) true
        (List.exists (fun row -> row.Threat.vector = v) Threat.table))
    Threat.all;
  List.iter
    (fun row ->
      Alcotest.(check bool) "evaluation documented" true (row.Threat.toolkit_evaluation <> "");
      Alcotest.(check bool) "mitigation documented" true (row.Threat.toolkit_mitigation <> ""))
    Threat.table

let test_table2_covers_all_stage_threat_pairs () =
  (* Every stage and every threat appears at least once in the registry. *)
  List.iter
    (fun stage ->
      Alcotest.(check bool) (Registry.stage_name stage) true
        (List.exists (fun cell -> cell.Registry.stage = stage) Registry.table))
    Registry.all_stages;
  List.iter
    (fun threat ->
      Alcotest.(check bool) (Threat.name threat) true
        (List.exists (fun cell -> cell.Registry.threat = threat) Registry.table))
    Threat.all;
  Alcotest.(check bool) "at least 24 populated cells" true (List.length Registry.table >= 24)

let test_table2_cells_all_runnable () =
  (* Smoke-run every cell; each must produce a non-empty report. This is
     the "whole Table II executes" integration test. *)
  let rng = Rng.create 77 in
  List.iter
    (fun cell ->
      let report = cell.Registry.run rng in
      Alcotest.(check bool) (cell.Registry.scheme ^ " produces output") true
        (String.length report > 0))
    Registry.table

let test_composition_cross_effect () =
  (* The Sec. IV interaction: adding parity to masked logic re-opens the
     side channel while fixing fault detection. *)
  let rng = Rng.create 42 in
  let m = Composition.matrix rng ~traces_per_class:1500 ~noise_sigma:0.3 ~injections:80 in
  let metrics_of point = List.assoc point m in
  let t p = find_metric "TVLA max |t|" (metrics_of p) in
  let det p = find_metric "fault detection rate" (metrics_of p) in
  let area p = find_metric "area" (metrics_of p) in
  Alcotest.(check bool) "baseline leaks" true (t Composition.Baseline > 4.5);
  Alcotest.(check bool) "masked passes" true (t Composition.Masked < 4.5);
  Alcotest.(check bool) "composition re-leaks" true (t Composition.Masked_and_parity > 4.5);
  Alcotest.(check (float 1e-9)) "masking alone detects nothing" 0.0 (det Composition.Masked);
  Alcotest.(check bool) "parity detects" true (det Composition.Parity > 0.5);
  Alcotest.(check bool) "composition still detects" true (det Composition.Masked_and_parity > 0.5);
  Alcotest.(check bool) "cost monotone" true
    (area Composition.Masked_and_parity > area Composition.Masked)

let test_flow_reports_all_stages () =
  let rng = Rng.create 7 in
  let report =
    match Flow.run rng (Netlist.Generators.c17 ()) with
    | Ok r -> r
    | Error e -> Alcotest.fail (Eda_util.Eda_error.to_string e)
  in
  Alcotest.(check int) "four stages" 4 (List.length report.Flow.stages);
  List.iter
    (fun sr ->
      Alcotest.(check bool) (Flow.stage_name sr.Flow.stage ^ " area") true (sr.Flow.area > 0.0))
    report.Flow.stages;
  (* Final circuit functionally equals the input. *)
  Alcotest.(check bool) "flow preserves function" true
    (Netlist.Sim.equivalent_exhaustive (Netlist.Generators.c17 ()) report.Flow.final);
  (* Testing stage reports coverage. *)
  let testing =
    List.find (fun sr -> sr.Flow.stage = Flow.Testing) report.Flow.stages
  in
  (match testing.Flow.fault_coverage with
   | Some cov -> Alcotest.(check bool) "coverage" true (cov > 0.9)
   | None -> Alcotest.fail "testing stage must report coverage")

let test_flow_timing_note_pinned () =
  (* The timing stage's note at seed 1 on a design that does not storm:
     transitions and glitching nets are counted over one random cycle. *)
  let c = Netlist.Bench_gen.sized ~seed:1 Netlist.Bench_gen.C880 ~target_gates:300 in
  match Flow.run (Rng.create 1) c with
  | Error e -> Alcotest.fail (Eda_util.Eda_error.to_string e)
  | Ok report ->
    let timing =
      List.find (fun sr -> sr.Flow.stage = Flow.Timing_power_verification) report.Flow.stages
    in
    Alcotest.(check (option string)) "timing stage concluded" None timing.Flow.degraded;
    Alcotest.(check string) "pinned note" "event-sim: 295 transitions, 53 glitching nets"
      timing.Flow.note

let test_flow_demonstrates_fig2_on_masked_input () =
  (* The classical flow run on a masked circuit destroys its security;
     the same flow with barriers does not: the two runs must synthesize
     structurally different netlists (the protected run keeps the ISW
     chain verbatim) that still compute the same function. *)
  let masked = Synth.Masking.transform (Sidechannel.Leakage.private_and_source ()) in
  let c = masked.Synth.Masking.circuit in
  let rng = Rng.create 8 in
  let ok = function
    | Ok r -> r
    | Error e -> Alcotest.fail (Eda_util.Eda_error.to_string e)
  in
  let classical = ok (Flow.run rng c) in
  let secure = ok (Flow.run rng ~protect:Synth.Masking.protected_name c) in
  Alcotest.(check bool) "both functionally fine" true
    (Netlist.Sim.equivalent_exhaustive classical.Flow.final secure.Flow.final);
  let fp r = Netlist.Bench_gen.fingerprint r.Flow.final in
  Alcotest.(check bool) "classical and protected netlists differ" true
    (fp classical <> fp secure)

(* Every field of every stage report, and the final circuit's
   fingerprint, of the seed-1 flow on three generated designs, with and
   without a fence (every net whose name ends in an odd character code).
   Floats print in hex, so the pin is exact. *)
let pinned_flow_reports =
  [ (("c432", false), "fb2609ad817b7cf3",
      [ "logic synthesis|0x1.40cccccccccc9p+6|0x1.59p+8|-|-|constant-prop + strash + xor-reassoc|-";
        "physical synthesis (place)|0x1.40cccccccccc9p+6|0x1.59p+8|227|-|simulated-annealing placement|-";
        "timing/power verification|0x1.40cccccccccc9p+6|0x1.59p+8|-|-|event-sim: 67 transitions, 12 glitching nets|-";
        "testing (ATPG)|0x1.40cccccccccc9p+6|0x1.59p+8|-|0x1p+0|40 patterns|-" ]);
    (("c432", true), "3481e605d890fc08",
      [ "logic synthesis|0x1.45ffffffffffcp+6|0x1.59p+8|-|-|constant-prop + strash + xor-reassoc|-";
        "physical synthesis (place)|0x1.45ffffffffffcp+6|0x1.59p+8|225|-|simulated-annealing placement|-";
        "timing/power verification|0x1.45ffffffffffcp+6|0x1.59p+8|-|-|event-sim: 81 transitions, 22 glitching nets|-";
        "testing (ATPG)|0x1.45ffffffffffcp+6|0x1.59p+8|-|0x1.fa3f47e8fd1fap-1|39 patterns|-" ]);
    (("c880", false), "e2913ddc6c76b311",
      [ "logic synthesis|0x1.769999999999fp+7|0x1.e5p+9|-|-|constant-prop + strash + xor-reassoc|-";
        "physical synthesis (place)|0x1.769999999999fp+7|0x1.e5p+9|539|-|simulated-annealing placement|-";
        "timing/power verification|0x1.769999999999fp+7|0x1.e5p+9|-|-|event-sim: 133 transitions, 26 glitching nets|-";
        "testing (ATPG)|0x1.769999999999fp+7|0x1.e5p+9|-|0x1p+0|19 patterns|-" ]);
    (("c880", true), "6c4dfe84426644f5",
      [ "logic synthesis|0x1.769999999999fp+7|0x1.09p+10|-|-|constant-prop + strash + xor-reassoc|-";
        "physical synthesis (place)|0x1.769999999999fp+7|0x1.09p+10|532|-|simulated-annealing placement|-";
        "timing/power verification|0x1.769999999999fp+7|0x1.09p+10|-|-|event-sim: 90 transitions, 15 glitching nets|-";
        "testing (ATPG)|0x1.769999999999fp+7|0x1.09p+10|-|0x1p+0|19 patterns|-" ]);
    (("layered", false), "97524ca9bc9e2287",
      [ "logic synthesis|0x1.38e6666666675p+8|0x1.2f2p+12|-|-|constant-prop + strash + xor-reassoc|-";
        "physical synthesis (place)|0x1.38e6666666675p+8|0x1.2f2p+12|1283|-|simulated-annealing placement|-";
        "timing/power verification|0x1.38e6666666675p+8|0x1.2f2p+12|-|-|event-sim: 1900 transitions, 102 glitching nets|-";
        "testing (ATPG)|0x1.38e6666666675p+8|0x1.2f2p+12|-|0x1.f20f353a4c0a2p-1|16 patterns|-" ]);
    (("layered", true), "19cf0193969a71cb",
      [ "logic synthesis|0x1.560000000001p+8|0x1.978p+9|-|-|constant-prop + strash + xor-reassoc|-";
        "physical synthesis (place)|0x1.560000000001p+8|0x1.978p+9|1465|-|simulated-annealing placement|-";
        "timing/power verification|0x1.560000000001p+8|0x1.978p+9|-|-|event-sim: 740 transitions, 104 glitching nets|-";
        "testing (ATPG)|0x1.560000000001p+8|0x1.978p+9|-|0x1.e9ca3a728e9cap-1|14 patterns|-" ]) ]

let test_flow_reports_pinned () =
  let designs =
    [ ("c432", Netlist.Bench_gen.c432_like ~seed:3 ~scale:1 ());
      ("c880", Netlist.Bench_gen.c880_like ~seed:7 ~width:8 ());
      ("layered", Netlist.Bench_gen.layered ~seed:11 ~inputs:12 ~layers:6 ~width:24 ()) ]
  in
  let fence name = Char.code name.[String.length name - 1] mod 2 = 1 in
  let opt f = function None -> "-" | Some v -> f v in
  let render (sr : Flow.stage_report) =
    Printf.sprintf "%s|%h|%h|%s|%s|%s|%s" (Flow.stage_name sr.stage) sr.area sr.delay_ps
      (opt string_of_int sr.wirelength) (opt (Printf.sprintf "%h") sr.fault_coverage) sr.note
      (opt Fun.id sr.degraded)
  in
  List.iter
    (fun ((name, fenced), fingerprint, stages) ->
      let protect = if fenced then Some fence else None in
      match Flow.run (Rng.create 1) ?protect (List.assoc name designs) with
      | Error e -> Alcotest.fail (Eda_util.Eda_error.to_string e)
      | Ok r ->
        let tag = Printf.sprintf "%s protect=%b" name fenced in
        Alcotest.(check (list string)) (tag ^ " stage reports") stages
          (List.map render r.Flow.stages);
        Alcotest.(check string) (tag ^ " final circuit") fingerprint
          (Netlist.Bench_gen.fingerprint r.Flow.final))
    pinned_flow_reports

let test_metric_shape_classifier () =
  let step = [ (1.0, 0.0); (2.0, 0.02); (3.0, 1.0); (4.0, 1.0) ] in
  let smooth = [ (1.0, 0.1); (2.0, 0.35); (3.0, 0.6); (4.0, 0.9) ] in
  Alcotest.(check bool) "step detected" true (Metric.classify_shape step = Metric.Step);
  Alcotest.(check bool) "smooth detected" true (Metric.classify_shape smooth = Metric.Smooth);
  Alcotest.(check bool) "degenerate is smooth" true (Metric.classify_shape [] = Metric.Smooth)

let test_security_metrics_step_ppa_smooth () =
  (* The Sec. IV claim on real data: SAT-attack resistance vs key width is
     step-ish under a fixed attacker budget, area is smooth. *)
  let rng = Rng.create 9 in
  let source = Netlist.Generators.alu 4 in
  let budget = 12 in
  let points_security = ref [] and points_area = ref [] in
  List.iter
    (fun key_bits ->
      let locked = Locking.Lock.epic rng ~key_bits source in
      let r =
        Locking.Sat_attack.run ~max_iterations:budget
          ~oracle:(Locking.Sat_attack.oracle_of_circuit source) locked
      in
      let resisted = if r.Locking.Sat_attack.key = None then 1.0 else 0.0 in
      points_security := (Float.of_int key_bits, resisted) :: !points_security;
      points_area :=
        (Float.of_int key_bits, (Netlist.Circuit.stats locked.Locking.Lock.circuit).Netlist.Circuit.area)
        :: !points_area)
    [ 2; 6; 10; 14; 18 ];
  (* Area grows smoothly with key bits. *)
  Alcotest.(check bool) "area smooth" true
    (Metric.classify_shape (List.rev !points_area) = Metric.Smooth);
  (* Security is 0/1-valued: every transition is a step by construction;
     just confirm it is monotone 0 -> 1 or constant. *)
  let values = List.rev_map snd !points_security in
  let sorted = List.sort compare values in
  Alcotest.(check bool) "resistance monotone in key width" true (values = List.rev sorted || values = sorted)

let test_metric_pp () =
  let m = Metric.security ~name:"test" ~value:1.5 ~unit_:"bits" ~higher_is_better:false in
  let s = Format.asprintf "%a" Metric.pp m in
  Alcotest.(check bool) "renders" true (String.length s > 10)

let () =
  Alcotest.run "core"
    [ ("table1", [ Alcotest.test_case "covers vectors" `Quick test_table1_covers_all_vectors ]);
      ("table2",
       [ Alcotest.test_case "covers stages and threats" `Quick test_table2_covers_all_stage_threat_pairs;
         Alcotest.test_case "all cells runnable" `Slow test_table2_cells_all_runnable ]);
      ("composition",
       [ Alcotest.test_case "cross effect" `Slow test_composition_cross_effect ]);
      ("flow",
       [ Alcotest.test_case "stage reports" `Quick test_flow_reports_all_stages;
         Alcotest.test_case "pinned timing note" `Quick test_flow_timing_note_pinned;
         Alcotest.test_case "pinned stage reports" `Quick test_flow_reports_pinned;
         Alcotest.test_case "fig2 on masked input" `Quick test_flow_demonstrates_fig2_on_masked_input ]);
      ("metrics",
       [ Alcotest.test_case "shape classifier" `Quick test_metric_shape_classifier;
         Alcotest.test_case "security step, ppa smooth" `Slow test_security_metrics_step_ppa_smooth;
         Alcotest.test_case "pretty printing" `Quick test_metric_pp ]) ]
