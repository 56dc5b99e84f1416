(* Tests for Trojan insertion and the four detection techniques. *)

module Circuit = Netlist.Circuit
module Gen = Netlist.Generators
module Insert = Trojan.Insert
module Detect = Trojan.Detect
module Rng = Eda_util.Rng

let test_insertion_preserves_interface () =
  let rng = Rng.create 1 in
  let clean = Gen.alu 4 in
  let troj = Insert.insert rng ~trigger_width:2 ~patterns:2048 clean in
  Alcotest.(check int) "inputs unchanged" (Circuit.num_inputs clean)
    (Circuit.num_inputs troj.Insert.infected);
  Alcotest.(check int) "outputs unchanged" (Circuit.num_outputs clean)
    (Circuit.num_outputs troj.Insert.infected)

let test_trojan_dormant_almost_always () =
  let rng = Rng.create 2 in
  let clean = Gen.alu 4 in
  let troj = Insert.insert rng ~trigger_width:4 ~patterns:4096 clean in
  let prob = Insert.trigger_probability rng troj ~patterns:20000 in
  Alcotest.(check bool) "rare trigger" true (prob < 0.02)

let test_trojan_changes_function_when_triggered () =
  let rng = Rng.create 3 in
  let clean = Gen.alu 4 in
  let troj = Insert.insert rng ~trigger_width:2 ~patterns:2048 clean in
  (* Find a triggering input by exhaustive-ish search. *)
  let ni = Circuit.num_inputs clean in
  let found = ref false in
  let i = ref 0 in
  while (not !found) && !i < 4096 do
    let inputs = Array.init ni (fun k -> (!i lsr k) land 1 = 1) in
    let values = Netlist.Sim.eval_all troj.Insert.infected inputs in
    if values.(troj.Insert.trigger_node) then begin
      found := true;
      Alcotest.(check bool) "payload flips output" true (Insert.exposed_by clean troj inputs)
    end;
    incr i
  done;
  Alcotest.(check bool) "trigger reachable" true !found

let test_parasitic_payload_keeps_function () =
  let rng = Rng.create 4 in
  let clean = Gen.alu 4 in
  let troj =
    Insert.insert rng ~payload:Insert.Leak_parasitic ~trigger_width:2 ~patterns:2048 clean
  in
  let ni = Circuit.num_inputs clean in
  let same = ref true in
  for m = 0 to 200 do
    let inputs = Array.init ni (fun k -> (m * 37 lsr k) land 1 = 1) in
    let infected_outs = Netlist.Sim.eval troj.Insert.infected inputs in
    if Array.sub infected_outs 0 (Circuit.num_outputs clean) <> Netlist.Sim.eval clean inputs
    then same := false
  done;
  Alcotest.(check bool) "functionally silent" true !same

let test_rare_conditions_are_rare () =
  let rng = Rng.create 5 in
  let clean = Gen.alu 4 in
  let rare = Insert.rare_conditions rng ~patterns:4096 ~count:5 clean in
  let probs = Netlist.Sim.signal_probabilities (Rng.create 99) ~patterns:6300 clean in
  List.iter
    (fun (net, v) ->
      let p = if v then probs.(net) else 1.0 -. probs.(net) in
      Alcotest.(check bool) "condition rare" true (p < 0.45))
    rare

let test_mero_n_detect_improves_exposure () =
  (* Over several random Trojans, higher N must expose at least as many as
     N = 1 (statistical claim; checked on aggregate). *)
  let expose n_detect seed =
    let rng = Rng.create seed in
    let clean = Gen.alu 4 in
    let troj = Insert.insert rng ~trigger_width:2 ~patterns:2048 clean in
    let rare = Insert.rare_conditions rng ~patterns:2048 ~count:10 clean in
    let pats = Detect.mero_patterns rng ~n_detect ~rare ~max_patterns:4000 clean in
    if Detect.functional_detect clean troj pats then 1 else 0
  in
  let total n = List.fold_left (fun acc s -> acc + expose n s) 0 [ 10; 11; 12; 13; 14; 15 ] in
  let low = total 1 and high = total 24 in
  Alcotest.(check bool) (Printf.sprintf "N=24 (%d) >= N=1 (%d)" high low) true (high >= low);
  Alcotest.(check bool) "N=24 exposes most" true (high >= 4)

let test_fingerprint_separates () =
  let rng = Rng.create 6 in
  let c = Gen.alu 4 in
  let tp, fp =
    Detect.fingerprint_detection rng ~chips:40 ~sigma:0.02 ~extra_load_ps:30.0
      ~threshold_sigmas:3.0 c ~tapped:[ 20; 25; 30 ]
  in
  Alcotest.(check bool) "high TPR" true (tp > 0.8);
  Alcotest.(check bool) "low FPR" true (fp < 0.3)

let test_fingerprint_misses_tiny_load () =
  let rng = Rng.create 7 in
  let c = Gen.alu 4 in
  let tp, _ =
    Detect.fingerprint_detection rng ~chips:40 ~sigma:0.05 ~extra_load_ps:0.5
      ~threshold_sigmas:3.0 c ~tapped:[ 20 ]
  in
  Alcotest.(check bool) "stealthy trojan evades" true (tp < 0.5)

let test_iddq_detection () =
  let rng = Rng.create 8 in
  let clean = Gen.alu 4 in
  let troj = Insert.insert rng ~payload:Insert.Leak_parasitic ~trigger_width:3 ~patterns:2048 clean in
  let tp, fp =
    Detect.iddq_detection rng ~chips:30 ~patterns:10 ~threshold_sigmas:2.0 ~clean
      ~infected:troj.Insert.infected
  in
  Alcotest.(check bool) "trojan leakage detected" true (tp > 0.5);
  Alcotest.(check bool) "clean chips pass" true (fp < 0.3)

let test_ro_sensor () =
  let rng = Rng.create 9 in
  let shift = Detect.ro_sensor_shift rng ~stages:11 ~sigma:0.03 ~extra_load_ps:10.0 in
  Alcotest.(check bool) "visible shift" true (shift > 2.0);
  let small = Detect.ro_sensor_shift rng ~stages:11 ~sigma:0.03 ~extra_load_ps:0.1 in
  Alcotest.(check bool) "small load hides" true (small < 2.0)

let test_bisa () =
  let rng = Rng.create 10 in
  let golden = Trojan.Bisa.fill ~total_sites:500 ~design_cells:400 in
  Alcotest.(check int) "filler count" 100 golden.Trojan.Bisa.filler_cells;
  let rate = Trojan.Bisa.detection_rate rng ~golden ~max_trojan_cells:50 ~trials:100 in
  Alcotest.(check (float 1e-9)) "always detected" 1.0 rate;
  (match Trojan.Bisa.insert_trojan golden ~cells:200 with
   | None -> ()
   | Some _ -> Alcotest.fail "no room for 200 cells")

let prop_infected_equals_clean_when_dormant =
  QCheck.Test.make ~name:"dormant trojan is functionally invisible" ~count:10
    QCheck.(pair (int_bound 100) (int_bound 1023))
    (fun (seed, m) ->
      let rng = Rng.create seed in
      let clean = Gen.alu 4 in
      let troj = Insert.insert rng ~trigger_width:3 ~patterns:2048 clean in
      let ni = Circuit.num_inputs clean in
      let inputs = Array.init ni (fun k -> (m lsr k) land 1 = 1) in
      let values = Netlist.Sim.eval_all troj.Insert.infected inputs in
      let triggered = values.(troj.Insert.trigger_node) in
      triggered || not (Insert.exposed_by clean troj inputs))

let () =
  Alcotest.run "trojan"
    [ ("insert",
       [ Alcotest.test_case "interface preserved" `Quick test_insertion_preserves_interface;
         Alcotest.test_case "dormant" `Quick test_trojan_dormant_almost_always;
         Alcotest.test_case "payload fires" `Quick test_trojan_changes_function_when_triggered;
         Alcotest.test_case "parasitic silent" `Quick test_parasitic_payload_keeps_function;
         Alcotest.test_case "rare conditions" `Quick test_rare_conditions_are_rare ]);
      ("detect",
       [ Alcotest.test_case "mero n-detect" `Slow test_mero_n_detect_improves_exposure;
         Alcotest.test_case "fingerprint separates" `Quick test_fingerprint_separates;
         Alcotest.test_case "fingerprint stealth limit" `Quick test_fingerprint_misses_tiny_load;
         Alcotest.test_case "iddq" `Quick test_iddq_detection;
         Alcotest.test_case "ro sensor" `Quick test_ro_sensor;
         Alcotest.test_case "bisa" `Quick test_bisa ]);
      ("properties",
       List.map Seeded.to_alcotest [ prop_infected_equals_clean_when_dormant ]) ]
