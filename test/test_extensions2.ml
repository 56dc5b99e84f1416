(* Tests for the second extension batch: clock-glitch attacks + canary
   sensor, camouflage-constrained synthesis, key-sensitization attack,
   approximate QIF (cross-checks) and Unroll corner cases. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Rng = Eda_util.Rng
module Glitch = Fault.Glitch_attack

(* A carry-propagating stimulus for the 8-bit ripple adder: a = 0xFF,
   b = 0, cin = 1 ripples through every stage. *)
let adder = Gen.ripple_adder 8
let adder_prev = Array.make 17 false
let adder_next = Array.init 17 (fun i -> i < 8 || i = 16)

let test_capture_full_period_is_golden () =
  let golden = Netlist.Sim.eval adder adder_next in
  let captured =
    Glitch.glitched_outputs adder ~period_ps:10_000.0 ~prev_inputs:adder_prev
      ~next_inputs:adder_next
  in
  Alcotest.(check bool) "long period captures settled values" true (captured = golden)

let test_glitch_induces_fault () =
  let golden = Netlist.Sim.eval adder adder_next in
  let captured =
    Glitch.glitched_outputs adder ~period_ps:200.0 ~prev_inputs:adder_prev
      ~next_inputs:adder_next
  in
  Alcotest.(check bool) "short period corrupts" true (captured <> golden)

let test_attack_sweep_finds_margin () =
  let crit = (Timing.Sta.analyze adder).Timing.Sta.critical_path_delay in
  match
    Glitch.attack_sweep adder
      ~periods:[ 900.0; 800.0; 700.0; 600.0; 500.0 ]
      ~prev_inputs:adder_prev ~next_inputs:adder_next
  with
  | None -> Alcotest.fail "sweep must find a faulting period"
  | Some worst ->
    Alcotest.(check bool) "faulting period below critical path" true (worst < crit)

let test_sensor_never_silent () =
  let sensor = Glitch.add_sensor ~margin_ps:60.0 adder in
  Alcotest.(check bool) "canary slower than critical path" true
    (sensor.Glitch.canary_delay_ps
    > (Timing.Sta.analyze adder).Timing.Sta.critical_path_delay);
  let silent, detected, clean =
    Glitch.sweep_with_sensor sensor
      ~periods:[ 1000.0; 900.0; 800.0; 700.0; 600.0; 500.0; 400.0; 300.0 ]
      ~prev_inputs:adder_prev ~next_inputs:adder_next
  in
  Alcotest.(check int) "no silent corruption" 0 silent;
  Alcotest.(check bool) "glitches detected" true (detected > 0);
  Alcotest.(check bool) "slow clock passes clean" true (clean > 0)

let test_sensor_data_unchanged () =
  (* The canary must not disturb the protected function. *)
  let sensor = Glitch.add_sensor adder in
  let data, `Sensor_fired fired =
    Glitch.guarded_cycle sensor ~period_ps:10_000.0 ~prev_inputs:adder_prev
      ~next_inputs:adder_next
  in
  Alcotest.(check bool) "sensor quiet at full period" false fired;
  Alcotest.(check bool) "data matches golden" true (data = Netlist.Sim.eval adder adder_next)

(* --- camouflage-constrained synthesis ---------------------------------- *)

let test_constrained_synthesis_correct () =
  for seed = 0 to 20 do
    let bits = (seed * 2654435761) land 0xFFFF in
    let tt = Logic.Truth_table.create 4 (fun m -> (bits lsr m) land 1 = 1) in
    let c = Camo.Constrained.synthesize tt in
    Alcotest.(check bool) (Printf.sprintf "camouflageable %d" seed) true
      (Camo.Constrained.fully_camouflageable c);
    for m = 0 to 15 do
      let inputs = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d m %d" seed m)
        (Logic.Truth_table.eval tt m)
        (Netlist.Sim.eval c inputs).(0)
    done
  done

let test_constrained_synthesis_constants () =
  List.iter
    (fun value ->
      let tt = Logic.Truth_table.constant 3 value in
      let c = Camo.Constrained.synthesize tt in
      for m = 0 to 7 do
        let inputs = Array.init 3 (fun i -> (m lsr i) land 1 = 1) in
        Alcotest.(check bool) "constant" value (Netlist.Sim.eval c inputs).(0)
      done)
    [ true; false ]

let test_constraint_has_cost () =
  let tt = Logic.Truth_table.create 4 (fun m -> m mod 3 = 0) in
  Alcotest.(check bool) "overhead above 1" true (Camo.Constrained.constraint_overhead tt > 1.0)

let test_constrained_result_fully_lockable () =
  (* Every gate of the constrained result can be camouflaged. *)
  let rng = Rng.create 31 in
  let tt = Logic.Truth_table.create 4 (fun m -> (m lxor (m lsr 1)) land 1 = 1) in
  let c = Camo.Constrained.synthesize tt in
  let gates = (Circuit.stats c).Circuit.gates in
  let camo = Camo.Camouflage.apply rng ~cells:gates c in
  Alcotest.(check int) "all cells ambiguous" gates (List.length camo.Camo.Camouflage.ambiguous)

(* --- key sensitization -------------------------------------------------- *)

let test_sensitization_isolated_keys_recovered () =
  let rng = Rng.create 32 in
  let src = Gen.alu 4 in
  let locked = Locking.Lock.epic rng ~key_bits:4 src in
  let oracle = Locking.Sat_attack.oracle_of_circuit src in
  let outcome = Locking.Sensitization.run ~oracle locked in
  Alcotest.(check bool) "sparse keys fully recovered" true
    (Locking.Sensitization.accuracy outcome locked >= 0.95)

let test_sensitization_stops_at_fixed_point () =
  (* The bits three full passes recovered on the isolated-keys lock. The
     second pass leaves the guesses unchanged, so a third would repeat it
     query for query; the attack stops there. *)
  let src = Gen.alu 4 in
  let locked = Locking.Lock.epic (Rng.create 32) ~key_bits:4 src in
  let oracle = Locking.Sat_attack.oracle_of_circuit src in
  let o = Locking.Sensitization.run ~oracle locked in
  Alcotest.(check (list (pair int bool))) "same bits as three passes"
    [ (0, false); (1, false); (2, true); (3, true) ] o.Locking.Sensitization.recovered;
  Alcotest.(check (list int)) "nothing unresolved" [] o.Locking.Sensitization.unresolved;
  Alcotest.(check int) "two passes of 4 queries" 8 o.Locking.Sensitization.oracle_queries

let test_sensitization_interference_degrades () =
  (* Sparse keys on a tiny circuit sensitize cleanly; dense keys on the
     same circuit interfere. Compare on c17 (6 gates): 2 vs 6 key bits. *)
  let rng = Rng.create 33 in
  let src = Gen.c17 () in
  let sparse = Locking.Lock.epic rng ~key_bits:2 src in
  let dense = Locking.Lock.epic rng ~key_bits:6 src in
  let oracle = Locking.Sat_attack.oracle_of_circuit src in
  let acc_sparse =
    Locking.Sensitization.accuracy (Locking.Sensitization.run ~oracle sparse) sparse
  in
  let outcome_dense = Locking.Sensitization.run ~oracle dense in
  let acc_dense = Locking.Sensitization.accuracy outcome_dense dense in
  Alcotest.(check (float 1e-9)) "sparse keys fully recovered" 1.0 acc_sparse;
  Alcotest.(check bool)
    (Printf.sprintf "dense (%.2f) degraded or unresolved" acc_dense)
    true
    (acc_dense < 1.0 || outcome_dense.Locking.Sensitization.unresolved <> [])

let test_sensitization_never_wrong_on_resolved_single_key () =
  (* With one key bit there is no interference: the recovered bit is right. *)
  let rng = Rng.create 34 in
  let src = Gen.c17 () in
  let locked = Locking.Lock.epic rng ~key_bits:1 src in
  let oracle = Locking.Sat_attack.oracle_of_circuit src in
  let outcome = Locking.Sensitization.run ~passes:1 ~oracle locked in
  (match outcome.Locking.Sensitization.recovered with
   | [ (0, v) ] -> Alcotest.(check bool) "bit correct" locked.Locking.Lock.correct_key.(0) v
   | _ -> Alcotest.fail "single key must be resolved")

(* --- unroll corner cases ------------------------------------------------ *)

let test_expand_frame_count () =
  let c = Crypto.Sbox_circuit.aes_round_registered () in
  let exp = Sat.Unroll.expand c ~frames:3 in
  Alcotest.(check int) "inputs = init state + 3x inputs"
    (Circuit.num_dffs c + (3 * Circuit.num_inputs c))
    (Circuit.num_inputs exp.Sat.Unroll.circuit);
  Alcotest.(check int) "outputs = 3x outputs"
    (3 * Circuit.num_outputs c)
    (Circuit.num_outputs exp.Sat.Unroll.circuit);
  Alcotest.(check bool) "expansion is combinational" true
    (Circuit.num_dffs exp.Sat.Unroll.circuit = 0)

let test_two_safety_scan_chain_leaks_registered_secret () =
  (* A scanned AES round: the secret-dependent register state reaches
     scan_out in test mode — the 2-safety check sees the scan leak. *)
  let dp = Crypto.Sbox_circuit.aes_round_registered () in
  let scanned = Dft.Scan.insert dp in
  match
    Sat.Unroll.two_safety_leak scanned.Dft.Scan.circuit ~frames:2
      ~secret_state:[ 0; 1; 2; 3; 4; 5; 6; 7 ]
  with
  | Some _ -> ()
  | None -> Alcotest.fail "scan chain must expose the register state"

(* --- technology mapping -------------------------------------------------- *)

let test_techmap_nand_inv () =
  List.iter
    (fun c ->
      let mapped = Synth.Pass.apply "techmap" c in
      Alcotest.(check bool) "equivalent" true (Netlist.Sim.equivalent_exhaustive c mapped);
      Alcotest.(check bool) "conforms" true
        (Synth.Techmap.conforms Synth.Techmap.Nand_inv mapped))
    [ Gen.c17 (); Gen.alu 4; Gen.mux_tree 3; Gen.parity_tree 8 ]

let test_techmap_camo_target () =
  List.iter
    (fun c ->
      let mapped = Synth.Pass.apply ~params:[ ("target", "camo") ] "techmap" c in
      Alcotest.(check bool) "equivalent" true (Netlist.Sim.equivalent_exhaustive c mapped);
      Alcotest.(check bool) "conforms" true
        (Synth.Techmap.conforms Synth.Techmap.Nand_nor_xnor mapped))
    [ Gen.c17 (); Gen.ripple_adder 5 ]

(* --- circuit rebuild users ------------------------------------------------ *)

(* q = DFF(d), a = NAND(x, q), d = XOR(a, w): the DFF's D-input is a
   forward reference, which every rebuild must re-connect after its node
   loop. With [~key], a key gate XOR(a, key0) sits between [a] and [d]
   (transparent for key 0), declared first as a locked circuit's key. *)
let dff_feedback ?(key = false) () =
  let c = Circuit.create () in
  let k = if key then Circuit.add_input ~name:"key0" c else -1 in
  let x = Circuit.add_input ~name:"x" c in
  let w = Circuit.add_input ~name:"w" c in
  let q = Circuit.add_dff ~name:"q" c ~d:0 in
  let a = Circuit.add_gate ~name:"a" c Gate.Nand [ x; q ] in
  let a' = if key then Circuit.add_gate ~name:"g" c Gate.Xor [ a; k ] else a in
  let d = Circuit.add_gate ~name:"d" c Gate.Xor [ a'; w ] in
  Circuit.connect_dff c q ~d;
  Circuit.set_output c "a" a;
  Circuit.set_output c "q" q;
  c

let feedback_stimulus =
  List.map
    (fun (x, w) -> [| x; w |])
    [ (true, true); (true, false); (false, true); (true, true); (true, false) ]

(* Traces observe, per cycle, the source's outputs and then the next
   state of each source register. This one steps the source under a
   stuck-at through the scalar fault-simulation oracle: the reference
   for [faulty_copy]. *)
let faulty_trace c fault =
  let state = ref (Array.make (Circuit.num_dffs c) false) in
  List.map
    (fun v ->
      let values = Reference.Fault_sim_ref.eval_all_faulty ~state:!state c ~faults:[ fault ] v in
      state := Array.map (fun q -> values.((Circuit.fanins c q).(0))) (Circuit.dffs c);
      Array.append (Array.map (fun o -> values.(o)) (Circuit.output_ids c)) !state)
    feedback_stimulus

(* Step a rebuilt circuit on the source's stimulus: inputs the source
   declares by name, every added input (key, scan, mask randomness) from
   [extra]; registers are matched by name. *)
let rebuilt_trace src ~extra mapped =
  let dffs = Circuit.dffs mapped in
  let regs =
    Array.map
      (fun q ->
        let id = Option.get (Circuit.find_by_name mapped (Circuit.name src q)) in
        Option.get (Array.find_index (( = ) id) dffs))
      (Circuit.dffs src)
  in
  let state = ref (Array.make (Circuit.num_dffs mapped) false) in
  List.map
    (fun v ->
      let vec =
        Array.map
          (fun id ->
            let nm = Circuit.name mapped id in
            match Circuit.find_by_name src nm with
            | Some s when Circuit.kind src s = Gate.Input -> v.(Circuit.input_position src s)
            | Some _ | None -> extra nm)
          (Circuit.inputs mapped)
      in
      let outs, next = Netlist.Sim.step mapped ~state:!state vec in
      state := next;
      Array.append (Array.sub outs 0 (Circuit.num_outputs src)) (Array.map (Array.get next) regs))
    feedback_stimulus

let test_techmap_sequential () =
  (* Every rebuild keeps the DFF's D-input connected: the rebuilt circuit
     is lint-clean, and its outputs and register step like the source's
     (or, for a fault copy, like the scalar oracle's). *)
  let src = dff_feedback () in
  let node nm = Option.get (Circuit.find_by_name src nm) in
  let no_extra _ = false in
  let pass ?params name = (name, no_extra, Synth.Pass.apply ?params name src, None) in
  let stuck nm value =
    let fault = Fault.Model.Stuck_at { node = node nm; value } in
    ( Fault.Model.describe src fault,
      no_extra,
      Fault.Model.faulty_copy src fault,
      Some (faulty_trace src fault) )
  in
  let camo = { Camo.Camouflage.circuit = src; ambiguous = [ (node "a", 0) ] } in
  let camo_locked = Camo.Camouflage.to_locked camo in
  let key_value (locked : Locking.Lock.locked) nm =
    match
      Array.find_index
        (fun id -> Circuit.name locked.Locking.Lock.circuit id = nm)
        locked.Locking.Lock.key_inputs
    with
    | Some k -> locked.Locking.Lock.correct_key.(k)
    | None -> false
  in
  let hand_locked =
    let c = dff_feedback ~key:true () in
    let id nm = Option.get (Circuit.find_by_name c nm) in
    { Locking.Lock.circuit = c;
      key_inputs = [| id "key0" |];
      data_inputs = [| id "x"; id "w" |];
      correct_key = [| false |] }
  in
  let region =
    let c = dff_feedback () in
    Circuit.annotate_region c ~region:"core" [ node "a" ];
    Synth.Masking.mask_region ~shares:2 ~seed:1 c ~region:"core"
  in
  let cases =
    [ pass "techmap";
      pass ~params:[ ("target", "camo") ] "techmap";
      pass "to_and_xor_not";
      pass "constant_propagation";
      pass "strash";
      pass "xor_reassoc";
      pass "sweep";
      ("mask_region", no_extra, region, None);
      ("scan", no_extra, (Dft.Scan.insert src).Dft.Scan.circuit, None);
      ( "watermark",
        no_extra,
        (Locking.Watermark.embed_structural (Rng.create 5) ~bits:2 src)
          .Locking.Watermark.s_circuit,
        None );
      ("to_locked", key_value camo_locked, camo_locked.Locking.Lock.circuit, None);
      ("apply_key", no_extra, Locking.Lock.apply_key hand_locked ~key:[| false |], None);
      stuck "q" true;
      stuck "q" false;
      stuck "d" false;
      stuck "d" true;
      stuck "a" true ]
  in
  let show trace =
    String.concat " "
      (List.map
         (fun o -> String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") o)))
         trace)
  in
  let expected = rebuilt_trace src ~extra:no_extra src in
  List.iter
    (fun (name, extra, mapped, reference) ->
      (match Netlist.Lint.errors mapped with
       | [] -> ()
       | issue :: _ -> Alcotest.failf "%s: %s" name (Netlist.Lint.describe issue));
      Alcotest.(check string) (name ^ " trace")
        (show (Option.value reference ~default:expected))
        (show (rebuilt_trace src ~extra mapped)))
    cases

(* One structural fingerprint per rebuild user on a fixed design, pinned
   so a refactor of the shared rebuild shows any change of id, name,
   fanin or output. *)
let rebuild_fingerprints () =
  let fp = Netlist.Bench_gen.fingerprint in
  let design () =
    Netlist.Bench_gen.layered ~seed:23
      ~kinds:Gate.[ And; Nand; Or; Nor; Xor; Xnor; Not; Buf; Mux ]
      ~inputs:10 ~layers:5 ~width:12 ()
  in
  let c = design () in
  let seq = Crypto.Sbox_circuit.aes_round_registered () in
  let line name v = name ^ ": " ^ v in
  let locked = Locking.Lock.epic (Rng.create 3) ~key_bits:8 c in
  let wrong = Array.map not locked.Locking.Lock.correct_key in
  let camo = Camo.Camouflage.apply (Rng.create 4) ~cells:6 c in
  let trojan payload =
    (Trojan.Insert.insert (Rng.create 6) ~payload ~trigger_width:3 ~patterns:256 c)
      .Trojan.Insert.infected
  in
  let masked =
    let c = design () in
    Circuit.annotate_region c ~region:"core" [ Circuit.output_id c 0 ];
    Synth.Masking.mask_region ~seed:2 c ~region:"core"
  in
  let transform style shares =
    (Synth.Masking.transform ~shares ~style ~seed:2 (design ())).Synth.Masking.circuit
  in
  [ line "faulty_copy"
      (fp (Fault.Model.faulty_copy c (Fault.Model.Stuck_at { node = 30; value = true })));
    line "scan" (fp (Dft.Scan.insert seq).Dft.Scan.circuit);
    line "scan secure"
      (fp
         (Dft.Scan.insert ~protection:(Dft.Scan.Secure (Array.init 8 (fun k -> k mod 3 = 0))) seq)
           .Dft.Scan.circuit);
    line "epic" (fp locked.Locking.Lock.circuit);
    line "epic xor_only"
      (fp (Locking.Lock.epic (Rng.create 3) ~style:Locking.Lock.Xor_only ~key_bits:8 c)
           .Locking.Lock.circuit);
    line "apply_key" (fp (Locking.Lock.apply_key locked ~key:locked.Locking.Lock.correct_key));
    line "apply_key wrong" (fp (Locking.Lock.apply_key locked ~key:wrong));
    line "to_locked" (fp (Camo.Camouflage.to_locked camo).Locking.Lock.circuit);
    line "watermark structural"
      (fp (Locking.Watermark.embed_structural (Rng.create 7) ~bits:6 c).Locking.Watermark.s_circuit);
    line "watermark functional"
      (fp (Locking.Watermark.embed_functional (Rng.create 8) ~bits:4 c).Locking.Watermark.f_circuit);
    line "meter" (fp (Locking.Metering.meter (Rng.create 9) ~state_bits:4 c).Locking.Metering.circuit);
    line "trojan flip" (fp (trojan Trojan.Insert.Flip_output));
    line "trojan parasitic" (fp (trojan Trojan.Insert.Leak_parasitic));
    line "to_and_xor_not" (fp (Synth.Pass.apply "to_and_xor_not" c));
    line "techmap nand-inv" (fp (Synth.Pass.apply "techmap" c));
    line "techmap camo" (fp (Synth.Pass.apply ~params:[ ("target", "camo") ] "techmap" c));
    line "mask_region" (fp masked);
    line "transform isw 2" (fp (transform Synth.Masking.Isw 2));
    line "transform isw 3" (fp (transform Synth.Masking.Isw 3));
    line "transform dom 2" (fp (transform Synth.Masking.Dom 2));
    line "transform dom 3" (fp (transform Synth.Masking.Dom 3)) ]

(* Recorded before the rebuild loops moved onto [Circuit.rebuild]; the
   four [transform] lines before the register stage joined its walk. *)
let pinned_rebuild_fingerprints =
  [ "faulty_copy: 17c8862300f8d3f1";
    "scan: cfe07b876850699f";
    "scan secure: e3520889a9365871";
    "epic: 8f3e124783a1fc0d";
    "epic xor_only: 9469db72e5d42d80";
    "apply_key: 3feac5140cc2c8ff";
    "apply_key wrong: f10f395e26393d1a";
    "to_locked: a1e91b8bad2e651c";
    "watermark structural: 042e9666f6e65214";
    "watermark functional: 6fb1928690b3c2aa";
    "meter: 6ef91f19e676356c";
    "trojan flip: 6a2a6c58de09f760";
    "trojan parasitic: 8e2d18a6c12f352f";
    "to_and_xor_not: 415b550d8560152f";
    "techmap nand-inv: e1a0466655d35f97";
    "techmap camo: 3315f2f5ff9648cc";
    "mask_region: 9703b55a545b1860";
    "transform isw 2: 261caa26e675b538";
    "transform isw 3: f9606bedf43c7379";
    "transform dom 2: 90e7452bf6b99526";
    "transform dom 3: 0c5ef60cf4840e5f" ]

let test_rebuild_fingerprints () =
  Alcotest.(check (list string)) "rebuild fingerprints" pinned_rebuild_fingerprints
    (rebuild_fingerprints ())

let test_techmap_overhead_reasonable () =
  let c = Gen.alu 4 in
  let area c = (Circuit.stats c).Circuit.area in
  let oh = area (Synth.Pass.apply "techmap" c) /. area c in
  Alcotest.(check bool) (Printf.sprintf "overhead %.2f within 3x" oh) true (oh < 3.0)

let test_present_round_netlist () =
  let pr = Crypto.Sbox_circuit.present_round () in
  let rng = Rng.create 41 in
  for _ = 1 to 10 do
    let state = Rng.next_int64 rng in
    let key = Rng.next_int64 rng in
    let expected =
      Crypto.Present.p_layer (Crypto.Present.s_layer (Int64.logxor state key))
    in
    let bit v i = Int64.logand (Int64.shift_right_logical v i) 1L = 1L in
    let inputs = Array.init 128 (fun i -> if i < 64 then bit state i else bit key (i - 64)) in
    let outs = Netlist.Sim.eval pr inputs in
    for i = 0 to 63 do
      Alcotest.(check bool) (Printf.sprintf "bit %d" i) (bit expected i) outs.(i)
    done
  done

(* --- redundancy removal & formal audit ---------------------------------- *)

let test_redundancy_removal () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let g = Circuit.add_gate c Gate.And [ a; b ] in
  let y = Circuit.add_gate c Gate.Or [ a; g ] in
  Circuit.set_output c "y" y;
  let cleaned = Dft.Atpg.remove_redundancy c in
  Alcotest.(check bool) "equivalent" true (Netlist.Sim.equivalent_exhaustive c cleaned);
  Alcotest.(check int) "absorption law applied" 0 (Circuit.stats cleaned).Circuit.gates

let test_redundancy_removal_keeps_irredundant () =
  let c = Gen.c17 () in
  let cleaned = Dft.Atpg.remove_redundancy c in
  Alcotest.(check bool) "equivalent" true (Netlist.Sim.equivalent_exhaustive c cleaned);
  Alcotest.(check int) "c17 is irredundant" (Circuit.stats c).Circuit.gates
    (Circuit.stats cleaned).Circuit.gates

let test_redundancy_removal_restores_coverage () =
  (* Redundant logic caps fault coverage below 1; after removal the ATPG
     coverage is complete again. *)
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let g = Circuit.add_gate c Gate.And [ a; b ] in
  let y = Circuit.add_gate c Gate.Or [ a; g ] in
  let z = Circuit.add_gate c Gate.Xor [ y; b ] in
  Circuit.set_output c "z" z;
  let before = Dft.Atpg.run c in
  Alcotest.(check bool) "redundant faults exist" true
    (before.Dft.Atpg.untestable <> [] && before.Dft.Atpg.coverage < 1.0);
  let cleaned = Dft.Atpg.remove_redundancy c in
  let after = Dft.Atpg.run cleaned in
  Alcotest.(check (float 1e-9)) "full coverage after removal" 1.0 after.Dft.Atpg.coverage;
  Alcotest.(check int) "nothing untestable" 0 (List.length after.Dft.Atpg.untestable)

let test_redundancy_rejects_sequential () =
  (* A single-frame stuck-at query cannot see next-state logic: on the DFF
     feedback circuit it would call both faults on [d] untestable. *)
  match Dft.Atpg.remove_redundancy (dff_feedback ()) with
  | _ -> Alcotest.fail "a sequential circuit was accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the DFF count"
      "Atpg.remove_redundancy: sequential circuit (1 DFFs); redundancy removal reasons \
       about combinational logic only"
      msg

(* A two-copy SAT engine ties only primary inputs, so each copy's DFF
   outputs would be free and the DFF feedback circuit could differ from
   itself. Both engines refuse it, naming the DFF count. *)
let test_equivalence_rejects_sequential () =
  let c = dff_feedback () in
  match Sat.Cnf.check_equivalence c (Circuit.copy c) with
  | _ -> Alcotest.fail "a sequential circuit was compared"
  | exception
      Eda_util.Eda_error.Error
        (Eda_util.Eda_error.Invalid_input { what = "equivalence query"; msg }) ->
    Alcotest.(check string) "names the DFF count"
      "sequential circuit (1 DFFs); only combinational circuits are compared" msg

let test_sat_attack_rejects_sequential () =
  let c = dff_feedback ~key:true () in
  let key = Option.get (Circuit.find_by_name c "key0") in
  let locked =
    { Locking.Lock.circuit = c;
      key_inputs = [| key |];
      data_inputs = Array.of_list (List.filter (( <> ) key) (Array.to_list (Circuit.inputs c)));
      correct_key = [| false |] }
  in
  match Locking.Sat_attack.run ~oracle:(fun _ -> [| false; false |]) locked with
  | _ -> Alcotest.fail "a sequential circuit was attacked"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the DFF count"
      "Sat_attack.run: sequential circuit (1 DFFs); the attack unlocks combinational logic only"
      msg

let test_formal_audit_duplication () =
  let prot = Fault.Countermeasure.duplicate_protect (Gen.ripple_adder 2) in
  let `Proven proven, `Escapes escapes, `Harmless harmless = Fault.Formal.audit prot in
  Alcotest.(check bool) "some faults proven detected" true (proven > 0);
  Alcotest.(check bool) "some faults harmless" true (harmless > 0);
  (* Every escape is a common-mode primary-input fault, and every witness
     actually demonstrates silent corruption. *)
  List.iter
    (fun (fault, witness) ->
      Alcotest.(check bool) "escape is an input fault" true
        (Circuit.kind prot.Fault.Countermeasure.circuit (Fault.Model.node_of fault) = Gate.Input);
      Alcotest.(check bool) "witness is a real escape" true
        (Fault.Countermeasure.classify prot ~fault witness
        = Fault.Countermeasure.Corrupted_undetected))
    escapes;
  Alcotest.(check bool) "escapes found" true (escapes <> [])

let test_formal_audit_parity_finds_more_escapes () =
  (* Parity's even-flip blind spot shows as more escape proofs than
     duplication on the same design. *)
  let src = Gen.ripple_adder 2 in
  let audit_escapes prot =
    let `Proven _, `Escapes e, `Harmless _ = Fault.Formal.audit prot in
    List.length e
  in
  let dup = audit_escapes (Fault.Countermeasure.duplicate_protect src) in
  let par = audit_escapes (Fault.Countermeasure.parity_protect src) in
  Alcotest.(check bool) (Printf.sprintf "parity (%d) weaker than duplication (%d)" par dup)
    true (par >= dup)

(* A detection is a rising alarm, in [Formal] as in
   [Countermeasure.classify]. With the first output of a layered circuit
   as the alarm, the fault-free alarm is not always 0: on seed 1,
   s-a-0 on pi2 corrupts the data while pulling a raised alarm low, an
   escape, which "the alarm differs" proved detected. Over seeds 1-10 the
   verdict agrees with all 32 patterns on every stuck-at fault: [Escape]
   exactly when some pattern classifies as [Corrupted_undetected], and
   the witness is one. *)
let test_formal_alarm_must_rise () =
  let module C = Fault.Countermeasure in
  let layered seed =
    let c = Netlist.Bench_gen.layered ~seed ~inputs:5 ~layers:3 ~width:6 ~outputs:3 () in
    let outs = List.map fst (Array.to_list (Circuit.outputs c)) in
    { C.circuit = c; alarm_output = List.hd outs; data_outputs = List.tl outs }
  in
  let patterns = List.init 32 (fun p -> Array.init 5 (fun k -> (p lsr k) land 1 = 1)) in
  let prot = layered 1 in
  let pi2 = Option.get (Circuit.find_by_name prot.C.circuit "pi2") in
  (match Fault.Formal.check_fault prot (Fault.Model.Stuck_at { node = pi2; value = false }) with
   | Fault.Formal.Escape _ -> ()
   | Fault.Formal.Proven_detected | Fault.Formal.Harmless ->
     Alcotest.fail "s-a-0 @ pi2 pulls the alarm low: an escape");
  for seed = 1 to 10 do
    let prot = layered seed in
    List.iter
      (fun fault ->
        let name = Printf.sprintf "seed %d, %s" seed (Fault.Model.describe prot.C.circuit fault) in
        let escapes =
          List.exists (fun w -> C.classify prot ~fault w = C.Corrupted_undetected) patterns
        in
        match Fault.Formal.check_fault prot fault with
        | Fault.Formal.Escape w ->
          Alcotest.(check bool) (name ^ ": witness escapes") true
            (C.classify prot ~fault w = C.Corrupted_undetected)
        | Fault.Formal.Proven_detected | Fault.Formal.Harmless ->
          Alcotest.(check bool) (name ^ ": no pattern escapes") false escapes)
      (Fault.Model.all_stuck_at_faults prot.C.circuit)
  done

(* --- full AES core -------------------------------------------------------- *)

let test_aes_core_matches_software () =
  let core = Crypto.Aes_core.build () in
  let rng = Rng.create 50 in
  for _ = 1 to 5 do
    let key = Crypto.Aes.random_key rng in
    let pt = Crypto.Aes.random_block rng in
    let ks = Crypto.Aes.expand_key key in
    let ct, trace = Crypto.Aes_core.encrypt core ks pt in
    Alcotest.(check bool) "ciphertext matches" true (ct = Crypto.Aes.encrypt ks pt);
    Alcotest.(check int) "11 cycles" 11 (List.length trace);
    (* Cycle-0 state is pt XOR k0 — the scan attack's capture target. *)
    (match trace with
     | first :: _ ->
       let got = Crypto.Aes_core.bits_to_block first in
       Alcotest.(check bool) "load state is pt^k0" true
         (got = Array.init 16 (fun i -> pt.(i) lxor key.(i)))
     | [] -> Alcotest.fail "empty trace")
  done

let test_aes_core_scan_attack () =
  let rng = Rng.create 51 in
  let key = Crypto.Aes.random_key rng in
  Alcotest.(check bool) "plain scan leaks the full key" true
    (Dft.Scan_attack.full_core_attack_succeeds ~key ());
  let tkey = Array.init 128 (fun _ -> Rng.bool rng) in
  Alcotest.(check bool) "secure scan defeats it" false
    (Dft.Scan_attack.full_core_attack_succeeds ~protection:(Dft.Scan.Secure tkey) ~key ())

(* --- DOM masking ---------------------------------------------------------- *)

let test_dom_and_correct () =
  let rng = Rng.create 60 in
  let src = Sidechannel.Leakage.private_and_source () in
  List.iter
    (fun shares ->
      let dom = Synth.Masking.pipelined ~shares src in
      List.iter
        (fun (a, b) ->
          match Sidechannel.Isw.eval rng dom ~values:[ ("a", a); ("b", b) ] with
          | [ (_, y) ] -> Alcotest.(check bool) "and" (a && b) y
          | _ -> Alcotest.fail "unexpected outputs")
        [ (false, false); (false, true); (true, false); (true, true) ])
    [ 2; 3 ]

let test_dom_multi_level_pipeline () =
  let rng = Rng.create 61 in
  let c17 = Gen.c17 () in
  List.iter
    (fun shares ->
      let dom = Synth.Masking.pipelined ~shares c17 in
      Alcotest.(check int) "three AND levels -> latency 3" 3 dom.Synth.Masking.latency;
      for m = 0 to 31 do
        let inputs = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
        let expected = Netlist.Sim.eval c17 inputs in
        let values =
          List.mapi (fun k id -> Circuit.name c17 id, inputs.(k))
            (Array.to_list (Circuit.inputs c17))
        in
        let got = Sidechannel.Isw.eval rng dom ~values in
        List.iteri
          (fun k (_, v) ->
            Alcotest.(check bool)
              (Printf.sprintf "%d shares, m=%d out %d" shares m k) expected.(k) v)
          got
      done)
    [ 2; 3 ]

let test_dom_registers_cross_terms () =
  (* The register stage is DOM's defining feature: the pipelined AND
     must contain flip-flops, the combinational gadgets none. *)
  let src = Sidechannel.Leakage.private_and_source () in
  let dom = Synth.Masking.pipelined ~shares:2 src in
  Alcotest.(check bool) "DOM has registers" true
    (Circuit.num_dffs dom.Synth.Masking.circuit > 0);
  List.iter
    (fun style ->
      let m = Synth.Masking.transform ~shares:2 ~style src in
      let name = Synth.Masking.string_of_style style in
      Alcotest.(check int) (name ^ " is combinational") 0
        (Circuit.num_dffs m.Synth.Masking.circuit);
      Alcotest.(check int) (name ^ " has latency 0") 0 m.Synth.Masking.latency;
      (* Same randomness budget at equal share count. *)
      Alcotest.(check int) (name ^ " same randomness")
        (Array.length m.Synth.Masking.random_inputs)
        (Array.length dom.Synth.Masking.random_inputs))
    [ Synth.Masking.Isw; Synth.Masking.Dom ]

let test_dom_shares_pipeline_registers () =
  (* An operand read by several later gates passes through one register
     chain, not one per reader: no two flip-flops register the same net.
     The pipelined alu4 still computes alu4 after [latency] clocks. *)
  let rng = Rng.create 63 in
  let alu = Gen.alu 4 in
  List.iter
    (fun shares ->
      let dom = Synth.Masking.pipelined ~shares alu in
      let c = dom.Synth.Masking.circuit in
      let d_nets = Array.map (fun q -> (Circuit.fanins c q).(0)) (Circuit.dffs c) in
      let distinct = List.length (List.sort_uniq compare (Array.to_list d_nets)) in
      Alcotest.(check int) (Printf.sprintf "%d shares: one register per D net" shares)
        (Array.length d_nets) distinct;
      for _ = 1 to 32 do
        let inputs = Array.init (Circuit.num_inputs alu) (fun _ -> Rng.bool rng) in
        let values =
          List.mapi (fun k id -> (Circuit.name alu id, inputs.(k))) (Array.to_list (Circuit.inputs alu))
        in
        Alcotest.(check (list bool)) (Printf.sprintf "%d shares: decodes alu4" shares)
          (Array.to_list (Netlist.Sim.eval alu inputs))
          (List.map snd (Sidechannel.Isw.eval rng dom ~values))
      done)
    [ 2; 3 ]

let test_dom_first_order_passes () =
  let rng = Rng.create 62 in
  let dom = Synth.Masking.pipelined ~shares:2 (Sidechannel.Leakage.private_and_source ()) in
  let c = dom.Synth.Masking.circuit in
  let sample = Power.Model.hamming_weight_sampler c in
  let scratch = Array.make (Netlist.Circuit.node_count c) 0 in
  let collect stream cls =
    let a, b =
      match cls with
      | `Fixed -> true, true
      | `Random -> Rng.bool stream, Rng.bool stream
    in
    let vec = Sidechannel.Isw.input_vector stream dom ~values:[ ("a", a); ("b", b) ] in
    (* Leakage: HW of the settled combinational state in cycle 0. *)
    let e = sample ~scratch ~lanes:1 ~inputs:(Array.map Bool.to_int vec) in
    [| e.(0) +. Rng.gaussian_scaled stream ~mean:0.0 ~sigma:0.1 |]
  in
  let r = Sidechannel.Tvla.campaign_seeded rng ~traces_per_class:4000 ~collect in
  Alcotest.(check bool) "first-order pass" false (Sidechannel.Tvla.leaks r)

let () =
  Alcotest.run "extensions2"
    [ ("glitch_attack",
       [ Alcotest.test_case "full period golden" `Quick test_capture_full_period_is_golden;
         Alcotest.test_case "glitch faults" `Quick test_glitch_induces_fault;
         Alcotest.test_case "attack sweep" `Quick test_attack_sweep_finds_margin;
         Alcotest.test_case "sensor never silent" `Quick test_sensor_never_silent;
         Alcotest.test_case "sensor transparent" `Quick test_sensor_data_unchanged ]);
      ("constrained_synthesis",
       [ Alcotest.test_case "correct + camouflageable" `Quick test_constrained_synthesis_correct;
         Alcotest.test_case "constants" `Quick test_constrained_synthesis_constants;
         Alcotest.test_case "constraint cost" `Quick test_constraint_has_cost;
         Alcotest.test_case "fully lockable" `Quick test_constrained_result_fully_lockable ]);
      ("sensitization",
       [ Alcotest.test_case "isolated keys" `Quick test_sensitization_isolated_keys_recovered;
         Alcotest.test_case "interference degrades" `Quick test_sensitization_interference_degrades;
         Alcotest.test_case "fixed point" `Quick test_sensitization_stops_at_fixed_point;
         Alcotest.test_case "single key exact" `Quick test_sensitization_never_wrong_on_resolved_single_key ]);
      ("unroll",
       [ Alcotest.test_case "frame counts" `Quick test_expand_frame_count;
         Alcotest.test_case "scan leak via 2-safety" `Quick test_two_safety_scan_chain_leaks_registered_secret ]);
      ("techmap",
       [ Alcotest.test_case "nand+inv" `Quick test_techmap_nand_inv;
         Alcotest.test_case "camo target" `Quick test_techmap_camo_target;
         Alcotest.test_case "sequential" `Quick test_techmap_sequential;
         Alcotest.test_case "overhead" `Quick test_techmap_overhead_reasonable;
         Alcotest.test_case "present round" `Quick test_present_round_netlist ]);
      ("rebuild",
       [ Alcotest.test_case "pinned fingerprints" `Quick test_rebuild_fingerprints ]);
      ("redundancy",
       [ Alcotest.test_case "absorption removed" `Quick test_redundancy_removal;
         Alcotest.test_case "irredundant untouched" `Quick test_redundancy_removal_keeps_irredundant;
         Alcotest.test_case "coverage restored" `Quick test_redundancy_removal_restores_coverage;
         Alcotest.test_case "rejects sequential" `Quick test_redundancy_rejects_sequential ]);
      ("two-copy sat",
       [ Alcotest.test_case "equivalence rejects sequential" `Quick
           test_equivalence_rejects_sequential;
         Alcotest.test_case "sat attack rejects sequential" `Quick
           test_sat_attack_rejects_sequential ]);
      ("formal_audit",
       [ Alcotest.test_case "duplication" `Slow test_formal_audit_duplication;
         Alcotest.test_case "parity vs duplication" `Slow test_formal_audit_parity_finds_more_escapes;
         Alcotest.test_case "alarm must rise" `Quick test_formal_alarm_must_rise ]);
      ("aes_core",
       [ Alcotest.test_case "matches software" `Quick test_aes_core_matches_software;
         Alcotest.test_case "full-key scan attack" `Quick test_aes_core_scan_attack ]);
      ("dom",
       [ Alcotest.test_case "and correct" `Quick test_dom_and_correct;
         Alcotest.test_case "pipeline levels" `Quick test_dom_multi_level_pipeline;
         Alcotest.test_case "register stage" `Quick test_dom_registers_cross_terms;
         Alcotest.test_case "shared pipeline registers" `Quick test_dom_shares_pipeline_registers;
         Alcotest.test_case "first order" `Slow test_dom_first_order_passes ]) ]
