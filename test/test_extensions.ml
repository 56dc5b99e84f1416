(* Tests for the extension modules: WDDL hiding, second-order TVLA,
   BMC/two-safety, watermarking, metering, probing shield, IR-drop,
   parallel-prefix adder, multiplier, MixColumns, Pareto explorer. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Rng = Eda_util.Rng

let bits ~width x = Array.init width (fun i -> (x lsr i) land 1 = 1)

let to_int outs lo hi =
  let v = ref 0 in
  for i = hi downto lo do
    v := (!v lsl 1) lor (if outs.(i) then 1 else 0)
  done;
  !v

(* --- WDDL ------------------------------------------------------------- *)

let test_wddl_correct () =
  let dual = Sidechannel.Wddl.transform (Gen.c17 ()) in
  let src = Gen.c17 () in
  for m = 0 to 31 do
    let values =
      List.mapi
        (fun k id -> Circuit.name src id, (m lsr k) land 1 = 1)
        (Array.to_list (Circuit.inputs src))
    in
    let expected = Netlist.Sim.eval src (bits ~width:5 m) in
    let got = Sidechannel.Wddl.eval dual ~values in
    List.iteri
      (fun k (_, v) -> Alcotest.(check bool) (Printf.sprintf "m=%d out%d" m k) expected.(k) v)
      got
  done

let test_wddl_constant_transitions () =
  let dual = Sidechannel.Wddl.transform (Sidechannel.Leakage.private_and_source ()) in
  let counts =
    List.map
      (fun (a, b) -> Sidechannel.Wddl.rising_transitions dual ~values:[ ("a", a); ("b", b) ])
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  (match counts with
   | c0 :: rest ->
     List.iter (fun c -> Alcotest.(check int) "data-independent switching" c0 c) rest
   | [] -> Alcotest.fail "no counts")

let test_wddl_tvla_passes () =
  let rng = Rng.create 1 in
  let dual = Sidechannel.Wddl.transform (Sidechannel.Leakage.private_and_source ()) in
  let r = Sidechannel.Wddl.tvla_campaign rng dual ~traces_per_class:3000 ~noise_sigma:0.3 in
  Alcotest.(check bool) "hiding passes TVLA" false (Sidechannel.Tvla.leaks r)

let test_wddl_area_cost () =
  let src = Gen.c17 () in
  let dual = Sidechannel.Wddl.transform src in
  let base = (Circuit.stats src).Circuit.area in
  let cost = (Circuit.stats dual.Sidechannel.Wddl.circuit).Circuit.area in
  Alcotest.(check bool) "~2x or more area" true (cost > 1.8 *. base)

(* --- second-order TVLA ------------------------------------------------ *)

let test_second_order_masking_story () =
  let rng = Rng.create 2 in
  let assess shares =
    let masked =
      Synth.Masking.transform ~shares (Sidechannel.Leakage.private_and_source ())
    in
    let batch = Sidechannel.Leakage.hw_collect masked ~noise_sigma:0.1 in
    Sidechannel.Tvla.campaign_orders rng ~traces_per_class:6000 ~batch
  in
  let o1_2, o2_2 = assess 2 in
  let o1_3, o2_3 = assess 3 in
  Alcotest.(check bool) "2 shares pass 1st order" false (Sidechannel.Tvla.leaks o1_2);
  Alcotest.(check bool) "2 shares FAIL 2nd order" true (Sidechannel.Tvla.leaks o2_2);
  Alcotest.(check bool) "3 shares pass 1st order" false (Sidechannel.Tvla.leaks o1_3);
  Alcotest.(check bool) "3 shares pass 2nd order" false (Sidechannel.Tvla.leaks o2_3)

let test_second_order_detects_variance_shift () =
  let rng = Rng.create 3 in
  let collect stream = function
    | `Fixed -> [| Rng.gaussian_scaled stream ~mean:0.0 ~sigma:2.0 |]
    | `Random -> [| Rng.gaussian stream |]
  in
  let o1, o2 =
    Sidechannel.Tvla.campaign_orders rng ~traces_per_class:2000
      ~batch:(Sidechannel.Tvla.per_trace collect)
  in
  Alcotest.(check bool) "1st order blind to variance" false (Sidechannel.Tvla.leaks o1);
  Alcotest.(check bool) "2nd order sees variance" true (Sidechannel.Tvla.leaks o2)

(* --- unrolling & two-safety ------------------------------------------- *)

let counter_circuit () =
  (* 2-bit counter with an enable input. *)
  let c = Circuit.create () in
  let en = Circuit.add_input ~name:"en" c in
  let q0 = Circuit.add_dff ~name:"q0" c ~d:0 in
  let q1 = Circuit.add_dff ~name:"q1" c ~d:0 in
  let t0 = Circuit.add_gate c Gate.Xor [ q0; en ] in
  let carry = Circuit.add_gate c Gate.And [ q0; en ] in
  let t1 = Circuit.add_gate c Gate.Xor [ q1; carry ] in
  Circuit.connect_dff c q0 ~d:t0;
  Circuit.connect_dff c q1 ~d:t1;
  Circuit.set_output c "q0" q0;
  Circuit.set_output c "q1" q1;
  c

let test_unroll_matches_sequential_sim () =
  let c = counter_circuit () in
  let frames = 4 in
  let exp = Sat.Unroll.expand c ~frames in
  (* Drive en = 1 every frame from the all-zero state; frame f outputs must
     match the sequential simulation. *)
  (* Build the expansion input vector positionally: zero initial state,
     en = 1 in every frame. *)
  let inputs = Array.make (Circuit.num_inputs exp.Sat.Unroll.circuit) false in
  let pos_of =
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun pos id -> Hashtbl.replace tbl id pos)
      (Circuit.inputs exp.Sat.Unroll.circuit);
    fun id -> Hashtbl.find tbl id
  in
  Array.iter (fun id -> inputs.(pos_of id) <- false) exp.Sat.Unroll.initial_state_inputs;
  Array.iter
    (fun frame_ids -> Array.iter (fun id -> inputs.(pos_of id) <- true) frame_ids)
    exp.Sat.Unroll.frame_inputs;
  let outs = Netlist.Sim.eval exp.Sat.Unroll.circuit inputs in
  let seq_trace = Reference.Sim_ref.run c (List.init frames (fun _ -> [| true |])) in
  List.iteri
    (fun f frame_outs ->
      Array.iteri
        (fun k expected ->
          Alcotest.(check bool) (Printf.sprintf "frame %d out %d" f k) expected
            outs.(exp.Sat.Unroll.frame_outputs.(f).(k)))
        frame_outs)
    (List.map (fun o -> o) seq_trace)

let test_two_safety_finds_leak () =
  let c = Circuit.create () in
  let x = Circuit.add_input ~name:"x" c in
  let secret = Circuit.add_dff ~name:"secret" c ~d:0 in
  Circuit.connect_dff c secret ~d:secret;
  Circuit.set_output c "y" (Circuit.add_gate c Gate.And [ x; secret ]);
  (match Sat.Unroll.two_safety_leak c ~frames:2 ~secret_state:[ 0 ] with
   | Some _ -> ()
   | None -> Alcotest.fail "secret visibly gates the output: must leak")

let test_two_safety_proves_isolation () =
  let c = Circuit.create () in
  let x = Circuit.add_input ~name:"x" c in
  let secret = Circuit.add_dff ~name:"secret" c ~d:0 in
  Circuit.connect_dff c secret ~d:secret;
  Circuit.set_output c "y" (Circuit.add_gate c Gate.Not [ x ]);
  Alcotest.(check bool) "isolated secret proven" true
    (Sat.Unroll.two_safety_leak c ~frames:4 ~secret_state:[ 0 ] = None)

let test_two_safety_masked_secret_safe () =
  (* Output = secret XOR fresh-noise-state is still distinguishable over
     two frames if the noise repeats; but secret XOR per-frame free input
     is not a leak the check should blame on the secret... we test the
     simplest sound case: secret fully unobservable within bound. *)
  let c = counter_circuit () in
  (* Treat q1 as "secret": it IS observable (it is an output): leak. *)
  (match Sat.Unroll.two_safety_leak c ~frames:1 ~secret_state:[ 1 ] with
   | Some _ -> ()
   | None -> Alcotest.fail "output state bit must be flagged")

let test_bounded_equivalence () =
  let a = counter_circuit () in
  let b = counter_circuit () in
  Alcotest.(check bool) "self" true (Sat.Unroll.bounded_equivalence a b ~frames:3);
  (* A counter with inverted enable differs. *)
  let c = Circuit.create () in
  let en = Circuit.add_input ~name:"en" c in
  let nen = Circuit.add_gate c Gate.Not [ en ] in
  let q0 = Circuit.add_dff ~name:"q0" c ~d:0 in
  let q1 = Circuit.add_dff ~name:"q1" c ~d:0 in
  let t0 = Circuit.add_gate c Gate.Xor [ q0; nen ] in
  let carry = Circuit.add_gate c Gate.And [ q0; nen ] in
  let t1 = Circuit.add_gate c Gate.Xor [ q1; carry ] in
  Circuit.connect_dff c q0 ~d:t0;
  Circuit.connect_dff c q1 ~d:t1;
  Circuit.set_output c "q0" q0;
  Circuit.set_output c "q1" q1;
  Alcotest.(check bool) "different" false (Sat.Unroll.bounded_equivalence a c ~frames:3)

(* --- watermarking ------------------------------------------------------ *)

let test_structural_watermark () =
  let rng = Rng.create 4 in
  let src = Gen.alu 4 in
  let mark = Locking.Watermark.embed_structural rng ~bits:12 src in
  Alcotest.(check bool) "function preserved" true
    (Netlist.Sim.equivalent_random rng ~patterns:300 src mark.Locking.Watermark.s_circuit);
  Alcotest.(check bool) "signature readable" true (Locking.Watermark.structural_intact mark);
  (* Resynthesis removes the buffer/inverter gadgets: mark destroyed. *)
  let attacked =
    { mark with
      Locking.Watermark.s_circuit =
        Synth.Pass.apply "constant_propagation" mark.Locking.Watermark.s_circuit }
  in
  Alcotest.(check bool) "erased by resynthesis" false
    (Locking.Watermark.structural_intact attacked)

let test_functional_watermark () =
  let rng = Rng.create 5 in
  let src = Gen.alu 4 in
  let mark = Locking.Watermark.embed_functional rng ~bits:16 src in
  Alcotest.(check int) "full readout" 16
    (Locking.Watermark.verify_functional mark mark.Locking.Watermark.f_circuit);
  (* Survives the full synthesis pipeline. *)
  let resynthesized = Synth.Pipeline.run_recipe "optimize" mark.Locking.Watermark.f_circuit in
  Alcotest.(check int) "survives resynthesis" 16
    (Locking.Watermark.verify_functional mark resynthesized);
  (* An innocent design matches about half the bits. *)
  let innocent_hits = Locking.Watermark.verify_functional mark src in
  Alcotest.(check bool) "innocent does not match" true (innocent_hits < 14);
  Alcotest.(check (float 1e-12)) "claim strength" (1.0 /. 65536.0)
    (Locking.Watermark.false_claim_probability ~bits:16)

(* --- metering ----------------------------------------------------------- *)

let test_metering_activation () =
  let rng = Rng.create 6 in
  let source = Gen.alu 4 in
  let metered = Locking.Metering.meter rng ~state_bits:8 source in
  for _ = 1 to 5 do
    Alcotest.(check bool) "owner can activate any chip" true
      (Locking.Metering.activation_works rng metered ~original:source)
  done

let test_metering_locked_without_sequence () =
  let rng = Rng.create 7 in
  let source = Gen.alu 4 in
  let metered = Locking.Metering.meter rng ~state_bits:8 source in
  let id = Array.init 8 (fun _ -> Rng.bool rng) in
  (* Without any unlock steps, the chip stays locked and outputs are gated. *)
  let state = Locking.Metering.drive_unlock metered ~power_up_id:id [] in
  if not (Locking.Metering.is_unlocked metered state) then begin
    let data = Array.make 10 true in
    let outs = Locking.Metering.eval metered ~state ~data in
    Alcotest.(check bool) "outputs gated low" true (Array.for_all (fun b -> not b) outs)
  end

let test_metering_random_guessing_weak () =
  let rng = Rng.create 8 in
  let source = Gen.c17 () in
  let metered = Locking.Metering.meter rng ~state_bits:12 source in
  let id = Array.init 12 (fun _ -> Rng.bool rng) in
  let unlocked = ref 0 in
  for _ = 1 to 100 do
    let seq = List.init 24 (fun _ -> Rng.bool rng) in
    let st = Locking.Metering.drive_unlock metered ~power_up_id:id seq in
    if Locking.Metering.is_unlocked metered st then incr unlocked
  done;
  Alcotest.(check bool) "random sequences rarely unlock" true (!unlocked <= 3)

(* --- shield & IR-drop --------------------------------------------------- *)

let test_shield_coverage () =
  let sh = Physical.Shield.build ~cols:30 ~rows:30 ~pitch:3 ~offset:1 in
  Alcotest.(check (float 1e-9)) "full coverage at r=1" 1.0 (Physical.Shield.coverage sh ~r:1);
  let loose = Physical.Shield.build ~cols:30 ~rows:30 ~pitch:10 ~offset:0 in
  Alcotest.(check bool) "sparse mesh leaves gaps" true (Physical.Shield.coverage loose ~r:1 < 0.5);
  Alcotest.(check bool) "denser mesh costs more tracks" true
    (Physical.Shield.track_overhead sh > Physical.Shield.track_overhead loose)

let test_shield_attack_detection () =
  let rng = Rng.create 9 in
  let c = Gen.alu 4 in
  let p = (Physical.Placement.place rng ~moves:2000 c).Physical.Placement.placement in
  let dense = Physical.Shield.build ~cols:p.Physical.Placement.cols ~rows:p.Physical.Placement.rows ~pitch:2 ~offset:0 in
  Alcotest.(check (float 1e-9)) "dense shield catches all probes" 1.0
    (Physical.Shield.attack_detection_rate dense ~r:1 p ~targets:[ 3; 7; 11; 19 ])

let test_ir_drop_bound_and_soundness () =
  let rng = Rng.create 10 in
  let c = Gen.alu 4 in
  let p = (Physical.Placement.place rng ~moves:2000 c).Physical.Placement.placement in
  let `Bound bound, `Worst_simulated sim, `Meets_budget _, `Activity_model_sound sound =
    Physical.Ir_drop.verify rng ~vectors:10 p ~budget:10.0
  in
  Alcotest.(check bool) "bound positive" true (bound > 0.0);
  Alcotest.(check bool) "simulation positive" true (sim > 0.0);
  Alcotest.(check bool) "activity=3 model sound here" true sound;
  (* An activity cap of 0.5 must be caught as optimistic. *)
  let `Bound _, `Worst_simulated _, `Meets_budget _, `Activity_model_sound naive_sound =
    Physical.Ir_drop.verify rng ~vectors:10 ~activity:0.2 p ~budget:10.0
  in
  Alcotest.(check bool) "tiny activity cap flagged unsound" false naive_sound

let test_ir_drop_center_worse_than_corner () =
  let rng = Rng.create 11 in
  let c = Gen.alu 4 in
  let p = (Physical.Placement.place rng ~moves:2000 c).Physical.Placement.placement in
  let g = Physical.Ir_drop.vectorless_bound p in
  (* Pads are at the corners: corner drop is 0 by construction. *)
  Alcotest.(check (float 1e-9)) "pad node drop is zero" 0.0 g.Physical.Ir_drop.drop.(0);
  Alcotest.(check bool) "worst is interior" true (g.Physical.Ir_drop.worst > 0.0)

(* --- new generators ----------------------------------------------------- *)

let test_kogge_stone () =
  let ks = Gen.kogge_stone_adder 6 in
  for a = 0 to 63 do
    for b = 0 to 63 do
      let inputs = Array.append (bits ~width:6 a) (bits ~width:6 b) in
      let outs = Netlist.Sim.eval ks inputs in
      Alcotest.(check int) (Printf.sprintf "%d+%d" a b) (a + b) (to_int outs 0 6)
    done
  done;
  Alcotest.(check bool) "log depth" true
    (Timing.Sta.depth ks < Timing.Sta.depth (Gen.ripple_adder 6))

let test_array_multiplier () =
  let m = Gen.array_multiplier 4 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let inputs = Array.append (bits ~width:4 a) (bits ~width:4 b) in
      let outs = Netlist.Sim.eval m inputs in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) (to_int outs 0 7)
    done
  done

let test_mixcolumn_matches_software () =
  let mc = Crypto.Sbox_circuit.aes_mixcolumn () in
  let rng = Rng.create 12 in
  for _ = 1 to 100 do
    let col = Array.init 4 (fun _ -> Rng.int rng 256) in
    let state = Array.init 16 (fun k -> if k < 4 then col.(k) else 0) in
    let expected = Crypto.Aes.mix_columns state in
    let inputs =
      Array.concat (Array.to_list (Array.map Crypto.Sbox_circuit.byte_to_bits col))
    in
    let outs = Netlist.Sim.eval mc inputs in
    for r = 0 to 3 do
      Alcotest.(check int) (Printf.sprintf "row %d" r) expected.(r)
        (to_int outs (8 * r) ((8 * r) + 7))
    done
  done

(* --- explorer ----------------------------------------------------------- *)

let test_explore_pareto () =
  let rng = Rng.create 13 in
  let all, front = Secure_eda.Explore.run rng ~traces_per_class:1200 ~noise_sigma:0.3 ~injections:80 in
  Alcotest.(check int) "four points" 4 (List.length all);
  Alcotest.(check bool) "front nonempty" true (front <> []);
  (* masked+parity is dominated: it fails SCA like parity-alone but costs
     more, so it cannot be on the front. *)
  Alcotest.(check bool) "dominated composition excluded" true
    (not
       (List.exists
          (fun e -> e.Secure_eda.Explore.point = Secure_eda.Composition.Masked_and_parity)
          front));
  (* masked is on the front (only point covering SCA). *)
  Alcotest.(check bool) "masked on front" true
    (List.exists (fun e -> e.Secure_eda.Explore.point = Secure_eda.Composition.Masked) front)

let () =
  Alcotest.run "extensions"
    [ ("wddl",
       [ Alcotest.test_case "correct" `Quick test_wddl_correct;
         Alcotest.test_case "constant transitions" `Quick test_wddl_constant_transitions;
         Alcotest.test_case "tvla passes" `Quick test_wddl_tvla_passes;
         Alcotest.test_case "area cost" `Quick test_wddl_area_cost ]);
      ("second_order",
       [ Alcotest.test_case "masking order story" `Slow test_second_order_masking_story;
         Alcotest.test_case "variance shift" `Quick test_second_order_detects_variance_shift ]);
      ("bmc",
       [ Alcotest.test_case "unroll matches sim" `Quick test_unroll_matches_sequential_sim;
         Alcotest.test_case "two-safety finds leak" `Quick test_two_safety_finds_leak;
         Alcotest.test_case "two-safety proves isolation" `Quick test_two_safety_proves_isolation;
         Alcotest.test_case "output state flagged" `Quick test_two_safety_masked_secret_safe;
         Alcotest.test_case "bounded equivalence" `Quick test_bounded_equivalence ]);
      ("watermark",
       [ Alcotest.test_case "structural fragile" `Quick test_structural_watermark;
         Alcotest.test_case "functional robust" `Quick test_functional_watermark ]);
      ("metering",
       [ Alcotest.test_case "activation" `Quick test_metering_activation;
         Alcotest.test_case "locked without sequence" `Quick test_metering_locked_without_sequence;
         Alcotest.test_case "guessing weak" `Quick test_metering_random_guessing_weak ]);
      ("physical_security",
       [ Alcotest.test_case "shield coverage" `Quick test_shield_coverage;
         Alcotest.test_case "shield detection" `Quick test_shield_attack_detection;
         Alcotest.test_case "ir-drop soundness" `Quick test_ir_drop_bound_and_soundness;
         Alcotest.test_case "ir-drop geometry" `Quick test_ir_drop_center_worse_than_corner ]);
      ("generators",
       [ Alcotest.test_case "kogge-stone" `Quick test_kogge_stone;
         Alcotest.test_case "multiplier" `Quick test_array_multiplier;
         Alcotest.test_case "mixcolumn" `Quick test_mixcolumn_matches_software ]);
      ("explore", [ Alcotest.test_case "pareto" `Slow test_explore_pareto ]) ]
