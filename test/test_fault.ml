(* Tests for fault models, injection campaigns, countermeasures, DFA and
   the natural-vs-malicious discriminator. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Model = Fault.Model
module Cm = Fault.Countermeasure
module Fault_sim_ref = Reference.Fault_sim_ref
module Rng = Eda_util.Rng

let test_stuck_at_changes_output () =
  let c = Gen.c17 () in
  (* Force output node G22 stuck at 1; with all inputs 0, G22 would be 0. *)
  match Circuit.find_by_name c "G22" with
  | None -> Alcotest.fail "missing G22"
  | Some g22 ->
    let fault = Model.Stuck_at { node = g22; value = true } in
    let inputs = Array.make 5 false in
    Alcotest.(check bool) "clean is 0" false (Netlist.Sim.eval c inputs).(0);
    Alcotest.(check bool) "faulty is 1" true (Fault_sim_ref.eval_faulty c ~faults:[ fault ] inputs).(0);
    Alcotest.(check bool) "detected" true (Model.detects c ~fault inputs)

let test_bit_flip_inverts () =
  let c = Gen.parity_tree 4 in
  let out = (Circuit.output_ids c).(0) in
  let fault = Model.Bit_flip { node = out } in
  for m = 0 to 15 do
    let inputs = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
    let clean = (Netlist.Sim.eval c inputs).(0) in
    let faulty = (Fault_sim_ref.eval_faulty c ~faults:[ fault ] inputs).(0) in
    Alcotest.(check bool) (Printf.sprintf "m=%d inverted" m) (not clean) faulty
  done

let test_fault_propagates_through_cone () =
  (* A stuck input of an AND gate matters only when the other input is 1. *)
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let y = Circuit.add_gate c Gate.And [ a; b ] in
  Circuit.set_output c "y" y;
  let fault = Model.Stuck_at { node = a; value = true } in
  Alcotest.(check bool) "masked by b=0" false (Model.detects c ~fault [| false; false |]);
  Alcotest.(check bool) "visible with b=1" true (Model.detects c ~fault [| false; true |])

let test_fault_list_size () =
  let c = Gen.c17 () in
  (* 5 inputs + 6 gates = 11 sites, 2 polarities. *)
  Alcotest.(check int) "fault list" 22 (List.length (Model.all_stuck_at_faults c))

let test_coverage_exhaustive_patterns () =
  let c = Gen.c17 () in
  let faults = Model.all_stuck_at_faults c in
  let patterns = List.init 32 (fun m -> Array.init 5 (fun i -> (m lsr i) land 1 = 1)) in
  (* c17 has no redundant logic: exhaustive patterns detect every fault. *)
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 (Model.coverage c ~faults ~patterns)

let test_duplication_detects_single_gate_faults () =
  let rng = Rng.create 1 in
  let prot = Cm.duplicate_protect (Gen.ripple_adder 2) in
  (* Faults on gates (not inputs) must never corrupt silently. *)
  let gate_faults =
    List.filter
      (fun f ->
        match Circuit.kind prot.Cm.circuit (Model.node_of f) with
        | Gate.Input -> false
        | _ -> true)
      (Model.all_stuck_at_faults prot.Cm.circuit)
  in
  let _, escaped, _ = Cm.validate rng prot ~faults:gate_faults ~patterns:32 in
  Alcotest.(check int) "no escapes on internal faults" 0 escaped

let test_duplication_input_blind_spot () =
  (* Common-mode input faults hit both copies: they escape by design. *)
  let rng = Rng.create 2 in
  let prot = Cm.duplicate_protect (Gen.ripple_adder 2) in
  let input_faults =
    List.filter
      (fun f -> Circuit.kind prot.Cm.circuit (Model.node_of f) = Gate.Input)
      (Model.all_stuck_at_faults prot.Cm.circuit)
  in
  let _, escaped, _ = Cm.validate rng prot ~faults:input_faults ~patterns:32 in
  Alcotest.(check bool) "input faults escape" true (escaped > 0)

let test_parity_misses_even_flips () =
  (* Two simultaneous output flips preserve parity: the validation
     campaign must find such escapes (the paper's red-team point). *)
  let rng = Rng.create 3 in
  let prot = Cm.parity_protect (Gen.ripple_adder 2) in
  let c = prot.Cm.circuit in
  (* Double fault on two data outputs. *)
  let o0 = (Circuit.output_ids c).(0) and o1 = (Circuit.output_ids c).(1) in
  let faults = [ Model.Bit_flip { node = o0 }; Model.Bit_flip { node = o1 } ] in
  let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
  let golden = Netlist.Sim.eval c inputs in
  let faulty = Fault_sim_ref.eval_faulty c ~faults inputs in
  let alarm_idx = Circuit.output_position c "alarm" in
  Alcotest.(check bool) "data corrupted" true (faulty.(0) <> golden.(0));
  Alcotest.(check bool) "alarm silent (even parity)" golden.(alarm_idx) faulty.(alarm_idx)

let test_parity_catches_single_flips () =
  let rng = Rng.create 4 in
  let prot = Cm.parity_protect (Gen.ripple_adder 2) in
  let c = prot.Cm.circuit in
  let o0 = (Circuit.output_ids c).(0) in
  let fault = Model.Bit_flip { node = o0 } in
  let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
  Alcotest.(check bool) "classified detected" true
    (Cm.classify prot ~fault inputs = Cm.Detected)

let test_infective_scrambles () =
  let rng = Rng.create 5 in
  let prot = Cm.infective_protect (Gen.parity_tree 3) in
  let c = prot.Cm.circuit in
  (* Find a fault that trips the alarm, then check the infected output
     differs from the merely-faulty value. *)
  let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
  ignore inputs;
  Alcotest.(check bool) "alarm output exists" true
    (Circuit.find_by_name c "alarm" <> None);
  Alcotest.(check bool) "infected outputs registered" true
    (List.for_all
       (fun nm -> Array.exists (fun (onm, _) -> onm = nm) (Circuit.outputs c))
       prot.Cm.data_outputs)

let test_dfa_recovers_last_round_key () =
  let rng = Rng.create 6 in
  let key = Crypto.Aes.random_key rng in
  let ks = Crypto.Aes.expand_key key in
  let bytes, _ = Fault.Dfa.recover_last_round_key rng ks ~max_pairs_per_byte:40 in
  Array.iteri
    (fun pos b -> Alcotest.(check (option int)) (Printf.sprintf "byte %d" pos) (Some ks.(10).(pos)) b)
    bytes

let test_dfa_candidates_contain_truth () =
  let rng = Rng.create 7 in
  let key = Crypto.Aes.random_key rng in
  let ks = Crypto.Aes.expand_key key in
  for ct_pos = 0 to 3 do
    let byte = Fault.Dfa.preimage_of_ct_pos ct_pos in
    let pt = Array.init 16 (fun _ -> Rng.int rng 256) in
    let correct, faulty = Fault.Dfa.faulty_encrypt rng ks pt ~byte in
    let cands = Fault.Dfa.candidates ~ct_pos ~correct ~faulty in
    Alcotest.(check bool) "true key among candidates" true (List.mem ks.(10).(ct_pos) cands)
  done

let test_dfa_infective_defends () =
  let rng = Rng.create 8 in
  let key = Crypto.Aes.random_key rng in
  let ks = Crypto.Aes.expand_key key in
  let recovered, _ = Fault.Dfa.recover_with_infection rng ks ~ct_pos:0 ~max_pairs:40 in
  (* Either nothing survives or the surviving candidate is wrong. *)
  Alcotest.(check bool) "key not recovered" true (recovered <> Some ks.(10).(0))

let test_discrimination () =
  let rng = Rng.create 9 in
  let nat, att = Fault.Discriminate.accuracy rng Fault.Discriminate.default_config ~trials:150 in
  Alcotest.(check bool) "natural accuracy" true (nat > 0.9);
  Alcotest.(check bool) "attack accuracy" true (att > 0.9)

let test_discrimination_classifies_streams () =
  let rng = Rng.create 10 in
  let cfg = Fault.Discriminate.default_config in
  let att = Fault.Discriminate.attack_stream rng ~cycles:100_000 ~sites:64 ~events:10 ~burst:200 in
  Alcotest.(check bool) "attack flagged" true
    (Fault.Discriminate.classify cfg att = Fault.Discriminate.Malicious);
  Alcotest.(check bool) "empty stream natural" true
    (Fault.Discriminate.classify cfg [] = Fault.Discriminate.Natural)

let prop_faulty_eval_differs_only_downstream =
  QCheck.Test.make ~name:"fault cannot change values outside its cone" ~count:20
    QCheck.(pair (int_bound 300) (int_bound 63))
    (fun (seed, m) ->
      let c = Gen.random_dag ~seed ~inputs:6 ~gates:25 ~outputs:2 in
      let inputs = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
      let node = 6 + (seed mod 25) in
      let fault = Model.Stuck_at { node; value = true } in
      let clean = Netlist.Sim.eval_all c inputs in
      let faulty = Fault_sim_ref.eval_all_faulty c ~faults:[ fault ] inputs in
      (* Nodes before the fault site in topological order are untouched. *)
      let ok = ref true in
      for i = 0 to node - 1 do
        if clean.(i) <> faulty.(i) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "fault"
    [ ("model",
       [ Alcotest.test_case "stuck-at changes output" `Quick test_stuck_at_changes_output;
         Alcotest.test_case "bit flip inverts" `Quick test_bit_flip_inverts;
         Alcotest.test_case "propagation masking" `Quick test_fault_propagates_through_cone;
         Alcotest.test_case "fault list size" `Quick test_fault_list_size;
         Alcotest.test_case "exhaustive coverage" `Quick test_coverage_exhaustive_patterns ]);
      ("countermeasures",
       [ Alcotest.test_case "duplication detects internal" `Quick test_duplication_detects_single_gate_faults;
         Alcotest.test_case "duplication input blind spot" `Quick test_duplication_input_blind_spot;
         Alcotest.test_case "parity misses even flips" `Quick test_parity_misses_even_flips;
         Alcotest.test_case "parity catches single flips" `Quick test_parity_catches_single_flips;
         Alcotest.test_case "infective structure" `Quick test_infective_scrambles ]);
      ("dfa",
       [ Alcotest.test_case "recovers key" `Quick test_dfa_recovers_last_round_key;
         Alcotest.test_case "candidates contain truth" `Quick test_dfa_candidates_contain_truth;
         Alcotest.test_case "infective defends" `Quick test_dfa_infective_defends ]);
      ("discrimination",
       [ Alcotest.test_case "accuracy" `Quick test_discrimination;
         Alcotest.test_case "stream classification" `Quick test_discrimination_classifies_streams ]);
      ("properties",
       List.map Seeded.to_alcotest [ prop_faulty_eval_differs_only_downstream ]) ]
