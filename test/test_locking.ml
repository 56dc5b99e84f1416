(* Tests for logic locking, the SAT attack, SFLL-HD and structural attacks,
   plus camouflaging (which reduces to locking). *)

module Circuit = Netlist.Circuit
module Gen = Netlist.Generators
module Lock = Locking.Lock
module Sat_attack = Locking.Sat_attack
module Rng = Eda_util.Rng

let test_epic_correct_key_restores () =
  let rng = Rng.create 1 in
  List.iter
    (fun (name, source, bits) ->
      let locked = Lock.epic rng ~key_bits:bits source in
      Alcotest.(check bool) (name ^ " verified") true (Lock.verify_correct locked ~original:source = None))
    [ ("c17", Gen.c17 (), 4); ("adder", Gen.ripple_adder 4, 10); ("alu", Gen.alu 4, 16) ]

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_epic_rejects_impossible_key_count () =
  let rejects what f needle =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%s: %S names %S" what msg needle) true
        (contains msg needle)
  in
  rejects "alu4, 48 key bits"
    (fun () -> Lock.epic (Rng.create 1) ~key_bits:48 (Gen.alu 4))
    "36 lockable sites";
  rejects "comparator8, 32 key bits"
    (fun () -> Lock.epic (Rng.create 1) ~key_bits:32 (Gen.comparator 8))
    "15 lockable sites";
  let seq = Circuit.create () in
  let a = Circuit.add_input ~name:"a" seq in
  let q = Circuit.add_dff ~name:"q" seq ~d:a in
  Circuit.set_output seq "y" (Circuit.add_gate ~name:"y" seq Netlist.Gate.Not [ q ]);
  rejects "sequential circuit" (fun () -> Lock.epic (Rng.create 1) ~key_bits:1 seq) "1 DFFs"

(* A locked netlist must survive the .bench writer: it reads back to an
   equivalent circuit with the same port names. Locking an output driver
   moves its port onto the key gate while the driver keeps the port's
   name, so the writer has to rename the driver. *)
let check_round_trip what c =
  match Netlist.Io.of_string_result (Netlist.Io.to_string c) with
  | Error e -> Alcotest.failf "%s: %s" what (Eda_util.Eda_error.to_string e)
  | Ok back ->
    let inputs c = Array.map (Circuit.name c) (Circuit.inputs c) in
    let outputs c = Array.map fst (Circuit.outputs c) in
    Alcotest.(check (array string)) (what ^ ": inputs") (inputs c) (inputs back);
    Alcotest.(check (array string)) (what ^ ": outputs") (outputs c) (outputs back);
    Alcotest.(check bool) (what ^ ": equivalent") true
      (Sat.Cnf.check_equivalence c back = None)

let test_locked_netlist_round_trips () =
  (* Pinned: this lock puts a key gate on G22's driver. *)
  let c17 = (Lock.epic (Rng.create 1) ~key_bits:6 (Gen.c17 ())).Lock.circuit in
  Alcotest.(check bool) "c17: G22 is driven by its key gate" true
    (Circuit.name c17 (List.assoc "G22" (Array.to_list (Circuit.outputs c17))) <> "G22");
  check_round_trip "c17, 6 key bits, seed 1" c17;
  List.iter
    (fun (name, source) ->
      let key_bits = min 24 (Circuit.stats source).Circuit.gates in
      List.iter
        (fun seed ->
          let locked = Lock.epic (Rng.create seed) ~key_bits source in
          check_round_trip (Printf.sprintf "%s, %d key bits, seed %d" name key_bits seed)
            locked.Lock.circuit)
        [ 1; 2; 3 ])
    [ ("c17", Gen.c17 ());
      ("adder8", Gen.ripple_adder 8);
      ("alu4", Gen.alu 4);
      ("comparator8", Gen.comparator 8);
      ("parity16", Gen.parity_tree 16);
      ("kogge_stone8", Gen.kogge_stone_adder 8);
      ("multiplier4", Gen.array_multiplier 4);
      ("random", Gen.random_dag ~seed:1 ~inputs:8 ~gates:80 ~outputs:4);
      ("aes_sbox", Crypto.Sbox_circuit.aes_sbox ());
      ("present_round", Crypto.Sbox_circuit.present_round ());
      ("aes_mixcolumn", Crypto.Sbox_circuit.aes_mixcolumn ()) ]

let test_epic_wrong_key_corrupts () =
  let rng = Rng.create 2 in
  let source = Gen.alu 4 in
  let locked = Lock.epic rng ~key_bits:12 source in
  let wrong = Array.map not locked.Lock.correct_key in
  let corruption = Lock.corruption rng locked ~original:source ~wrong_key:wrong ~patterns:300 in
  Alcotest.(check bool) "wrong key corrupts" true (corruption > 0.1)

let test_epic_single_wrong_bit_corrupts () =
  let rng = Rng.create 3 in
  let source = Gen.ripple_adder 4 in
  let locked = Lock.epic rng ~key_bits:8 source in
  let wrong = Array.copy locked.Lock.correct_key in
  wrong.(3) <- not wrong.(3);
  let corruption = Lock.corruption rng locked ~original:source ~wrong_key:wrong ~patterns:300 in
  Alcotest.(check bool) "one wrong bit corrupts" true (corruption > 0.0)

let test_eval_and_apply_key_agree () =
  let rng = Rng.create 4 in
  let source = Gen.comparator 4 in
  let locked = Lock.epic rng ~key_bits:6 source in
  let unlocked = Lock.apply_key locked ~key:locked.Lock.correct_key in
  for _ = 1 to 50 do
    let data = Array.init 8 (fun _ -> Rng.bool rng) in
    Alcotest.(check bool) "agree" true
      (Lock.eval locked ~key:locked.Lock.correct_key ~data = Netlist.Sim.eval unlocked data)
  done

let test_sat_attack_recovers_epic () =
  let rng = Rng.create 5 in
  List.iter
    (fun (name, source, bits) ->
      let locked = Lock.epic rng ~key_bits:bits source in
      let result = Sat_attack.run ~oracle:(Sat_attack.oracle_of_circuit source) locked in
      Alcotest.(check bool) (name ^ " attack succeeds") true
        (Sat_attack.recovered_key_correct locked ~original:source result);
      Alcotest.(check bool) (name ^ " few DIPs") true
        (result.Sat_attack.iterations <= 40))
    [ ("c17", Gen.c17 (), 6); ("alu", Gen.alu 4, 16) ]

let test_sat_attack_key_not_bitwise_equal_but_equivalent () =
  (* Multiple keys can be functionally correct; the attack's guarantee is
     functional equivalence only — assert exactly that. *)
  let rng = Rng.create 6 in
  let source = Gen.parity_tree 12 in
  let locked = Lock.epic rng ~key_bits:8 source in
  let result = Sat_attack.run ~oracle:(Sat_attack.oracle_of_circuit source) locked in
  (match result.Sat_attack.key with
   | None -> Alcotest.fail "attack did not converge"
   | Some key ->
     let unlocked = Lock.apply_key locked ~key in
     Alcotest.(check bool) "equivalent" true (Sat.Cnf.check_equivalence source unlocked = None))

let test_sfll_verifies_and_resists () =
  let rng = Rng.create 7 in
  let source = Gen.comparator 4 in
  let sfll = Locking.Sfll.lock rng ~h:2 source in
  Alcotest.(check bool) "correct key restores" true
    (Lock.verify_correct sfll ~original:source = None);
  let epic = Lock.epic rng ~key_bits:7 source in
  let r_sfll = Sat_attack.run ~max_iterations:400 ~oracle:(Sat_attack.oracle_of_circuit source) sfll in
  let r_epic = Sat_attack.run ~max_iterations:400 ~oracle:(Sat_attack.oracle_of_circuit source) epic in
  Alcotest.(check bool) "sfll needs more DIPs than epic" true
    (r_sfll.Sat_attack.iterations > r_epic.Sat_attack.iterations)

let test_sfll_wrong_key_corrupts_sparsely () =
  let rng = Rng.create 8 in
  let source = Gen.comparator 4 in
  let sfll = Locking.Sfll.lock rng ~h:1 source in
  (* A wrong key corrupts only inputs at HD 1 from it: low corruption. *)
  let wrong = Array.map not sfll.Lock.correct_key in
  let corruption = Lock.corruption rng sfll ~original:source ~wrong_key:wrong ~patterns:400 in
  Alcotest.(check bool) "sparse corruption" true (corruption < 0.2)

let test_structural_attack_story () =
  let rng = Rng.create 9 in
  let source = Gen.alu 4 in
  let xor_only = Lock.epic rng ~style:Lock.Xor_only ~key_bits:16 source in
  let hidden = Lock.epic rng ~style:Lock.Polarity_hidden ~key_bits:16 source in
  let acc_naive_xor = Locking.Structural.accuracy ~strength:Locking.Structural.Naive xor_only in
  let acc_naive_hid = Locking.Structural.accuracy ~strength:Locking.Structural.Naive hidden in
  let acc_recon_hid =
    Locking.Structural.accuracy ~strength:Locking.Structural.Local_reconstruction hidden
  in
  Alcotest.(check (float 1e-9)) "naive breaks xor-only" 1.0 acc_naive_xor;
  Alcotest.(check bool) "hiding fools naive" true (acc_naive_hid < 0.8);
  Alcotest.(check (float 1e-9)) "reconstruction breaks hiding" 1.0 acc_recon_hid

let test_camouflage_preserves_function () =
  let rng = Rng.create 10 in
  let source = Gen.c17 () in
  let camo = Camo.Camouflage.apply rng ~cells:3 source in
  (* The fab view is the original function. *)
  Alcotest.(check bool) "fab view unchanged" true
    (Netlist.Sim.equivalent_exhaustive source camo.Camo.Camouflage.circuit)

let test_camouflage_locked_reduction () =
  let rng = Rng.create 11 in
  let source = Gen.c17 () in
  let camo = Camo.Camouflage.apply rng ~cells:3 source in
  let locked = Camo.Camouflage.to_locked camo in
  (* The correct configuration reproduces the original function. *)
  Alcotest.(check bool) "correct config" true
    (Lock.verify_correct locked ~original:source = None)

let test_decamouflage_succeeds () =
  let rng = Rng.create 12 in
  let source = Gen.alu 4 in
  let camo = Camo.Camouflage.apply rng ~cells:5 source in
  let iterations, success = Camo.Camouflage.decamouflage camo in
  Alcotest.(check bool) "success" true success;
  Alcotest.(check bool) "bounded DIPs" true (iterations <= 64)

let test_camouflage_area_overhead () =
  let rng = Rng.create 13 in
  let source = Gen.c17 () in
  let camo = Camo.Camouflage.apply rng ~cells:4 source in
  let overhead = Camo.Camouflage.area_overhead camo in
  Alcotest.(check bool) "overhead >= 1" true (overhead >= 1.0)

let prop_locking_roundtrip_random_circuits =
  QCheck.Test.make ~name:"epic locking verifies on random circuits" ~count:8
    QCheck.(int_bound 500)
    (fun seed ->
      let rng = Rng.create seed in
      let source = Gen.random_dag ~seed ~inputs:5 ~gates:30 ~outputs:2 in
      let locked = Lock.epic rng ~key_bits:6 source in
      Lock.verify_correct locked ~original:source = None)

let prop_sat_attack_always_functionally_correct =
  QCheck.Test.make ~name:"sat attack result is always equivalent" ~count:6
    QCheck.(int_bound 500)
    (fun seed ->
      let rng = Rng.create seed in
      let source = Gen.random_dag ~seed ~inputs:5 ~gates:25 ~outputs:2 in
      let locked = Lock.epic rng ~key_bits:6 source in
      let result = Sat_attack.run ~oracle:(Sat_attack.oracle_of_circuit source) locked in
      Sat_attack.recovered_key_correct locked ~original:source result)

let () =
  Alcotest.run "locking"
    [ ("epic",
       [ Alcotest.test_case "correct key restores" `Quick test_epic_correct_key_restores;
         Alcotest.test_case "wrong key corrupts" `Quick test_epic_wrong_key_corrupts;
         Alcotest.test_case "single wrong bit" `Quick test_epic_single_wrong_bit_corrupts;
         Alcotest.test_case "eval/apply_key agree" `Quick test_eval_and_apply_key_agree;
         Alcotest.test_case "impossible key count" `Quick test_epic_rejects_impossible_key_count;
         Alcotest.test_case "locked netlist round-trips" `Quick test_locked_netlist_round_trips ]);
      ("sat_attack",
       [ Alcotest.test_case "recovers epic keys" `Quick test_sat_attack_recovers_epic;
         Alcotest.test_case "equivalence not bit-equality" `Quick test_sat_attack_key_not_bitwise_equal_but_equivalent ]);
      ("sfll",
       [ Alcotest.test_case "verifies and resists" `Slow test_sfll_verifies_and_resists;
         Alcotest.test_case "sparse corruption" `Quick test_sfll_wrong_key_corrupts_sparsely ]);
      ("structural",
       [ Alcotest.test_case "sail story" `Quick test_structural_attack_story ]);
      ("camouflage",
       [ Alcotest.test_case "fab view unchanged" `Quick test_camouflage_preserves_function;
         Alcotest.test_case "locked reduction" `Quick test_camouflage_locked_reduction;
         Alcotest.test_case "decamouflage" `Quick test_decamouflage_succeeds;
         Alcotest.test_case "area overhead" `Quick test_camouflage_area_overhead ]);
      ("properties",
       List.map Seeded.to_alcotest
         [ prop_locking_roundtrip_random_circuits; prop_sat_attack_always_functionally_correct ]) ]
