(* Tests for scan insertion, ATPG and the scan attack / secure scan. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Scan = Dft.Scan
module Rng = Eda_util.Rng

(* A small sequential design: 4-bit register file of one word. *)
let registered_xor () =
  let c = Circuit.create () in
  let xs = Array.init 4 (fun i -> Circuit.add_input ~name:(Printf.sprintf "x%d" i) c) in
  Array.iteri
    (fun i x ->
      let q = Circuit.add_dff ~name:(Printf.sprintf "q%d" i) c ~d:x in
      Circuit.set_output c (Printf.sprintf "o%d" i) q)
    xs;
  c

let test_scan_functional_mode_unchanged () =
  let src = registered_xor () in
  let scanned = Scan.insert src in
  (* In functional mode (scan_en = 0) a capture cycle behaves like the
     original: registers load their D inputs. *)
  let data = [| true; false; true; true |] in
  let state = Scan.capture scanned ~state:(Array.make 4 false) ~data in
  Alcotest.(check (array bool)) "captured data" data state

let test_scan_shift_roundtrip () =
  let scanned = Scan.insert (registered_xor ()) in
  (* Shift a known pattern in, then unload and compare. *)
  let pattern = [ true; false; false; true ] in
  let _, state = Scan.shift scanned ~state:(Array.make 4 false) ~bits:pattern in
  (* After 4 shifts, cell k holds the bit shifted in 4-k cycles ago:
     cell 0 = last bit, cell 3 = first bit. *)
  let stream, _ = Scan.unload scanned ~state in
  Alcotest.(check (array bool)) "unload returns state in cell order"
    [| true; false; false; true |]
    (* first-in bit reached cell 3 *)
    (Array.of_list (List.rev (Array.to_list stream)))

let test_scan_observability () =
  (* Capture then unload recovers the captured state exactly. *)
  let scanned = Scan.insert (registered_xor ()) in
  let data = [| false; true; true; false |] in
  let state = Scan.capture scanned ~state:(Array.make 4 false) ~data in
  let stream, _ = Scan.unload scanned ~state in
  Alcotest.(check (array bool)) "observed = captured" data stream

let test_secure_scan_scrambles () =
  let key = [| true; false; true; true |] in
  let scanned = Scan.insert ~protection:(Scan.Secure key) (registered_xor ()) in
  let data = [| true; true; false; false |] in
  let state = Scan.capture scanned ~state:(Array.make 4 false) ~data in
  let stream, _ = Scan.unload scanned ~state in
  Alcotest.(check bool) "stream scrambled" true (stream <> data);
  Alcotest.(check (array bool)) "descramble recovers" data (Scan.descramble scanned stream)

let test_scan_attack_plain_succeeds () =
  let device = Dft.Scan_attack.device () in
  for key = 0 to 255 do
    Alcotest.(check int) (Printf.sprintf "key %02x" key) key
      (Dft.Scan_attack.recover_key_byte device ~key)
  done

let test_scan_attack_secure_fails () =
  let rng = Rng.create 5 in
  let key_bits = Array.init 8 (fun _ -> Rng.bool rng) in
  let device = Dft.Scan_attack.device ~protection:(Scan.Secure key_bits) () in
  let rate = Dft.Scan_attack.success_rate device in
  Alcotest.(check bool) "attack defeated" true (rate < 0.05)

let test_secure_scan_keeps_testability () =
  let rng = Rng.create 6 in
  let key_bits = Array.init 8 (fun _ -> Rng.bool rng) in
  let device = Dft.Scan_attack.device ~protection:(Scan.Secure key_bits) () in
  (* The authorized tester still reads the true captured state. *)
  for key = 0 to 20 do
    let read = Dft.Scan_attack.tester_reads_state device ~key in
    Alcotest.(check int) "tester view" Crypto.Aes.sbox.(key) read
  done

let test_atpg_pattern_detects_target () =
  let c = Gen.c17 () in
  let faults = Fault.Model.all_stuck_at_faults c in
  List.iter
    (fun fault ->
      match Dft.Atpg.generate c fault with
      | Dft.Atpg.Untestable -> Alcotest.fail "c17 has no untestable faults"
      | Dft.Atpg.Abstained _ -> Alcotest.fail "unbudgeted ATPG cannot abstain"
      | Dft.Atpg.Pattern p ->
        Alcotest.(check bool) "pattern detects" true (Fault.Model.detects c ~fault p))
    faults

let test_atpg_full_run () =
  let c = Gen.c17 () in
  let r = Dft.Atpg.run c in
  let patterns = r.Dft.Atpg.patterns in
  Alcotest.(check (float 1e-9)) "full coverage" 1.0 r.Dft.Atpg.coverage;
  Alcotest.(check int) "nothing untestable" 0 (List.length r.Dft.Atpg.untestable);
  (* Compaction: far fewer patterns than faults. *)
  Alcotest.(check bool) "compact set" true (List.length patterns < 12);
  let faults = Fault.Model.all_stuck_at_faults c in
  Alcotest.(check (float 1e-9)) "patterns re-verified" 1.0
    (Fault.Model.coverage c ~faults ~patterns)

let test_atpg_finds_untestable () =
  (* Redundant logic: y = a OR (a AND b): the AND's effect is masked. *)
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let g = Circuit.add_gate c Gate.And [ a; b ] in
  let y = Circuit.add_gate c Gate.Or [ a; g ] in
  Circuit.set_output c "y" y;
  (* g stuck-at-0 never observable: y = a either way. *)
  (match Dft.Atpg.generate c (Fault.Model.Stuck_at { node = g; value = false }) with
   | Dft.Atpg.Untestable -> ()
   | Dft.Atpg.Pattern _ | Dft.Atpg.Abstained _ ->
     Alcotest.fail "redundant fault must be untestable")

let prop_scan_roundtrip_any_state =
  QCheck.Test.make ~name:"scan load/unload is identity" ~count:30
    QCheck.(int_bound 15)
    (fun m ->
      let scanned = Scan.insert (registered_xor ()) in
      let state = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
      let stream, _ = Scan.unload scanned ~state in
      stream = state)

let () =
  Alcotest.run "dft"
    [ ("scan",
       [ Alcotest.test_case "functional mode" `Quick test_scan_functional_mode_unchanged;
         Alcotest.test_case "shift roundtrip" `Quick test_scan_shift_roundtrip;
         Alcotest.test_case "observability" `Quick test_scan_observability;
         Alcotest.test_case "secure scrambles" `Quick test_secure_scan_scrambles ]);
      ("scan_attack",
       [ Alcotest.test_case "plain succeeds" `Quick test_scan_attack_plain_succeeds;
         Alcotest.test_case "secure fails" `Quick test_scan_attack_secure_fails;
         Alcotest.test_case "testability kept" `Quick test_secure_scan_keeps_testability ]);
      ("atpg",
       [ Alcotest.test_case "per-fault patterns" `Quick test_atpg_pattern_detects_target;
         Alcotest.test_case "full run" `Quick test_atpg_full_run;
         Alcotest.test_case "untestable found" `Quick test_atpg_finds_untestable ]);
      ("properties", List.map Seeded.to_alcotest [ prop_scan_roundtrip_any_state ]) ]
