(* Tests for the software crypto references and their netlist forms. *)

module Aes = Crypto.Aes
module Present = Crypto.Present
module Sbox = Crypto.Sbox_circuit
module Rng = Eda_util.Rng

let test_aes_kat () = Alcotest.(check bool) "FIPS-197 C.1" true (Aes.self_test ())

let test_aes_sbox_properties () =
  (* Bijection; no fixed points; matches the affine definition at spots. *)
  let seen = Array.make 256 false in
  Array.iter (fun y -> seen.(y) <- true) Aes.sbox;
  Alcotest.(check bool) "bijective" true (Array.for_all (fun b -> b) seen);
  Alcotest.(check int) "sbox(0)" 0x63 Aes.sbox.(0);
  Alcotest.(check int) "sbox(1)" 0x7C Aes.sbox.(1);
  Alcotest.(check int) "sbox(0x53)" 0xED Aes.sbox.(0x53);
  for x = 0 to 255 do
    Alcotest.(check int) "inverse" x Aes.inv_sbox.(Aes.sbox.(x))
  done

let test_aes_roundtrip () =
  let rng = Rng.create 42 in
  for _ = 1 to 20 do
    let key = Aes.random_key rng in
    let pt = Aes.random_block rng in
    let ks = Aes.expand_key key in
    Alcotest.(check bool) "decrypt inverts encrypt" true (Aes.decrypt ks (Aes.encrypt ks pt) = pt)
  done

let test_aes_gf_arithmetic () =
  Alcotest.(check int) "2*0x80 wraps" 0x1B (Aes.gf_mul 2 0x80);
  Alcotest.(check int) "0x57*0x83" 0xC1 (Aes.gf_mul 0x57 0x83);
  for x = 1 to 255 do
    Alcotest.(check int) (Printf.sprintf "inv %d" x) 1 (Aes.gf_mul x (Aes.gf_inv x))
  done

let test_aes_avalanche () =
  (* Single plaintext bit flip changes ~half the ciphertext bits. *)
  let rng = Rng.create 9 in
  let key = Aes.random_key rng in
  let ks = Aes.expand_key key in
  let pt = Aes.random_block rng in
  let ct = Aes.encrypt ks pt in
  let pt' = Array.copy pt in
  pt'.(0) <- pt'.(0) lxor 1;
  let ct' = Aes.encrypt ks pt' in
  let hd = ref 0 in
  Array.iteri (fun i b -> hd := !hd + Eda_util.Stats.hamming_weight ~bits:8 (b lxor ct'.(i))) ct;
  Alcotest.(check bool) "avalanche" true (!hd > 40 && !hd < 90)

let test_present_kat () = Alcotest.(check bool) "paper test vector" true (Present.self_test ())

let test_present_roundtrip () =
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let key = { Present.hi = Rng.next_int64 rng; lo = Rng.int rng 65536 } in
    let pt = Rng.next_int64 rng in
    Alcotest.(check bool) "roundtrip" true
      (Int64.equal (Present.decrypt key (Present.encrypt key pt)) pt)
  done

let test_present_sbox_bijective () =
  let seen = Array.make 16 false in
  Array.iter (fun y -> seen.(y) <- true) Present.sbox;
  Alcotest.(check bool) "bijective" true (Array.for_all (fun b -> b) seen)

let test_present_p_layer_involution_structure () =
  (* P then inverse P is identity on random states. *)
  let rng = Rng.create 6 in
  for _ = 1 to 50 do
    let s = Rng.next_int64 rng in
    Alcotest.(check bool) "p then invp" true
      (Int64.equal (Present.inv_p_layer (Present.p_layer s)) s)
  done

let test_aes_sbox_netlist () =
  let c = Sbox.aes_sbox () in
  for x = 0 to 255 do
    let out = Sbox.bits_to_byte (Netlist.Sim.eval c (Sbox.byte_to_bits x)) in
    Alcotest.(check int) (Printf.sprintf "sbox %d" x) Aes.sbox.(x) out
  done

let test_aes_inv_sbox_netlist () =
  let c = Sbox.aes_inv_sbox () in
  for x = 0 to 255 do
    let out = Sbox.bits_to_byte (Netlist.Sim.eval c (Sbox.byte_to_bits x)) in
    Alcotest.(check int) (Printf.sprintf "inv sbox %d" x) Aes.inv_sbox.(x) out
  done

let test_present_sbox_netlist () =
  let c = Sbox.present_sbox () in
  for x = 0 to 15 do
    let out =
      Netlist.Sim.eval c (Array.init 4 (fun i -> (x lsr i) land 1 = 1))
    in
    let v = ref 0 in
    for i = 3 downto 0 do
      v := (!v lsl 1) lor (if out.(i) then 1 else 0)
    done;
    Alcotest.(check int) (Printf.sprintf "present sbox %d" x) Present.sbox.(x) !v
  done

let test_datapath_matches_software () =
  let c = Sbox.aes_round_datapath () in
  let rng = Rng.create 12 in
  for _ = 1 to 100 do
    let p = Rng.int rng 256 and k = Rng.int rng 256 in
    let inputs = Array.append (Sbox.byte_to_bits p) (Sbox.byte_to_bits k) in
    Alcotest.(check int) "sbox(p^k)" Aes.sbox.(p lxor k)
      (Sbox.bits_to_byte (Netlist.Sim.eval c inputs))
  done

let test_registered_datapath () =
  let c = Sbox.aes_round_registered () in
  Alcotest.(check int) "8 registers" 8 (Netlist.Circuit.num_dffs c);
  (* After one clock cycle the registers hold sbox(p ^ k). *)
  let p = 0x3C and k = 0xA7 in
  let inputs = Array.append (Sbox.byte_to_bits p) (Sbox.byte_to_bits k) in
  let state0 = Array.make 8 false in
  let _, state1 = Netlist.Sim.step c ~state:state0 inputs in
  Alcotest.(check int) "captured" Aes.sbox.(p lxor k) (Sbox.bits_to_byte state1)

let test_byte_conversions () =
  for v = 0 to 255 do
    Alcotest.(check int) "roundtrip" v (Sbox.bits_to_byte (Sbox.byte_to_bits v))
  done

let prop_aes_key_sensitivity =
  QCheck.Test.make ~name:"different keys give different ciphertexts" ~count:30
    QCheck.(pair (int_bound 10000) (int_bound 10000))
    (fun (s1, s2) ->
      QCheck.assume (s1 <> s2);
      let rng1 = Rng.create s1 and rng2 = Rng.create s2 in
      let k1 = Aes.random_key rng1 and k2 = Aes.random_key rng2 in
      let pt = Array.make 16 0 in
      k1 = k2
      || Aes.encrypt (Aes.expand_key k1) pt <> Aes.encrypt (Aes.expand_key k2) pt)

let () =
  Alcotest.run "crypto"
    [ ("aes",
       [ Alcotest.test_case "known answer" `Quick test_aes_kat;
         Alcotest.test_case "sbox properties" `Quick test_aes_sbox_properties;
         Alcotest.test_case "roundtrip" `Quick test_aes_roundtrip;
         Alcotest.test_case "gf arithmetic" `Quick test_aes_gf_arithmetic;
         Alcotest.test_case "avalanche" `Quick test_aes_avalanche ]);
      ("present",
       [ Alcotest.test_case "known answer" `Quick test_present_kat;
         Alcotest.test_case "roundtrip" `Quick test_present_roundtrip;
         Alcotest.test_case "sbox bijective" `Quick test_present_sbox_bijective;
         Alcotest.test_case "p layer inverse" `Quick test_present_p_layer_involution_structure ]);
      ("netlists",
       [ Alcotest.test_case "aes sbox" `Quick test_aes_sbox_netlist;
         Alcotest.test_case "aes inv sbox" `Quick test_aes_inv_sbox_netlist;
         Alcotest.test_case "present sbox" `Quick test_present_sbox_netlist;
         Alcotest.test_case "round datapath" `Quick test_datapath_matches_software;
         Alcotest.test_case "registered datapath" `Quick test_registered_datapath;
         Alcotest.test_case "byte conversions" `Quick test_byte_conversions ]);
      ("properties", List.map Seeded.to_alcotest [ prop_aes_key_sensitivity ]) ]
