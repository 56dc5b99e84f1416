(* Tests for information-flow tracking, QIF model counting, the cache
   covert channel, and the mini HLS. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Taint = Iflow.Taint
module Qif = Iflow.Qif
module Covert = Iflow.Covert
module Hls_df = Hls.Dataflow
module Rng = Eda_util.Rng

let and_mask_circuit () =
  (* y = secret AND gate_ctl: classic conditional leak. *)
  let c = Circuit.create () in
  let secret = Circuit.add_input ~name:"secret" c in
  let ctl = Circuit.add_input ~name:"ctl" c in
  let y = Circuit.add_gate c Gate.And [ secret; ctl ] in
  Circuit.set_output c "y" y;
  c, secret, ctl

let test_structural_taint_reaches () =
  let c, secret, _ = and_mask_circuit () in
  let taint = Taint.structural c ~sources:[ secret ] in
  Alcotest.(check bool) "output tainted" true taint.((Circuit.output_ids c).(0))

let test_structural_taint_does_not_invent () =
  let c, _, ctl = and_mask_circuit () in
  let taint = Taint.structural c ~sources:[ ctl ] in
  Alcotest.(check bool) "secret input untainted" false taint.(0)

let test_glift_precision () =
  let c, secret, _ = and_mask_circuit () in
  let out = (Circuit.output_ids c).(0) in
  (* ctl = 0 dominates the AND: no information about secret flows. *)
  let t0 = Taint.glift c ~sources:[ secret ] [| true; false |] in
  Alcotest.(check bool) "glift: dominated AND untainted" false t0.(out);
  (* ctl = 1: the secret is visible. *)
  let t1 = Taint.glift c ~sources:[ secret ] [| true; true |] in
  Alcotest.(check bool) "glift: open AND tainted" true t1.(out)

let test_glift_vs_structural_conservatism () =
  (* Structural says tainted; GLIFT refines per input. *)
  let c, secret, _ = and_mask_circuit () in
  let rng = Rng.create 1 in
  match Taint.leaks_to_output rng c ~sources:[ secret ] ~output:0 ~samples:50 with
  | `Leaks -> ()
  | `Never | `Structural_only -> Alcotest.fail "AND leaks for ctl=1"

let test_taint_never_without_path () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let y = Circuit.add_gate c Gate.Buf [ b ] in
  Circuit.set_output c "y" y;
  let rng = Rng.create 2 in
  match Taint.leaks_to_output rng c ~sources:[ a ] ~output:0 ~samples:10 with
  | `Never -> ()
  | `Leaks | `Structural_only -> Alcotest.fail "no path from a"

let test_xor_always_flows () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let y = Circuit.add_gate c Gate.Xor [ a; b ] in
  Circuit.set_output c "y" y;
  (* XOR never masks: GLIFT taints for every input combination. *)
  List.iter
    (fun inputs ->
      let t = Taint.glift c ~sources:[ a ] inputs in
      Alcotest.(check bool) "xor flows" true t.((Circuit.output_ids c).(0)))
    [ [| false; false |]; [| false; true |]; [| true; false |]; [| true; true |] ]

let test_qif_basic () =
  (* y = s0 AND s1 leaks H(Y) = h(1/4) bits; y = s0 leaks 1 bit; y = const
     leaks 0. *)
  let mk f =
    let c = Circuit.create () in
    let s0 = Circuit.add_input ~name:"s0" c in
    let s1 = Circuit.add_input ~name:"s1" c in
    let y = f c s0 s1 in
    Circuit.set_output c "y" y;
    c
  in
  let and_c = mk (fun c a b -> Circuit.add_gate c Gate.And [ a; b ]) in
  let buf_c = mk (fun c a _ -> Circuit.add_gate c Gate.Buf [ a ]) in
  let const_c = mk (fun c _ _ -> Circuit.add_const c false) in
  let pub = [| false; false |] in
  let h_and = Qif.shannon_leakage and_c ~secret:[ 0; 1 ] ~public_values:pub in
  let h_buf = Qif.shannon_leakage buf_c ~secret:[ 0; 1 ] ~public_values:pub in
  let h_const = Qif.shannon_leakage const_c ~secret:[ 0; 1 ] ~public_values:pub in
  let expected_and = -.(0.25 *. (log 0.25 /. log 2.0)) -. (0.75 *. (log 0.75 /. log 2.0)) in
  Alcotest.(check (float 1e-9)) "and entropy" expected_and h_and;
  Alcotest.(check (float 1e-9)) "buf leaks 1 bit" 1.0 h_buf;
  Alcotest.(check (float 1e-9)) "const leaks 0" 0.0 h_const

let test_qif_sbox_bijective_leaks_all () =
  let c = Crypto.Sbox_circuit.aes_round_datapath () in
  let secret = List.init 8 (fun i -> 8 + i) in
  let pub = Array.make 16 false in
  Alcotest.(check (float 1e-9)) "bijection leaks 8 bits" 8.0
    (Qif.shannon_leakage c ~secret ~public_values:pub);
  Alcotest.(check (float 1e-9)) "min-entropy too" 8.0
    (Qif.min_entropy_leakage c ~secret ~public_values:pub)

let test_qif_residual_entropy () =
  (* Observing AND output: residual entropy = 0.75 * log2(3) (the three
     preimages of 0), with secret 2 bits. *)
  let c = Circuit.create () in
  let s0 = Circuit.add_input ~name:"s0" c in
  let s1 = Circuit.add_input ~name:"s1" c in
  Circuit.set_output c "y" (Circuit.add_gate c Gate.And [ s0; s1 ]);
  let r = Qif.residual_entropy c ~secret:[ 0; 1 ] ~public_values:[| false; false |] in
  Alcotest.(check (float 1e-9)) "residual" (0.75 *. (log 3.0 /. log 2.0)) r

let test_qif_approx_matches_exact_on_small () =
  let rng = Rng.create 21 in
  let c = Crypto.Sbox_circuit.present_round_datapath () in
  let secret = [ 4; 5; 6; 7 ] in
  let pub = Array.make 8 false in
  let exact = Qif.shannon_leakage c ~secret ~public_values:pub in
  let approx = Qif.approx_shannon_leakage rng c ~secret ~public_values:pub ~samples:4000 in
  Alcotest.(check bool)
    (Printf.sprintf "approx %.2f near exact %.2f" approx exact)
    true
    (Float.abs (approx -. exact) < 0.3)

let test_qif_approx_scales_beyond_exact () =
  (* 16 secret bits on the adder: exact enumeration would need 2^16 sim
     calls per public value; sampling gives the (full) leakage estimate
     quickly. An adder of two 8-bit secrets reveals their sum: H(Y) =
     entropy of the sum distribution ~ 9 bits - binomial concentration. *)
  let rng = Rng.create 22 in
  let c = Netlist.Generators.ripple_adder 8 in
  let secret = List.init 16 (fun i -> i) in
  let pub = Array.make 17 false in
  let approx = Qif.approx_shannon_leakage rng c ~secret ~public_values:pub ~samples:8000 in
  Alcotest.(check bool) (Printf.sprintf "plausible estimate %.2f" approx) true
    (approx > 6.0 && approx < 9.0)

let test_covert_channel () =
  let rng = Rng.create 3 in
  let success = Covert.attack_success rng ~sets:16 ~trials:400 in
  Alcotest.(check (float 1e-9)) "prime+probe recovers" 1.0 success;
  let defended = Covert.attack_success_randomized rng ~sets:16 ~trials:400 in
  Alcotest.(check bool) "randomization defends" true (defended < 0.2)

let test_hls_schedule_respects_deps () =
  let graph =
    { Hls_df.ops =
        [ { Hls_df.id = 0; kind = Hls_df.Add; args = [ -1; -2 ]; sensitivity = Hls_df.Public };
          { Hls_df.id = 1; kind = Hls_df.Mul_dummy; args = [ 0 ]; sensitivity = Hls_df.Public };
          { Hls_df.id = 2; kind = Hls_df.Xor; args = [ 1; -3 ]; sensitivity = Hls_df.Public } ];
      width = 8 }
  in
  let start, makespan = Hls_df.schedule ~units:1 graph in
  let s op = Hashtbl.find start op in
  Alcotest.(check bool) "op1 after op0" true (s 1 >= s 0 + 1);
  Alcotest.(check bool) "op2 after mul latency" true (s 2 >= s 1 + 2);
  Alcotest.(check bool) "makespan covers" true (makespan >= s 2 + 1)

let test_hls_resource_constraint () =
  let ops =
    List.init 6 (fun i ->
        { Hls_df.id = i; kind = Hls_df.Add; args = [ -1; -2 ]; sensitivity = Hls_df.Public })
  in
  let graph = { Hls_df.ops; width = 8 } in
  let start1, span1 = Hls_df.schedule ~units:1 graph in
  let start3, span3 = Hls_df.schedule ~units:3 graph in
  ignore start1;
  ignore start3;
  Alcotest.(check int) "serial span" 6 span1;
  Alcotest.(check int) "parallel span" 2 span3

let secure_mix_graph () =
  { Hls_df.ops =
      [ { Hls_df.id = 0; kind = Hls_df.Add; args = [ -1; -2 ]; sensitivity = Hls_df.Secret };
        { Hls_df.id = 1; kind = Hls_df.Add; args = [ -3; -4 ]; sensitivity = Hls_df.Public };
        { Hls_df.id = 2; kind = Hls_df.Xor; args = [ 0; -3 ]; sensitivity = Hls_df.Secret };
        { Hls_df.id = 3; kind = Hls_df.Xor; args = [ 1; -4 ]; sensitivity = Hls_df.Public } ];
    width = 8 }

let test_hls_secure_binding_no_sharing () =
  let graph = secure_mix_graph () in
  let sched = Hls_df.schedule ~units:2 graph in
  let classical = Hls_df.bind ~security_aware:false ~units:2 graph sched in
  let secure = Hls_df.bind ~security_aware:true ~units:2 graph sched in
  Alcotest.(check bool) "secure binding never shares" false
    (Hls_df.has_cross_class_sharing graph secure);
  (* The classical binder may or may not share here; the secure one must
     not, and both must bind every op. *)
  Alcotest.(check int) "all ops bound (classical)" 4 (List.length classical);
  Alcotest.(check int) "all ops bound (secure)" 4 (List.length secure)

let test_hls_flush_schedule () =
  let graph = secure_mix_graph () in
  let start, makespan = Hls_df.schedule ~units:2 graph in
  let flushes = Hls_df.flush_schedule graph (start, makespan) in
  (* Two secret-producing ops -> two flush entries within the schedule. *)
  Alcotest.(check int) "flush count" 2 (List.length flushes);
  List.iter
    (fun (_, cycle) -> Alcotest.(check bool) "flush inside schedule" true (cycle <= makespan))
    flushes

let prop_glift_subset_of_structural =
  QCheck.Test.make ~name:"glift taint implies structural taint" ~count:20
    QCheck.(pair (int_bound 400) (int_bound 63))
    (fun (seed, m) ->
      let c = Netlist.Generators.random_dag ~seed ~inputs:6 ~gates:25 ~outputs:2 in
      let sources = [ 0; 1 ] in
      let inputs = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
      let s = Taint.structural c ~sources in
      let g = Taint.glift c ~sources inputs in
      let ok = ref true in
      Array.iteri (fun i gi -> if gi && not s.(i) then ok := false) g;
      !ok)

let () =
  Alcotest.run "iflow_hls"
    [ ("taint",
       [ Alcotest.test_case "structural reaches" `Quick test_structural_taint_reaches;
         Alcotest.test_case "structural no invention" `Quick test_structural_taint_does_not_invent;
         Alcotest.test_case "glift precision" `Quick test_glift_precision;
         Alcotest.test_case "leaks_to_output" `Quick test_glift_vs_structural_conservatism;
         Alcotest.test_case "never without path" `Quick test_taint_never_without_path;
         Alcotest.test_case "xor always flows" `Quick test_xor_always_flows ]);
      ("qif",
       [ Alcotest.test_case "basic leakages" `Quick test_qif_basic;
         Alcotest.test_case "bijection leaks all" `Quick test_qif_sbox_bijective_leaks_all;
         Alcotest.test_case "residual entropy" `Quick test_qif_residual_entropy;
         Alcotest.test_case "approx matches exact" `Quick test_qif_approx_matches_exact_on_small;
         Alcotest.test_case "approx scales" `Quick test_qif_approx_scales_beyond_exact ]);
      ("covert", [ Alcotest.test_case "prime+probe" `Quick test_covert_channel ]);
      ("hls",
       [ Alcotest.test_case "schedule deps" `Quick test_hls_schedule_respects_deps;
         Alcotest.test_case "resource constraint" `Quick test_hls_resource_constraint;
         Alcotest.test_case "secure binding" `Quick test_hls_secure_binding_no_sharing;
         Alcotest.test_case "flush schedule" `Quick test_hls_flush_schedule ]);
      ("properties", List.map Seeded.to_alcotest [ prop_glift_subset_of_structural ]) ]
