(* Tests for ISW masking, TVLA, CPA and the Fig. 2 experiment logic. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng
module Isw = Sidechannel.Isw
module Masking = Synth.Masking
module Tvla = Sidechannel.Tvla
module Cpa = Sidechannel.Cpa
module Leakage = Sidechannel.Leakage

let test_share_encode_decode () =
  let rng = Rng.create 1 in
  for shares = 2 to 5 do
    for _ = 1 to 100 do
      let v = Rng.bool rng in
      Alcotest.(check bool) "decode inverts encode" v (Isw.decode (Isw.encode rng ~shares v))
    done
  done

let test_shares_look_random () =
  (* Any single share of a fixed secret is balanced. *)
  let rng = Rng.create 2 in
  let ones = ref 0 in
  let n = 4000 in
  for _ = 1 to n do
    let sh = Isw.encode rng ~shares:3 true in
    if sh.(1) then incr ones
  done;
  let p = Float.of_int !ones /. Float.of_int n in
  Alcotest.(check bool) "share balanced" true (Float.abs (p -. 0.5) < 0.05)

let test_masked_and_correct () =
  let rng = Rng.create 3 in
  for shares = 2 to 4 do
    let masked = Masking.transform ~shares (Leakage.private_and_source ()) in
    for _ = 1 to 100 do
      let a = Rng.bool rng and b = Rng.bool rng in
      match Isw.eval rng masked ~values:[ ("a", a); ("b", b) ] with
      | [ ("y", y) ] -> Alcotest.(check bool) "and" (a && b) y
      | _ -> Alcotest.fail "unexpected outputs"
    done
  done

let test_masked_arbitrary_circuit () =
  (* Mask a richer function: c17 (NANDs exercise basis conversion). *)
  let rng = Rng.create 4 in
  let src = Netlist.Generators.c17 () in
  let masked = Masking.transform ~shares:3 src in
  for m = 0 to 31 do
    let inputs = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
    let expected = Netlist.Sim.eval src inputs in
    let values =
      List.mapi (fun k id -> Circuit.name src id, inputs.(k))
        (Array.to_list (Circuit.inputs src))
    in
    let got = Isw.eval rng masked ~values in
    List.iteri
      (fun k (_, v) -> Alcotest.(check bool) (Printf.sprintf "m=%d out %d" m k) expected.(k) v)
      got
  done

let test_randomness_count () =
  (* One 3-share AND consumes C(3,2) = 3 random bits. *)
  let masked = Masking.transform ~shares:3 (Leakage.private_and_source ()) in
  Alcotest.(check int) "3 randoms" 3 (Array.length masked.Masking.random_inputs);
  let masked4 = Masking.transform ~shares:4 (Leakage.private_and_source ()) in
  Alcotest.(check int) "6 randoms at 4 shares" 6 (Array.length masked4.Masking.random_inputs)

let test_tvla_no_leak_on_identical () =
  let rng = Rng.create 5 in
  let collect stream _cls = [| Rng.gaussian stream |] in
  let r = Tvla.campaign_seeded rng ~traces_per_class:500 ~collect in
  Alcotest.(check bool) "no false positive" true (not (Tvla.leaks r))

let test_tvla_detects_mean_shift () =
  let rng = Rng.create 6 in
  let collect stream = function
    | `Fixed -> [| Rng.gaussian stream +. 0.5 |]
    | `Random -> [| Rng.gaussian stream |]
  in
  let r = Tvla.campaign_seeded rng ~traces_per_class:1000 ~collect in
  Alcotest.(check bool) "leak found" true (Tvla.leaks r);
  Alcotest.(check (list int)) "sample 0 flagged" [ 0 ] r.Tvla.leaky_samples

let test_tvla_escalation_monotone_overall () =
  (* Pair i of a seeded campaign uses stream i of [Rng.split], so the
     campaigns below are nested prefixes of one trace sequence: the
     cumulative |t| trajectory of a known mean shift. *)
  let collect stream = function
    | `Fixed -> [| Rng.gaussian stream +. 0.3 |]
    | `Random -> [| Rng.gaussian stream |]
  in
  let max_t n = (Tvla.campaign_seeded (Rng.create 7) ~traces_per_class:n ~collect).Tvla.max_abs_t in
  match List.map max_t [ 100; 400; 1600 ] with
  | [ t1; t2; t3 ] ->
    Alcotest.(check bool) "grows with n" true (t3 > t1);
    Alcotest.(check bool) "mid" true (t2 > t1 *. 0.5);
    Alcotest.(check bool) "detected at 1600" true (t3 > Tvla.threshold)
  | _ -> Alcotest.fail "expected 3 points"

(* Ground truth for the verdict statistic: with both classes drawn
   identically, each of [samples] independent per-sample t values
   exceeds |t| = 2 with probability 2 (1 - Phi(2)) = 4.55%, at either
   order. The hit count must sit within 4 binomial standard deviations. *)
let test_tvla_null_calibration () =
  let samples = 4000 in
  let collect stream _cls = Array.init samples (fun _ -> Rng.gaussian stream) in
  let o1, o2 =
    Tvla.campaign_orders (Rng.create 12) ~traces_per_class:500 ~batch:(Tvla.per_trace collect)
  in
  let p = 0.0455 in
  let expected = Float.of_int samples *. p in
  let sd = sqrt (expected *. (1.0 -. p)) in
  List.iter
    (fun (order, r) ->
      let hits =
        Array.fold_left
          (fun n t -> if Float.abs t > 2.0 then n + 1 else n)
          0 r.Tvla.t_per_sample
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s order: %d of %d samples beyond |t| = 2 (expected %.0f +- %.0f)"
           order hits samples expected (4.0 *. sd))
        true
        (Float.abs (Float.of_int hits -. expected) <= 4.0 *. sd))
    [ ("first", o1); ("second", o2) ]

(* the campaign's own diagnostic, not a stray array bounds check *)
let documented_rejection msg =
  Alcotest.(check bool) ("documented rejection: " ^ msg) true (String.starts_with ~prefix:"Tvla" msg)

let rejects_traces ~fixed_len ~random_len () =
  let collect _stream = function
    | `Fixed -> Array.make fixed_len 1.0
    | `Random -> Array.make random_len 2.0
  in
  match Tvla.campaign_seeded (Rng.create 13) ~traces_per_class:5 ~collect with
  | r -> Alcotest.failf "accepted: %d samples, max|t| = %g" (Array.length r.Tvla.t_per_sample) r.Tvla.max_abs_t
  | exception Invalid_argument msg -> documented_rejection msg

let test_tvla_rejects_length_drift () =
  (* every batch is self-consistent, but from pair 32 (the first of the
     second batch) traces grow by one sample: caught at the merge *)
  let calls = ref 0 in
  let collect _stream _cls =
    incr calls;
    Array.make (if !calls > 64 then 4 else 3) 0.5
  in
  match Tvla.campaign_seeded (Rng.create 14) ~traces_per_class:50 ~collect with
  | _ -> Alcotest.fail "accepted traces of drifting length"
  | exception Invalid_argument msg -> documented_rejection msg

let test_fig2_unaware_leaks_aware_passes () =
  let rng = Rng.create 8 in
  let aware = Leakage.synthesize_masked Leakage.Security_aware in
  let unaware = Leakage.synthesize_masked Leakage.Security_unaware in
  let r_aware = Leakage.tvla_campaign rng aware ~traces_per_class:2000 ~noise_sigma:0.3 in
  let r_unaware = Leakage.tvla_campaign rng unaware ~traces_per_class:2000 ~noise_sigma:0.3 in
  Alcotest.(check bool) "aware passes" false (Tvla.leaks r_aware);
  Alcotest.(check bool) "unaware leaks" true (Tvla.leaks r_unaware)

let test_fig2_variants_functionally_equal () =
  let rng = Rng.create 9 in
  List.iter
    (fun variant ->
      let masked = Leakage.synthesize_masked variant in
      for _ = 1 to 50 do
        let a = Rng.bool rng and b = Rng.bool rng in
        match Isw.eval rng masked ~values:[ ("a", a); ("b", b) ] with
        | [ (_, y) ] -> Alcotest.(check bool) "still AND" (a && b) y
        | _ -> Alcotest.fail "unexpected outputs"
      done)
    [ Leakage.Security_aware; Leakage.Security_unaware ]

let test_leakiest_wire_is_internal_gate () =
  let rng = Rng.create 10 in
  let unaware = Leakage.synthesize_masked Leakage.Security_unaware in
  let _, t = Leakage.leakiest_wire rng unaware ~samples:2000 in
  Alcotest.(check bool) "strongly leaking wire exists" true (t > Tvla.threshold)

let test_cpa_recovers_key () =
  let rng = Rng.create 11 in
  let circuit = Crypto.Sbox_circuit.aes_round_datapath () in
  let result = Cpa.campaign rng circuit ~key:0x5A ~traces:400 ~noise_sigma:1.0 in
  Alcotest.(check int) "key recovered" 0x5A result.Cpa.best_guess;
  Alcotest.(check (option int)) "rank 0" (Some 0) result.Cpa.correct_rank

let test_cpa_fails_with_few_traces_high_noise () =
  let rng = Rng.create 12 in
  let circuit = Crypto.Sbox_circuit.aes_round_datapath () in
  let successes = ref 0 in
  for _ = 1 to 5 do
    let r = Cpa.campaign rng circuit ~key:0x5A ~traces:5 ~noise_sigma:60.0 in
    if r.Cpa.best_guess = 0x5A then incr successes
  done;
  Alcotest.(check bool) "mostly fails" true (!successes <= 2)

let test_cpa_success_improves_with_traces () =
  let rng = Rng.create 13 in
  let circuit = Crypto.Sbox_circuit.aes_round_datapath () in
  let curve =
    Cpa.success_rate_curve rng circuit ~key:0xC3 ~trace_counts:[ 10; 400 ] ~trials:4
      ~noise_sigma:2.0
  in
  (match curve with
   | [ (_, s_low); (_, s_high) ] ->
     Alcotest.(check bool) "monotone-ish" true (s_high >= s_low);
     Alcotest.(check bool) "converges" true (s_high >= 0.75)
   | _ -> Alcotest.fail "expected 2 points")

let test_metrics_snr () =
  let rng = Rng.create 14 in
  (* Observable = class mean 0/1 with noise 0.5: SNR = var({0,1})/0.25. *)
  let observations =
    List.init 4000 (fun i ->
        let cls = i mod 2 in
        (cls, Float.of_int cls +. Rng.gaussian_scaled rng ~mean:0.0 ~sigma:0.5))
  in
  let s = Sidechannel.Metrics.snr ~classify:(fun c -> c) observations in
  Alcotest.(check bool) "snr near 1" true (s > 0.7 && s < 1.4);
  let mtd = Sidechannel.Metrics.measurements_to_disclosure ~snr:s in
  Alcotest.(check bool) "mtd finite" true (Float.is_finite mtd && mtd > 0.0)

let test_traces_to_threshold () =
  (* t = 2 at 1000 traces -> threshold 4.5 at ~5000. *)
  let n = Sidechannel.Metrics.traces_to_threshold ~observed_t:2.0 ~observed_n:1000 in
  Alcotest.(check bool) "extrapolation" true (n > 4000.0 && n < 6000.0)

(* --- secure_synthesis recipe / TVLA gate -------------------------------- *)

module Secure_synth = Sidechannel.Secure_synth

(* Campaign strong enough to convict the unmasked design (|t| ~ 30) with
   comfortable margin below threshold on the masked one (|t| ~ 1). *)
let traces_per_class = 1500
let noise_sigma = 0.8
let tvla_params = [ ("traces", string_of_int traces_per_class); ("noise_sigma", "0.8") ]

let test_secure_synthesis_end_to_end () =
  Secure_synth.register ();
  let c = Netlist.Generators.c17 () in
  (* The acceptance argument needs both verdicts: the campaign convicts
     the unmasked reference AND clears the recipe's output. *)
  let unmasked = Secure_synth.assess (Rng.create 21) c ~traces_per_class ~noise_sigma in
  Alcotest.(check bool) "unmasked reference leaks" true (Tvla.leaks unmasked);
  Alcotest.(check bool) "and convincingly so" true (unmasked.Tvla.max_abs_t > 2.0 *. Tvla.threshold);
  (* The recipe runs its own tvla_check; completing without Check_failed
     is the sign-off. Re-assess under an independent seed anyway. *)
  let masked = Synth.Pipeline.run_recipe ~params:tvla_params "secure_synthesis" c in
  let again = Secure_synth.assess (Rng.create 22) masked ~traces_per_class ~noise_sigma in
  Alcotest.(check bool) "masked output clean under a fresh campaign" false (Tvla.leaks again)

let test_verify_pair () =
  Secure_synth.register ();
  let c = Netlist.Generators.c17 () in
  let masked = Synth.Pass.apply ~params:[ ("shares", "3"); ("seed", "4") ] "mask_insertion" c in
  let v = Secure_synth.verify (Rng.create 31) ~reference:c masked ~traces_per_class ~noise_sigma in
  Alcotest.(check bool) "masked clean" false (Tvla.leaks v.Secure_synth.masked_result);
  Alcotest.(check bool) "reference leaking" true (Tvla.leaks v.Secure_synth.unmasked_result)

let test_tvla_pass_rejects_unmasked () =
  Secure_synth.register ();
  match Synth.Pass.apply ~params:tvla_params "tvla_check" (Netlist.Generators.c17 ()) with
  | _ -> Alcotest.fail "tvla_check should reject an unmasked circuit"
  | exception Synth.Pass.Check_failed { pass; msg } ->
    Alcotest.(check string) "failing pass" "tvla_check" pass;
    Alcotest.(check bool) "message names the statistic" true
      (String.length msg > 0 && String.sub msg 0 12 = "TVLA leakage")

let test_region_mask_boundary_still_leaks () =
  (* Region masking is honest physics: the boundary wires feeding the
     masked island still carry plain secrets, and the whole-circuit
     Hamming-weight model sees them. The TVLA gate must keep flagging
     such designs rather than blessing partial masking. *)
  Secure_synth.register ();
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let d = Circuit.add_input ~name:"d" c in
  let x = Circuit.add_gate c Gate.And [ a; b ] in
  let y = Circuit.add_gate c Gate.Xor [ x; d ] in
  Circuit.set_output c "y" y;
  Circuit.annotate_region c ~region:"core" [ x; y ];
  let m = Synth.Pass.apply ~params:[ ("shares", "3"); ("seed", "2") ] "mask_insertion" c in
  Alcotest.(check bool) "region-masked island keeps region metadata" true
    (Circuit.region_names m <> []);
  (* Three plain wires among ~40 masked nodes is a weak signal: it needs
     a longer campaign (|t| ~ 8 at 6000 traces vs ~4.2 at 1500) — which
     is itself the lesson about partial masking. *)
  Alcotest.(check bool) "plain boundary wires still leak" true
    (Secure_synth.leaks (Rng.create 23) m ~traces_per_class:6000 ~noise_sigma)

let test_pipelined_dom_assessed_as_shares () =
  (* The 2-share DOM private AND is secure by construction. Its share
     inputs must group into one secret per source input: were each share
     a secret of its own, the fixed class would pin every share to 1, and
     this campaign would read max |t| 29.1. *)
  let dom = Masking.pipelined ~shares:2 (Sidechannel.Leakage.private_and_source ()) in
  let c = dom.Masking.circuit in
  let iface = Masking.interface_of c in
  List.iter
    (fun (base, ids) ->
      match List.assoc_opt base iface.Masking.secrets with
      | Some group -> Alcotest.(check (array int)) ("shares of " ^ base) ids group
      | None -> Alcotest.failf "no share group for %s" base)
    dom.Masking.input_shares;
  Alcotest.(check bool) "DOM private AND clean at 600 traces/class" false
    (Secure_synth.leaks (Rng.create 24) c ~traces_per_class:600 ~noise_sigma)

let prop_masked_eval_matches_source =
  QCheck.Test.make ~name:"masked random circuits compute their source" ~count:8
    QCheck.(pair (int_bound 300) (int_bound 255))
    (fun (seed, m) ->
      let src = Netlist.Generators.random_dag ~seed ~inputs:4 ~gates:12 ~outputs:1 in
      let masked = Masking.transform ~shares:3 src in
      let rng = Rng.create (seed + m) in
      let inputs = Array.init 4 (fun i -> (m lsr i) land 1 = 1) in
      let values =
        List.mapi (fun k id -> Circuit.name src id, inputs.(k))
          (Array.to_list (Circuit.inputs src))
      in
      let expected = (Netlist.Sim.eval src inputs).(0) in
      match Isw.eval rng masked ~values with
      | [ (_, y) ] -> y = expected
      | _ -> false)

let () =
  Alcotest.run "sidechannel"
    [ ("isw",
       [ Alcotest.test_case "encode/decode" `Quick test_share_encode_decode;
         Alcotest.test_case "shares balanced" `Quick test_shares_look_random;
         Alcotest.test_case "masked AND correct" `Quick test_masked_and_correct;
         Alcotest.test_case "masked c17 correct" `Quick test_masked_arbitrary_circuit;
         Alcotest.test_case "randomness budget" `Quick test_randomness_count ]);
      ("tvla",
       [ Alcotest.test_case "no false positive" `Quick test_tvla_no_leak_on_identical;
         Alcotest.test_case "detects shift" `Quick test_tvla_detects_mean_shift;
         Alcotest.test_case "escalation" `Quick test_tvla_escalation_monotone_overall;
         Alcotest.test_case "null calibration" `Quick test_tvla_null_calibration;
         Alcotest.test_case "rejects fixed longer than random" `Quick
           (rejects_traces ~fixed_len:3 ~random_len:2);
         Alcotest.test_case "rejects random longer than fixed" `Quick
           (rejects_traces ~fixed_len:2 ~random_len:3);
         Alcotest.test_case "rejects empty traces" `Quick
           (rejects_traces ~fixed_len:0 ~random_len:0);
         Alcotest.test_case "rejects length drift" `Quick test_tvla_rejects_length_drift ]);
      ("fig2",
       [ Alcotest.test_case "aware passes, unaware leaks" `Slow test_fig2_unaware_leaks_aware_passes;
         Alcotest.test_case "variants functionally equal" `Quick test_fig2_variants_functionally_equal;
         Alcotest.test_case "leaky wire identified" `Slow test_leakiest_wire_is_internal_gate ]);
      ("cpa",
       [ Alcotest.test_case "recovers key" `Quick test_cpa_recovers_key;
         Alcotest.test_case "fails with few/noisy traces" `Quick test_cpa_fails_with_few_traces_high_noise;
         Alcotest.test_case "improves with traces" `Slow test_cpa_success_improves_with_traces ]);
      ("secure_synth",
       [ Alcotest.test_case "recipe end to end" `Slow test_secure_synthesis_end_to_end;
         Alcotest.test_case "verify pair" `Slow test_verify_pair;
         Alcotest.test_case "tvla_check rejects unmasked" `Quick test_tvla_pass_rejects_unmasked;
         Alcotest.test_case "region boundary still leaks" `Quick test_region_mask_boundary_still_leaks;
         Alcotest.test_case "pipelined DOM assessed as shares" `Quick
           test_pipelined_dom_assessed_as_shares ]);
      ("metrics",
       [ Alcotest.test_case "snr" `Quick test_metrics_snr;
         Alcotest.test_case "traces to threshold" `Quick test_traces_to_threshold ]);
      ("properties", List.map Seeded.to_alcotest [ prop_masked_eval_matches_source ]) ]
