(* Tests for the PUF models, their metrics, the modelling attack, and the
   TRNG health-test battery. *)

module Rng = Eda_util.Rng
module Arbiter = Puf.Arbiter
module Ro = Puf.Ro_puf
module Trng = Rng_gen.Trng
module Health = Rng_gen.Health

let test_arbiter_deterministic_without_noise () =
  let rng = Rng.create 1 in
  let puf = Arbiter.manufacture rng ~noise_sigma:0.0 ~stages:32 () in
  let ch = Arbiter.random_challenge rng puf in
  let r1 = Arbiter.response rng puf ch in
  for _ = 1 to 20 do
    Alcotest.(check bool) "stable" r1 (Arbiter.response rng puf ch)
  done

let test_arbiter_uniformity () =
  let rng = Rng.create 2 in
  let puf = Arbiter.manufacture rng ~stages:64 () in
  let u = Arbiter.uniformity rng puf ~challenges:4000 in
  Alcotest.(check bool) "near 0.5" true (Float.abs (u -. 0.5) < 0.1)

let test_arbiter_reliability_degrades_with_noise () =
  let rng = Rng.create 3 in
  let quiet = Arbiter.manufacture rng ~noise_sigma:0.01 ~stages:64 () in
  let noisy = Arbiter.manufacture rng ~noise_sigma:1.5 ~stages:64 () in
  let r_quiet = Arbiter.reliability rng quiet ~challenges:150 ~remeasurements:7 in
  let r_noisy = Arbiter.reliability rng noisy ~challenges:150 ~remeasurements:7 in
  Alcotest.(check bool) "quiet reliable" true (r_quiet > 0.98);
  Alcotest.(check bool) "noise hurts" true (r_noisy < r_quiet)

let test_arbiter_uniqueness () =
  let rng = Rng.create 4 in
  let u = Arbiter.uniqueness rng ~chips:10 ~stages:64 ~challenges:200 in
  Alcotest.(check bool) "near 0.5" true (u > 0.35 && u < 0.65)

let test_variation_improves_reliability () =
  (* The [30]-style layout enhancement: larger per-stage variation makes
     the delay margin dominate noise. *)
  let rng = Rng.create 5 in
  let weak = Arbiter.manufacture rng ~variation:0.2 ~noise_sigma:0.3 ~stages:64 () in
  let strong = Arbiter.manufacture rng ~variation:3.0 ~noise_sigma:0.3 ~stages:64 () in
  let r_weak = Arbiter.reliability rng weak ~challenges:200 ~remeasurements:7 in
  let r_strong = Arbiter.reliability rng strong ~challenges:200 ~remeasurements:7 in
  Alcotest.(check bool) "variation helps" true (r_strong > r_weak)

let test_modeling_attack_learns () =
  let rng = Rng.create 6 in
  let puf = Arbiter.manufacture rng ~noise_sigma:0.02 ~stages:32 () in
  let acc =
    Arbiter.modeling_attack rng puf ~training:2000 ~test:500 ~epochs:30 ~learning_rate:0.05
  in
  Alcotest.(check bool) "ML attack breaks arbiter PUF" true (acc > 0.9)

let test_modeling_attack_needs_data () =
  let rng = Rng.create 7 in
  let puf = Arbiter.manufacture rng ~noise_sigma:0.02 ~stages:64 () in
  let starved =
    Arbiter.modeling_attack rng puf ~training:10 ~test:500 ~epochs:30 ~learning_rate:0.05
  in
  let fed =
    Arbiter.modeling_attack rng puf ~training:3000 ~test:500 ~epochs:30 ~learning_rate:0.05
  in
  Alcotest.(check bool) "more CRPs, better model" true (fed > starved)

let test_ro_puf_metrics () =
  let rng = Rng.create 8 in
  let puf = Ro.manufacture rng ~oscillators:64 () in
  let rel = Ro.reliability rng puf ~remeasurements:11 in
  Alcotest.(check bool) "reliable" true (rel > 0.9);
  let u = Ro.uniqueness rng ~chips:10 ~oscillators:64 in
  Alcotest.(check bool) "unique" true (u > 0.35 && u < 0.65)

let test_trng_unbiased_passes () =
  let rng = Rng.create 9 in
  let src = Trng.create rng in
  let bits = Trng.bits src 4096 in
  Alcotest.(check bool) "healthy source passes" true (Health.all_pass bits)

let test_trng_biased_fails_monobit () =
  let rng = Rng.create 10 in
  let src = Trng.create ~bias:0.7 rng in
  let bits = Trng.bits src 4096 in
  let v = Health.monobit bits in
  Alcotest.(check bool) "monobit fails" false v.Health.pass

let test_trng_correlated_fails_runs () =
  let rng = Rng.create 11 in
  let src = Trng.create ~correlation:0.8 rng in
  let bits = Trng.bits src 4096 in
  let v = Health.runs bits in
  Alcotest.(check bool) "runs fails" false v.Health.pass

let test_trng_stuck_fails_everything () =
  let src = Trng.stuck true in
  let bits = Trng.bits src 1024 in
  Alcotest.(check bool) "stuck source rejected" false (Health.all_pass bits)

let test_online_monitor () =
  let rng = Rng.create 12 in
  let healthy = Trng.create rng in
  let alarms_ok = Health.online_monitor healthy ~window:1024 ~windows:20 in
  Alcotest.(check bool) "few false alarms" true (alarms_ok <= 2);
  let broken = Trng.create ~bias:0.8 (Rng.create 13) in
  let alarms_bad = Health.online_monitor broken ~window:1024 ~windows:20 in
  Alcotest.(check bool) "bias alarms" true (alarms_bad >= 18)

let test_poker_uniformish () =
  let rng = Rng.create 14 in
  let src = Trng.create rng in
  let v = Health.poker (Trng.bits src 4096) in
  Alcotest.(check bool) "poker passes healthy" true v.Health.pass

let prop_encode_features_pm_one =
  QCheck.Test.make ~name:"arbiter features are +-1 parities" ~count:50
    QCheck.(array_of_size (QCheck.Gen.return 16) bool)
    (fun challenge ->
      let phi = Arbiter.features challenge in
      Array.for_all (fun x -> x = 1.0 || x = -1.0) phi
      && phi.(15) = (if challenge.(15) then -1.0 else 1.0))

let () =
  Alcotest.run "puf_rng"
    [ ("arbiter",
       [ Alcotest.test_case "deterministic" `Quick test_arbiter_deterministic_without_noise;
         Alcotest.test_case "uniformity" `Quick test_arbiter_uniformity;
         Alcotest.test_case "noise vs reliability" `Quick test_arbiter_reliability_degrades_with_noise;
         Alcotest.test_case "uniqueness" `Quick test_arbiter_uniqueness;
         Alcotest.test_case "variation enhancement" `Quick test_variation_improves_reliability ]);
      ("modeling_attack",
       [ Alcotest.test_case "learns the puf" `Quick test_modeling_attack_learns;
         Alcotest.test_case "needs data" `Quick test_modeling_attack_needs_data ]);
      ("ro_puf", [ Alcotest.test_case "metrics" `Quick test_ro_puf_metrics ]);
      ("trng",
       [ Alcotest.test_case "healthy passes" `Quick test_trng_unbiased_passes;
         Alcotest.test_case "bias detected" `Quick test_trng_biased_fails_monobit;
         Alcotest.test_case "correlation detected" `Quick test_trng_correlated_fails_runs;
         Alcotest.test_case "stuck detected" `Quick test_trng_stuck_fails_everything;
         Alcotest.test_case "online monitor" `Quick test_online_monitor;
         Alcotest.test_case "poker" `Quick test_poker_uniformish ]);
      ("properties", List.map Seeded.to_alcotest [ prop_encode_features_pm_one ]) ]
