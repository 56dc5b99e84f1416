(* Experiment harness: regenerates every table and figure of the paper
   (Knechtel et al., DATE 2020) in measurable form, plus the Sec. IV
   composition/step-function experiments and Bechamel micro-benchmarks.

   Run everything:        dune exec bench/main.exe
   Run one section:       dune exec bench/main.exe -- fig2
   Sections: table1 table2 fig1 fig2 composition stepfn curves ablations micro perf

   The perf section additionally writes BENCH_perf.json — a machine-readable
   report built from the telemetry counters the engines emit, including a
   before/after comparison of the allocation-free SAT and simulation hot
   paths against the retained reference implementations. Pass --smoke
   (with perf) to shrink the comparison workloads for CI. *)

module Rng = Eda_util.Rng
module Circuit = Netlist.Circuit
module Gen = Netlist.Generators

let banner title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

(* Bench workloads feed the flow structurally valid netlists; an Error
   here is a harness bug, not a measurement. *)
let flow_ok = function
  | Ok r -> r
  | Error e -> failwith (Eda_util.Eda_error.to_string e)

(* Domain-count cap for the pool speedup sweep (perf section): -j N. *)
let jobs = ref (Eda_util.Pool.default_jobs ())

let subbanner title = Printf.printf "\n--- %s ---\n" title

(* ------------------------------------------------------------------ *)
(* Table I: security threats and the roles of EDA.                     *)
(* ------------------------------------------------------------------ *)

let table1 () =
  banner "TABLE I — Security threats for ICs and related roles of EDA";
  Printf.printf
    "Each row of the paper's Table I, regenerated: the threat, when it\n\
     strikes, and a live evaluation + mitigation measurement from this\n\
     toolkit.\n";
  let rng = Rng.create 1001 in
  List.iter
    (fun row ->
      let module T = Secure_eda.Threat_model in
      Printf.printf "\n%-28s | attack time: %s\n" (T.name row.T.vector)
        (String.concat ", " (List.map T.time_name row.T.times));
      Printf.printf "  roles of EDA : %s\n"
        (String.concat "; " (List.map T.role_name row.T.roles));
      Printf.printf "  evaluation   : %s\n" row.T.toolkit_evaluation;
      Printf.printf "  mitigation   : %s\n" row.T.toolkit_mitigation;
      (* One live number per vector: attack success unmitigated vs mitigated. *)
      (match row.T.vector with
       | T.Side_channel ->
         let base = Secure_eda.Composition.build Secure_eda.Composition.Baseline in
         let masked = Secure_eda.Composition.build Secure_eda.Composition.Masked in
         let t0 = Secure_eda.Composition.tvla_max_t rng base ~traces_per_class:2000 ~noise_sigma:0.3 in
         let t1 = Secure_eda.Composition.tvla_max_t rng masked ~traces_per_class:2000 ~noise_sigma:0.3 in
         Printf.printf "  measurement  : TVLA max|t| %.1f unprotected -> %.2f masked (thr 4.5)\n" t0 t1
       | T.Fault_injection ->
         let key = Crypto.Aes.random_key rng in
         let ks = Crypto.Aes.expand_key key in
         let bytes, pairs = Fault.Dfa.recover_last_round_key rng ks ~max_pairs_per_byte:40 in
         let plain_ok = Array.for_all (fun b -> b <> None) bytes in
         let infected, _ = Fault.Dfa.recover_with_infection rng ks ~ct_pos:0 ~max_pairs:40 in
         Printf.printf
           "  measurement  : DFA recovers full key = %b (%d faults); vs infective cm: byte %s\n"
           plain_ok pairs
           (if infected = Some ks.(10).(0) then "RECOVERED" else "not recovered")
       | T.Piracy_counterfeiting ->
         let source = Gen.alu 4 in
         let locked = Locking.Lock.epic rng ~key_bits:16 source in
         let r = Locking.Sat_attack.run ~oracle:(Locking.Sat_attack.oracle_of_circuit source) locked in
         let sfll = Locking.Sfll.lock rng ~h:3 (Gen.comparator 7) in
         let r2 =
           Locking.Sat_attack.run ~max_iterations:128
             ~oracle:(Locking.Sat_attack.oracle_of_circuit (Gen.comparator 7)) sfll
         in
         Printf.printf
           "  measurement  : SAT attack breaks EPIC-16 in %d DIPs; SFLL-HD(14,3) holds out ~%dx longer (%d DIPs)\n"
           r.Locking.Sat_attack.iterations
           (r2.Locking.Sat_attack.iterations / max 1 r.Locking.Sat_attack.iterations)
           r2.Locking.Sat_attack.iterations
       | T.Trojans ->
         let clean = Gen.alu 4 in
         let troj = Trojan.Insert.insert rng ~trigger_width:2 ~patterns:2048 clean in
         let rare = Trojan.Insert.rare_conditions rng ~patterns:2048 ~count:10 clean in
         let pats = Trojan.Detect.mero_patterns rng ~n_detect:24 ~rare ~max_patterns:8000 clean in
         let hit = Trojan.Detect.functional_detect clean troj pats in
         Printf.printf "  measurement  : MERO N=24 exposes inserted Trojan = %b (%d patterns)\n"
           hit (List.length pats)))
    Secure_eda.Threat_model.table

(* ------------------------------------------------------------------ *)
(* Table II: the scheme-per-cell matrix, executed.                     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  banner "TABLE II — Security schemes suitable for incorporation into EDA tools";
  Printf.printf
    "Every populated (design stage x threat) cell of the paper's Table II,\n\
     backed by a live run of the corresponding scheme in this toolkit.\n";
  let rng = Rng.create 2020 in
  let module R = Secure_eda.Scheme_registry in
  List.iter
    (fun stage ->
      subbanner (R.stage_name stage);
      List.iter
        (fun cell ->
          if cell.R.stage = stage then begin
            Printf.printf "  [%s]\n" (Secure_eda.Threat_model.name cell.R.threat);
            Printf.printf "    scheme : %s\n" cell.R.scheme;
            Printf.printf "    impl   : %s\n" cell.R.modules;
            Printf.printf "    result : %s\n" (cell.R.run rng)
          end)
        R.table)
    R.all_stages

(* ------------------------------------------------------------------ *)
(* Fig. 1: the classical EDA flow, and its security obliviousness.     *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  banner "FIG. 1 — Classical EDA flow (RTL -> synthesis -> PnR -> verify -> test)";
  let rng = Rng.create 31415 in
  let module F = Secure_eda.Flow in
  let run_design name circuit =
    subbanner (Printf.sprintf "design: %s" name);
    let report = flow_ok (F.run rng circuit) in
    Printf.printf "  %-28s %10s %12s %10s %10s\n" "stage" "area" "delay(ps)" "WL" "coverage";
    List.iter
      (fun sr ->
        Printf.printf "  %-28s %10.1f %12.1f %10s %10s   %s\n" (F.stage_name sr.F.stage)
          sr.F.area sr.F.delay_ps
          (match sr.F.wirelength with Some w -> string_of_int w | None -> "-")
          (match sr.F.fault_coverage with Some c -> Printf.sprintf "%.0f%%" (100.0 *. c) | None -> "-")
          sr.F.note)
      report.F.stages
  in
  run_design "c17" (Gen.c17 ());
  run_design "ripple_adder(8)" (Gen.ripple_adder 8);
  run_design "alu(4)" (Gen.alu 4);
  run_design "kogge_stone(8)" (Gen.kogge_stone_adder 8);
  run_design "multiplier(4)" (Gen.array_multiplier 4);
  subbanner "the flow is security-oblivious";
  (* 1. It destroys masked logic (quantified in the fig2 section). *)
  let masked = Sidechannel.Isw.transform (Sidechannel.Leakage.private_and_source ()) in
  let flowed = flow_ok (F.run rng masked.Sidechannel.Isw.circuit) in
  let rebound = Sidechannel.Isw.rebind masked flowed.F.final in
  let r = Sidechannel.Leakage.tvla_campaign rng rebound ~traces_per_class:3000 ~noise_sigma:0.3 in
  Printf.printf
    "  masked AND pushed through the classical flow: TVLA max|t| = %.1f (was < 4.5 before the flow)\n"
    r.Sidechannel.Tvla.max_abs_t;
  (* 2. It leaves locking keys recoverable (no notion of key secrecy). *)
  let source = Gen.alu 4 in
  let locked = Locking.Lock.epic rng ~key_bits:16 source in
  let attack = Locking.Sat_attack.run ~oracle:(Locking.Sat_attack.oracle_of_circuit source) locked in
  Printf.printf
    "  EPIC-locked ALU after the flow: key recovered by SAT attack in %d DIPs (success = %b)\n"
    attack.Locking.Sat_attack.iterations
    (Locking.Sat_attack.recovered_key_correct locked ~original:source attack)

(* ------------------------------------------------------------------ *)
(* Fig. 2: the motivational example.                                   *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  banner "FIG. 2 — Private circuit vs security-unaware logic synthesis";
  let rng = Rng.create 42 in
  let module L = Sidechannel.Leakage in
  let aware = L.synthesize_masked L.Security_aware in
  let unaware = L.synthesize_masked L.Security_unaware in
  Printf.printf
    "Target: ISW-masked AND (3 shares). Security-aware synthesis keeps the\n\
     prescribed XOR accumulation order; the classical flow re-associates\n\
     (factoring-friendly grouping), recreating a_3*(b1^b2^b3) on a wire.\n";
  subbanner "functional equivalence (both variants compute a AND b)";
  let check masked =
    let ok = ref true in
    for _ = 1 to 200 do
      let a = Rng.bool rng and b = Rng.bool rng in
      match Sidechannel.Isw.eval rng masked ~values:[ ("a", a); ("b", b) ] with
      | [ (_, y) ] -> if y <> (a && b) then ok := false
      | _ -> ok := false
    done;
    !ok
  in
  Printf.printf "  aware: %b   unaware: %b\n" (check aware) (check unaware);
  subbanner "TVLA, fixed-vs-random, HW power model (sigma = 0.3)";
  Printf.printf "  %-12s %14s %14s %10s\n" "traces/class" "aware max|t|" "unaware max|t|" "threshold";
  List.iter
    (fun n ->
      let ra = L.tvla_campaign rng aware ~traces_per_class:n ~noise_sigma:0.3 in
      let ru = L.tvla_campaign rng unaware ~traces_per_class:n ~noise_sigma:0.3 in
      Printf.printf "  %-12d %14.2f %14.2f %10.1f %s\n" n ra.Sidechannel.Tvla.max_abs_t
        ru.Sidechannel.Tvla.max_abs_t Sidechannel.Tvla.threshold
        (if Sidechannel.Tvla.leaks ru then "<- unaware LEAKS" else ""))
    [ 250; 500; 1000; 2000; 4000; 8000 ];
  subbanner "the factored wire (per-net fixed-vs-random |t|)";
  let wire_u, t_u = L.leakiest_wire rng unaware ~samples:4000 in
  let wire_a, t_a = L.leakiest_wire rng aware ~samples:4000 in
  Printf.printf "  unaware: wire %-12s |t| = %6.1f  (the a3*(b) wire of Fig. 2)\n" wire_u t_u;
  Printf.printf "  aware  : wire %-12s |t| = %6.1f  (no wire crosses 4.5)\n" wire_a t_a;
  subbanner "model-accuracy study (Sec. III-E): the verdict depends on the simulation model";
  Printf.printf
    "  The paper asks how accurate timing/power models must be for reliable\n\
     leakage prediction. The same AWARE netlist, assessed under different\n\
     pre-silicon models (4000 traces/class):\n";
  let cfg = { Power.Model.time_bins = 16; bin_width_ps = 50.0; noise_sigma = 0.2 } in
  let report name r =
    Printf.printf "  %-46s max|t| = %6.2f  %s\n" name r.Sidechannel.Tvla.max_abs_t
      (if Sidechannel.Tvla.leaks r then "LEAKS" else "passes")
  in
  report "Hamming weight, settled state"
    (L.tvla_campaign rng aware ~traces_per_class:4000 ~noise_sigma:0.3);
  report "event-driven, nominal delays"
    (L.tvla_campaign_glitch rng aware ~traces_per_class:4000 ~config:cfg);
  report "event-driven, mask refresh 400 ps late"
    (L.tvla_campaign_glitch ~mask_skew_ps:400.0 rng aware ~traces_per_class:4000 ~config:cfg);
  report "mask source failed (stuck TRNG, [41]'s case)"
    (L.tvla_campaign_mask_failure rng aware ~traces_per_class:4000 ~noise_sigma:0.3);
  Printf.printf
    "  -> the verdict flips with the model: a flow that only simulates one\n\
     model certifies a circuit whose security rests on timing assumptions.\n"

(* ------------------------------------------------------------------ *)
(* Sec. IV experiment 1: composition cross-effects.                    *)
(* ------------------------------------------------------------------ *)

let composition () =
  banner "SEC. IV — Secure composition: masking x error detection cross-effect";
  Printf.printf
    "The [61] interaction: parity-based error detection XORs the output\n\
     shares of the masked circuit together, materializing the unmasked\n\
     value. Every design point re-evaluated on every metric:\n\n";
  let rng = Rng.create 4242 in
  let m = Secure_eda.Composition.matrix rng ~traces_per_class:4000 ~noise_sigma:0.3 ~injections:300 in
  Printf.printf "  %-18s %14s %18s %10s %12s\n" "design point" "TVLA max|t|" "fault detection" "area" "delay(ps)";
  List.iter
    (fun (point, metrics) ->
      let v name =
        match List.find_opt (fun mt -> mt.Secure_eda.Metric.name = name) metrics with
        | Some mt -> mt.Secure_eda.Metric.value
        | None -> nan
      in
      Printf.printf "  %-18s %14.2f %17.0f%% %10.1f %12.1f%s\n"
        (Secure_eda.Composition.point_name point)
        (v "TVLA max |t|")
        (100.0 *. v "fault detection rate")
        (v "area") (v "delay")
        (match point with
         | Secure_eda.Composition.Masked_and_parity when v "TVLA max |t|" > 4.5 ->
           "   <- SCA re-opened by the FIA countermeasure"
         | Secure_eda.Composition.Baseline | Secure_eda.Composition.Masked
         | Secure_eda.Composition.Parity | Secure_eda.Composition.Masked_and_parity -> ""))
    m

(* ------------------------------------------------------------------ *)
(* Sec. IV experiment 2: step-function security metrics.               *)
(* ------------------------------------------------------------------ *)

let stepfn () =
  banner "SEC. IV — Security metrics are step functions; PPA cost is smooth";
  let rng = Rng.create 777 in
  subbanner "locking: SAT-attack resistance vs key width (attacker budget = 15 DIPs)";
  Printf.printf
    "  The same defender effort (wider keys) buys nothing for EPIC and\n\
     everything for SFLL-HD once a threshold width is crossed — the\n\
     step-function behaviour of Sec. IV.\n";
  Printf.printf "  %-22s %10s %12s %10s %12s\n" "scheme" "key bits" "area" "DIPs" "resisted";
  let sfll_pts = ref [] and area_pts = ref [] in
  List.iter
    (fun key_bits ->
      (* EPIC on a fixed design. *)
      let source = Gen.alu 4 in
      let locked = Locking.Lock.epic rng ~key_bits source in
      let r_epic =
        Locking.Sat_attack.run ~max_iterations:15
          ~oracle:(Locking.Sat_attack.oracle_of_circuit source) locked
      in
      let area_epic = (Circuit.stats locked.Locking.Lock.circuit).Circuit.area in
      area_pts := (Float.of_int key_bits, area_epic) :: !area_pts;
      Printf.printf "  %-22s %10d %12.1f %12d %10b\n" "EPIC (random XOR)" key_bits area_epic
        r_epic.Locking.Sat_attack.iterations
        (r_epic.Locking.Sat_attack.key = None);
      (* SFLL-HD: key width = input width of the protected block. *)
      if key_bits mod 2 = 0 && key_bits >= 4 && key_bits <= 14 then begin
        let src = Gen.comparator (key_bits / 2) in
        let sfll = Locking.Sfll.lock (Rng.create (100 + key_bits)) ~h:2 src in
        let r_sfll =
          Locking.Sat_attack.run ~max_iterations:15
            ~oracle:(Locking.Sat_attack.oracle_of_circuit src) sfll
        in
        let resisted = r_sfll.Locking.Sat_attack.key = None in
        sfll_pts := (Float.of_int key_bits, if resisted then 1.0 else 0.0) :: !sfll_pts;
        Printf.printf "  %-22s %10d %12.1f %12d %10b\n" "SFLL-HD (h=2)" key_bits
          (Circuit.stats sfll.Locking.Lock.circuit).Circuit.area
          r_sfll.Locking.Sat_attack.iterations resisted
      end)
    [ 4; 6; 8; 10; 12; 14 ];
  let shape pts = Secure_eda.Metric.classify_shape (List.rev pts) in
  let shape_name = function Secure_eda.Metric.Step -> "STEP" | Secure_eda.Metric.Smooth -> "smooth" in
  Printf.printf "  shape of SFLL resistance curve: %s; shape of the area curve: %s\n"
    (shape_name (shape !sfll_pts)) (shape_name (shape !area_pts));
  subbanner "masking: TVLA outcome vs number of shares (fixed 4000-trace assessor)";
  Printf.printf "  %-8s %10s %12s %8s\n" "shares" "area" "max|t|" "passes";
  List.iter
    (fun shares ->
      let masked = Sidechannel.Isw.transform ~shares (Sidechannel.Leakage.private_and_source ()) in
      let secure =
        Sidechannel.Isw.rebind masked
          (Synth.Flow.optimize_secure ~protect:Sidechannel.Isw.protected_name
             masked.Sidechannel.Isw.circuit)
      in
      let r = Sidechannel.Leakage.tvla_campaign rng secure ~traces_per_class:4000 ~noise_sigma:0.3 in
      let area = (Circuit.stats secure.Sidechannel.Isw.circuit).Circuit.area in
      Printf.printf "  %-8d %10.1f %12.2f %8b\n" shares area r.Sidechannel.Tvla.max_abs_t
        (not (Sidechannel.Tvla.leaks r)))
    [ 2; 3; 4 ];
  subbanner "unprotected baseline for comparison";
  let base = Secure_eda.Composition.build Secure_eda.Composition.Baseline in
  let t = Secure_eda.Composition.tvla_max_t rng base ~traces_per_class:4000 ~noise_sigma:0.3 in
  Printf.printf "  0 shares (plain AND): max|t| = %.1f\n" t

(* ------------------------------------------------------------------ *)
(* Attack/defense curves (the paper's cited literature shapes).        *)
(* ------------------------------------------------------------------ *)

let curves () =
  banner "CURVES — attack-vs-defense series from the Table II literature";
  let rng = Rng.create 999 in

  subbanner "SAT attack: DIPs vs key width — EPIC falls flat, SFLL-HD scales";
  Printf.printf "  %-22s %10s %10s %10s\n" "scheme" "key bits" "DIPs" "broken";
  List.iter
    (fun key_bits ->
      let source = Gen.alu 4 in
      let locked = Locking.Lock.epic rng ~key_bits source in
      let r =
        Locking.Sat_attack.run ~max_iterations:512
          ~oracle:(Locking.Sat_attack.oracle_of_circuit source) locked
      in
      Printf.printf "  %-22s %10d %10d %10b\n" "EPIC (random XOR)" key_bits
        r.Locking.Sat_attack.iterations
        (r.Locking.Sat_attack.key <> None))
    [ 4; 8; 16; 32 ];
  List.iter
    (fun inputs ->
      let source = Gen.comparator (inputs / 2) in
      let sfll = Locking.Sfll.lock rng ~h:2 source in
      let r =
        Locking.Sat_attack.run ~max_iterations:512
          ~oracle:(Locking.Sat_attack.oracle_of_circuit source) sfll
      in
      Printf.printf "  %-22s %10d %10d %10b\n" "SFLL-HD (h=2)" inputs
        r.Locking.Sat_attack.iterations
        (r.Locking.Sat_attack.key <> None))
    [ 8; 10; 12 ];

  subbanner "sensitization vs SAT attack (generations of locking analysis)";
  Printf.printf "  %-10s %26s %26s\n" "key bits" "sensitization accuracy" "SAT attack";
  List.iter
    (fun key_bits ->
      let src = Gen.alu 4 in
      let locked = Locking.Lock.epic (Rng.create (3000 + key_bits)) ~key_bits src in
      let oracle = Locking.Sat_attack.oracle_of_circuit src in
      let sens = Locking.Sensitization.run ~oracle locked in
      let sat = Locking.Sat_attack.run ~oracle locked in
      Printf.printf "  %-10d %25.0f%% %17d DIPs, %s\n" key_bits
        (100.0 *. Locking.Sensitization.accuracy sens locked)
        sat.Locking.Sat_attack.iterations
        (if Locking.Sat_attack.recovered_key_correct locked ~original:src sat then "exact"
         else "failed"))
    [ 4; 8; 16; 24 ];
  Printf.printf "  -> interference defeats sensitization but not the SAT attack.\n";

  subbanner "clock-glitch attack vs delay sensor (8-bit ripple adder)";
  let adder = Gen.ripple_adder 8 in
  let prev = Array.make 17 false in
  let next = Array.init 17 (fun i -> i < 8 || i = 16) in
  let periods = [ 1000.0; 900.0; 800.0; 700.0; 600.0; 500.0; 400.0 ] in
  (match Fault.Glitch_attack.attack_sweep adder ~periods ~prev_inputs:prev ~next_inputs:next with
   | Some p ->
     Printf.printf "  unprotected: faults induced at clock periods <= %.0f ps (critical path %.0f)\n"
       p (Timing.Sta.analyze adder).Timing.Sta.critical_path_delay
   | None -> Printf.printf "  unprotected: no faults in the sweep\n");
  let sensor = Fault.Glitch_attack.add_sensor ~margin_ps:60.0 adder in
  let silent, detected, clean =
    Fault.Glitch_attack.sweep_with_sensor sensor ~periods ~prev_inputs:prev ~next_inputs:next
  in
  Printf.printf
    "  with canary sensor (delay %.0f ps): %d silent corruptions, %d detected, %d clean\n"
    sensor.Fault.Glitch_attack.canary_delay_ps silent detected clean;

  subbanner "structural (SAIL-style) attack accuracy";
  let source = Gen.alu 4 in
  let xor_only = Locking.Lock.epic rng ~style:Locking.Lock.Xor_only ~key_bits:24 source in
  let hidden = Locking.Lock.epic rng ~style:Locking.Lock.Polarity_hidden ~key_bits:24 source in
  Printf.printf "  naive attacker on XOR-only locking      : %.0f%%\n"
    (100.0 *. Locking.Structural.accuracy ~strength:Locking.Structural.Naive xor_only);
  Printf.printf "  naive attacker on polarity-hidden       : %.0f%%\n"
    (100.0 *. Locking.Structural.accuracy ~strength:Locking.Structural.Naive hidden);
  Printf.printf "  reconstruction attacker on polarity-hid.: %.0f%%  <- SAIL's point\n"
    (100.0 *. Locking.Structural.accuracy ~strength:Locking.Structural.Local_reconstruction hidden);

  subbanner "CPA: key-recovery success vs traces (HW model, sigma = 4)";
  let circuit = Crypto.Sbox_circuit.aes_round_datapath () in
  let curve =
    Sidechannel.Cpa.success_rate_curve rng circuit ~key:0xA7
      ~trace_counts:[ 5; 10; 20; 50; 100; 200 ] ~trials:10 ~noise_sigma:4.0
  in
  Printf.printf "  %-10s %10s\n" "traces" "success";
  List.iter (fun (n, s) -> Printf.printf "  %-10d %9.0f%%\n" n (100.0 *. s)) curve;

  subbanner "split manufacturing: netlist recovery vs defense (alu4)";
  let c = Gen.alu 4 in
  let placement = (Physical.Placement.place rng ~moves:20000 c).Physical.Placement.placement in
  let naive = Splitmfg.Split.split_by_length ~feol_threshold:2 placement in
  Printf.printf "  %-34s %10s %10s\n" "configuration" "recovery" "CCR";
  let report name s =
    Printf.printf "  %-34s %9.0f%% %10.2f\n" name
      (100.0 *. Splitmfg.Split.netlist_recovery_rate s)
      (Splitmfg.Split.proximity_attack s)
  in
  report "naive split (threshold 2)" naive;
  report "+ wire lifting 50%" (Splitmfg.Split.lift_wires ~fraction:0.5 naive);
  report "+ wire lifting 100%" (Splitmfg.Split.lift_wires ~fraction:1.0 naive);
  let perturbed = Physical.Placement.perturb rng ~lambda:0.5 ~moves:20000 placement in
  report "+ lifting 100% + placement perturb."
    (Splitmfg.Split.lift_wires ~fraction:1.0
       (Splitmfg.Split.split_by_length ~feol_threshold:2 perturbed));
  Printf.printf "  (random-guess CCR baseline: %.3f; PPA wirelength %d -> %d after perturbation)\n"
    (Splitmfg.Split.random_guess_ccr naive)
    (Physical.Placement.wirelength placement)
    (Physical.Placement.wirelength perturbed);

  subbanner "MERO: Trojan exposure vs N-detect parameter (10 random Trojans)";
  Printf.printf "  %-10s %10s %14s\n" "N" "exposed" "avg patterns";
  List.iter
    (fun n_detect ->
      let exposed = ref 0 and pattern_total = ref 0 in
      for seed = 1 to 10 do
        let rng_t = Rng.create (1000 + seed) in
        let clean = Gen.alu 4 in
        let troj = Trojan.Insert.insert rng_t ~trigger_width:2 ~patterns:2048 clean in
        let rare = Trojan.Insert.rare_conditions rng_t ~patterns:2048 ~count:10 clean in
        let pats = Trojan.Detect.mero_patterns rng_t ~n_detect ~rare ~max_patterns:6000 clean in
        pattern_total := !pattern_total + List.length pats;
        if Trojan.Detect.functional_detect clean troj pats then incr exposed
      done;
      Printf.printf "  %-10d %9d/10 %14d\n" n_detect !exposed (!pattern_total / 10))
    [ 1; 2; 4; 8; 16; 32 ];

  subbanner "path-delay fingerprinting: detection vs Trojan load (alu4, sigma 3%)";
  Printf.printf "  %-16s %8s %8s\n" "extra load (ps)" "TPR" "FPR";
  List.iter
    (fun load ->
      let tp, fp =
        Trojan.Detect.fingerprint_detection rng ~chips:40 ~sigma:0.03 ~extra_load_ps:load
          ~threshold_sigmas:3.0 (Gen.alu 4) ~tapped:[ 20; 25; 30 ]
      in
      Printf.printf "  %-16.1f %7.0f%% %7.0f%%\n" load (100.0 *. tp) (100.0 *. fp))
    [ 1.0; 5.0; 10.0; 25.0; 50.0 ];

  subbanner "scan attack vs secure scan (AES byte datapath, all 256 keys)";
  let plain = Dft.Scan_attack.device () in
  let secure_dev =
    Dft.Scan_attack.device ~protection:(Dft.Scan.Secure (Array.init 8 (fun k -> k mod 3 <> 0))) ()
  in
  Printf.printf "  plain scan : %.0f%% keys recovered\n" (100.0 *. Dft.Scan_attack.success_rate plain);
  Printf.printf "  secure scan: %.0f%% keys recovered (tester still reads state: %b)\n"
    (100.0 *. Dft.Scan_attack.success_rate secure_dev)
    (Dft.Scan_attack.tester_reads_state secure_dev ~key:0x12 = Crypto.Aes.sbox.(0x12));
  (* The same attack on the complete 7.6k-gate AES-128 core: one capture
     leaks the whole 128-bit key. *)
  let full_key = Crypto.Aes.random_key rng in
  Printf.printf "  full AES-128 core, plain scan : 128-bit key recovered in 1 capture = %b\n"
    (Dft.Scan_attack.full_core_attack_succeeds ~key:full_key ());
  Printf.printf "  full AES-128 core, secure scan: key recovered = %b\n"
    (Dft.Scan_attack.full_core_attack_succeeds
       ~protection:(Dft.Scan.Secure (Array.init 128 (fun k -> k mod 3 <> 1)))
       ~key:full_key ());

  subbanner "PUF modelling attack: accuracy vs training CRPs (64-stage arbiter)";
  let puf = Puf.Arbiter.manufacture rng ~noise_sigma:0.02 ~stages:64 () in
  Printf.printf "  %-12s %10s\n" "CRPs" "accuracy";
  List.iter
    (fun crps ->
      let acc =
        Puf.Arbiter.modeling_attack rng puf ~training:crps ~test:500 ~epochs:30 ~learning_rate:0.05
      in
      Printf.printf "  %-12d %9.1f%%\n" crps (100.0 *. acc))
    [ 20; 50; 100; 500; 2000; 8000 ];

  subbanner "TRNG health battery vs source defect";
  Printf.printf "  %-26s %10s %10s %10s %12s\n" "source" "monobit" "runs" "poker" "longest_run";
  List.iter
    (fun (name, src) ->
      let bits = Rng_gen.Trng.bits src 4096 in
      let verdicts = Rng_gen.Health.battery bits in
      Printf.printf "  %-26s" name;
      List.iter (fun v -> Printf.printf " %10s" (if v.Rng_gen.Health.pass then "pass" else "FAIL")) verdicts;
      print_newline ())
    [ ("healthy", Rng_gen.Trng.create (Rng.create 1));
      ("bias 0.6", Rng_gen.Trng.create ~bias:0.6 (Rng.create 2));
      ("correlation 0.5", Rng_gen.Trng.create ~correlation:0.5 (Rng.create 3));
      ("stuck-at-1", Rng_gen.Trng.stuck true) ]

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out, measured head-to-head.*)
(* ------------------------------------------------------------------ *)

let ablations () =
  banner "ABLATIONS — head-to-head comparisons of the design choices";
  let rng = Rng.create 1618 in

  subbanner "hiding (WDDL) vs masking (ISW) on the private AND";
  Printf.printf "  %-16s %8s %10s %14s %14s\n" "scheme" "area" "randoms" "1st-ord |t|" "2nd-ord |t|";
  let report_masked name shares =
    let masked = Sidechannel.Isw.transform ~shares (Sidechannel.Leakage.private_and_source ()) in
    let collect cls =
      let a, b =
        match cls with
        | `Fixed -> true, true
        | `Random -> Rng.bool rng, Rng.bool rng
      in
      [| Sidechannel.Leakage.hw_sample rng masked ~noise_sigma:0.1 ~a ~b |]
    in
    let o1, o2 = Sidechannel.Tvla.campaign_orders ~traces_per_class:6000 ~collect in
    Printf.printf "  %-16s %8.1f %10d %14.2f %14.2f\n" name
      (Circuit.stats masked.Sidechannel.Isw.circuit).Circuit.area
      (Array.length masked.Sidechannel.Isw.random_inputs)
      o1.Sidechannel.Tvla.max_abs_t o2.Sidechannel.Tvla.max_abs_t
  in
  report_masked "ISW 2 shares" 2;
  report_masked "ISW 3 shares" 3;
  List.iter
    (fun shares ->
      let dom = Sidechannel.Dom.transform ~shares (Sidechannel.Leakage.private_and_source ()) in
      let cost = Sidechannel.Dom.cost dom in
      Printf.printf "  %-16s %8.1f %10d %14s %14s   (+%d regs, %d-cycle latency)\n"
        (Printf.sprintf "DOM %d shares" shares) cost.Sidechannel.Dom.area
        cost.Sidechannel.Dom.randoms "-" "-" cost.Sidechannel.Dom.registers
        cost.Sidechannel.Dom.latency)
    [ 2; 3 ];
  let dual = Sidechannel.Wddl.transform (Sidechannel.Leakage.private_and_source ()) in
  let collect cls =
    let a, b =
      match cls with
      | `Fixed -> true, true
      | `Random -> Rng.bool rng, Rng.bool rng
    in
    [| Sidechannel.Wddl.power_sample rng dual ~noise_sigma:0.1 ~values:[ ("a", a); ("b", b) ] |]
  in
  let w1, w2 = Sidechannel.Tvla.campaign_orders ~traces_per_class:6000 ~collect in
  Printf.printf "  %-16s %8.1f %10d %14.2f %14.2f\n" "WDDL"
    (Circuit.stats dual.Sidechannel.Wddl.circuit).Circuit.area 0
    w1.Sidechannel.Tvla.max_abs_t w2.Sidechannel.Tvla.max_abs_t;
  Printf.printf
    "  -> 2-share masking fails at 2nd order; WDDL needs no randomness and\n\
     \     is constant-activity at any order, at ~2x area and half speed.\n";

  subbanner "watermarking: structural vs functional robustness";
  let src = Gen.alu 4 in
  let sm = Locking.Watermark.embed_structural rng ~bits:16 src in
  let fm = Locking.Watermark.embed_functional rng ~bits:16 src in
  let sm_resynth =
    { sm with
      Locking.Watermark.s_circuit =
        Synth.Pass.apply "constant_propagation" sm.Locking.Watermark.s_circuit }
  in
  Printf.printf "  %-34s %12s %18s\n" "scheme" "embedded" "after resynthesis";
  Printf.printf "  %-34s %12s %18s\n" "structural (buffer gadgets)"
    (if Locking.Watermark.structural_intact sm then "16/16" else "-")
    (if Locking.Watermark.structural_intact sm_resynth then "16/16" else "ERASED");
  Printf.printf "  %-34s %12s %15d/16\n" "functional (don't-care minterms)"
    (Printf.sprintf "%d/16"
       (Locking.Watermark.verify_functional fm fm.Locking.Watermark.f_circuit))
    (Locking.Watermark.verify_functional fm (Synth.Flow.optimize fm.Locking.Watermark.f_circuit));

  subbanner "active metering: per-chip activation";
  let metered = Locking.Metering.meter rng ~state_bits:12 (Gen.c17 ()) in
  let activations = ref 0 in
  for _ = 1 to 10 do
    if Locking.Metering.activation_works rng metered ~original:(Gen.c17 ()) then incr activations
  done;
  let id = Array.init 12 (fun _ -> Rng.bool rng) in
  let guesses = ref 0 in
  for _ = 1 to 300 do
    let seq = List.init 24 (fun _ -> Rng.bool rng) in
    if Locking.Metering.is_unlocked metered (Locking.Metering.drive_unlock metered ~power_up_id:id seq)
    then incr guesses
  done;
  Printf.printf "  owner activations: %d/10; random 24-step guesses unlocking: %d/300\n"
    !activations !guesses;

  subbanner "IR-drop sign-off vs activity model (alu4, the model-accuracy trap)";
  let c = Gen.alu 4 in
  let p = (Physical.Placement.place rng ~moves:5000 c).Physical.Placement.placement in
  Printf.printf "  %-12s %12s %14s %10s\n" "activity" "bound" "simulated" "sound";
  List.iter
    (fun activity ->
      let `Bound b, `Worst_simulated w, `Meets_budget _, `Activity_model_sound sound =
        Physical.Ir_drop.verify rng ~vectors:12 ~activity p ~budget:10.0
      in
      Printf.printf "  %-12.1f %12.3f %14.3f %10b\n" activity b w sound)
    [ 0.5; 1.0; 2.0; 3.0 ];

  subbanner "probing shield: coverage vs track overhead";
  Printf.printf "  %-8s %12s %16s\n" "pitch" "coverage r=1" "track overhead";
  List.iter
    (fun pitch ->
      let sh = Physical.Shield.build ~cols:24 ~rows:24 ~pitch ~offset:0 in
      Printf.printf "  %-8d %11.0f%% %15.0f%%\n" pitch
        (100.0 *. Physical.Shield.coverage sh ~r:1)
        (100.0 *. Physical.Shield.track_overhead sh))
    [ 2; 3; 4; 6; 10 ];

  subbanner "technology mapping: generic library vs NAND2+INV vs camo cells";
  Printf.printf "  %-12s %14s %16s %14s\n" "design" "generic area" "NAND2+INV area" "camo-set area";
  List.iter
    (fun (name, c) ->
      let a0 = (Circuit.stats c).Circuit.area in
      let a1 = (Circuit.stats (Synth.Pass.apply "techmap" c)).Circuit.area in
      let a2 =
        (Circuit.stats (Synth.Pass.apply ~params:[ ("target", "camo") ] "techmap" c)).Circuit.area
      in
      Printf.printf "  %-12s %14.1f %16.1f %14.1f\n" name a0 a1 a2)
    [ ("c17", Gen.c17 ()); ("alu4", Gen.alu 4); ("adder8", Gen.ripple_adder 8) ];

  subbanner "timing-driven structure: ripple vs Kogge-Stone adder (STA)";
  Printf.printf "  %-16s %8s %8s %12s\n" "adder (8-bit)" "gates" "depth" "delay (ps)";
  List.iter
    (fun (name, c) ->
      let st = Circuit.stats c in
      Printf.printf "  %-16s %8d %8d %12.1f\n" name st.Circuit.gates (Timing.Sta.depth c)
        (Timing.Sta.analyze c).Timing.Sta.critical_path_delay)
    [ ("ripple", Gen.ripple_adder 8); ("kogge-stone", Gen.kogge_stone_adder 8) ];

  subbanner "design-space exploration: Pareto front over countermeasure combos";
  let all, front = Secure_eda.Explore.run rng ~traces_per_class:2500 ~noise_sigma:0.3 ~injections:150 in
  List.iter
    (fun e ->
      let on_front = List.exists (fun f -> f.Secure_eda.Explore.point = e.Secure_eda.Explore.point) front in
      let area =
        match List.find_opt (fun m -> m.Secure_eda.Metric.name = "area") e.Secure_eda.Explore.metrics with
        | Some m -> m.Secure_eda.Metric.value
        | None -> nan
      in
      Printf.printf "  %-20s area %6.1f  covers {%s}  %s\n"
        (Secure_eda.Composition.point_name e.Secure_eda.Explore.point) area
        (String.concat ", "
           (List.map Secure_eda.Threat_model.name (Secure_eda.Explore.covered_threats e)))
        (if on_front then "ON PARETO FRONT" else "dominated"))
    all;
  Printf.printf
    "  -> the naive \"add both countermeasures\" point is dominated: it pays\n\
     \     masked-area cost yet fails the SCA threshold (the Sec. IV trap).\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  banner "MICRO — Bechamel timings of the toolkit's core operations";
  let open Bechamel in
  let c17 = Gen.c17 () in
  let alu = Gen.alu 4 in
  let sbox = Crypto.Sbox_circuit.aes_sbox () in
  let rng = Rng.create 5 in
  let alu_inputs = Array.init 10 (fun _ -> Rng.bool rng) in
  let sbox_inputs = Crypto.Sbox_circuit.byte_to_bits 0xA5 in
  let masked = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_aware in
  let tests =
    [ Test.make ~name:"sim_alu4" (Staged.stage (fun () -> ignore (Netlist.Sim.eval alu alu_inputs)));
      Test.make ~name:"sim_aes_sbox" (Staged.stage (fun () -> ignore (Netlist.Sim.eval sbox sbox_inputs)));
      Test.make ~name:"sim_word_alu4"
        (Staged.stage
           (let words = Array.make 10 0x5A5A5A5A in
            fun () -> ignore (Netlist.Sim.eval_word alu words)));
      Test.make ~name:"event_sim_alu4"
        (Staged.stage (fun () ->
             ignore
               (Timing.Event_sim.cycle alu ~prev_inputs:(Array.make 10 false)
                  ~next_inputs:(Array.make 10 true))));
      Test.make ~name:"sat_equiv_c17"
        (Staged.stage (fun () -> ignore (Sat.Cnf.check_equivalence c17 c17)));
      Test.make ~name:"synth_optimize_alu4" (Staged.stage (fun () -> ignore (Synth.Flow.optimize alu)));
      Test.make ~name:"power_hw_sample_masked"
        (Staged.stage
           (let r = Rng.create 9 in
            fun () ->
              let vec = Sidechannel.Isw.input_vector r masked ~values:[ ("a", true); ("b", true) ] in
              ignore
                (Power.Model.hamming_weight_sample r masked.Sidechannel.Isw.circuit
                   ~noise_sigma:0.3 ~inputs:vec)));
      Test.make ~name:"sat_attack_epic8_alu4"
        (Staged.stage
           (let r = Rng.create 11 in
            fun () ->
              let source = Gen.alu 4 in
              let locked = Locking.Lock.epic r ~key_bits:8 source in
              ignore
                (Locking.Sat_attack.run ~oracle:(Locking.Sat_attack.oracle_of_circuit source) locked))) ]
  in
  let grouped = Test.make_grouped ~name:"secure_eda" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Printf.printf "  %-36s %16s\n" "benchmark" "time per run";
  let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some (ns :: _) ->
        let pretty =
          if ns > 1e9 then Printf.sprintf "%8.2f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
          else Printf.sprintf "%8.0f ns" ns
        in
        Printf.printf "  %-36s %16s\n" name pretty
      | Some [] | None -> Printf.printf "  %-36s %16s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Telemetry-backed perf report: machine-readable BENCH_perf.json.     *)
(* ------------------------------------------------------------------ *)

(* Reduced workload sizes for CI (--smoke). *)
let smoke = ref false

(* Before/after harness for the allocation-free hot paths: the identical
   workload drives both the production engines and the reference
   implementations retained from before the optimization ([Sat.Solver_ref];
   local copies of the old allocating simulation loops below). *)
module Perf_compare = struct
  module Solver = Sat.Solver
  module Ref = Sat.Solver_ref
  module Gate = Netlist.Gate

  (* Minimal solver interface, so one SAT-attack workload can run against
     either implementation with a bit-identical clause stream. *)
  type ops = {
    new_vars : int -> int;  (* allocate a contiguous block, return first *)
    add_clause : int list -> unit;
    solve : int list -> bool;  (* under assumptions; true = SAT *)
    model : int -> bool;
  }

  let solver_ops s =
    { new_vars = (fun n -> Solver.new_vars s n);
      add_clause = (fun lits -> Solver.add_clause s lits);
      solve = (fun assumptions -> Solver.solve ~assumptions s = Solver.Sat);
      model = (fun v -> Solver.model_value s v) }

  let ref_ops s =
    { new_vars =
        (fun n ->
          let first = Ref.new_var s in
          for _ = 2 to n do
            ignore (Ref.new_var s)
          done;
          first);
      add_clause = (fun lits -> Ref.add_clause s lits);
      solve = (fun assumptions -> Ref.solve ~assumptions s = Ref.Sat);
      model = (fun v -> Ref.model_value s v) }

  let plit v = Solver.lit_of_var v ~sign:true
  let nlit v = Solver.lit_of_var v ~sign:false

  (* Tseitin encoding of a circuit copy; returns the per-node variable
     array. DFFs are treated as free inputs (combinational abstraction,
     same as the production CNF layer). *)
  let encode ops c =
    let n = Circuit.node_count c in
    let base = ops.new_vars n in
    let v i = base + i in
    for i = 0 to n - 1 do
      let nd = Circuit.node c i in
      let f k = v nd.Circuit.fanins.(k) in
      let y = v i in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> ()
      | Gate.Const b -> ops.add_clause [ (if b then plit y else nlit y) ]
      | Gate.Buf ->
        ops.add_clause [ nlit y; plit (f 0) ];
        ops.add_clause [ plit y; nlit (f 0) ]
      | Gate.Not ->
        ops.add_clause [ nlit y; nlit (f 0) ];
        ops.add_clause [ plit y; plit (f 0) ]
      | Gate.And ->
        ops.add_clause [ nlit y; plit (f 0) ];
        ops.add_clause [ nlit y; plit (f 1) ];
        ops.add_clause [ plit y; nlit (f 0); nlit (f 1) ]
      | Gate.Nand ->
        ops.add_clause [ plit y; plit (f 0) ];
        ops.add_clause [ plit y; plit (f 1) ];
        ops.add_clause [ nlit y; nlit (f 0); nlit (f 1) ]
      | Gate.Or ->
        ops.add_clause [ plit y; nlit (f 0) ];
        ops.add_clause [ plit y; nlit (f 1) ];
        ops.add_clause [ nlit y; plit (f 0); plit (f 1) ]
      | Gate.Nor ->
        ops.add_clause [ nlit y; nlit (f 0) ];
        ops.add_clause [ nlit y; nlit (f 1) ];
        ops.add_clause [ plit y; plit (f 0); plit (f 1) ]
      | Gate.Xor ->
        ops.add_clause [ nlit y; plit (f 0); plit (f 1) ];
        ops.add_clause [ nlit y; nlit (f 0); nlit (f 1) ];
        ops.add_clause [ plit y; nlit (f 0); plit (f 1) ];
        ops.add_clause [ plit y; plit (f 0); nlit (f 1) ]
      | Gate.Xnor ->
        ops.add_clause [ plit y; plit (f 0); plit (f 1) ];
        ops.add_clause [ plit y; nlit (f 0); nlit (f 1) ];
        ops.add_clause [ nlit y; nlit (f 0); plit (f 1) ];
        ops.add_clause [ nlit y; plit (f 0); nlit (f 1) ]
      | Gate.Mux ->
        let s = f 0 and d0 = f 1 and d1 = f 2 in
        ops.add_clause [ nlit s; nlit d1; plit y ];
        ops.add_clause [ nlit s; plit d1; nlit y ];
        ops.add_clause [ plit s; nlit d0; plit y ];
        ops.add_clause [ plit s; plit d0; nlit y ]
    done;
    Array.init n (fun i -> v i)

  let xor_var ops a b =
    let t = ops.new_vars 1 in
    ops.add_clause [ nlit t; plit a; plit b ];
    ops.add_clause [ nlit t; nlit a; nlit b ];
    ops.add_clause [ plit t; nlit a; plit b ];
    ops.add_clause [ plit t; plit a; nlit b ];
    t

  let or_var ops ds =
    let t = ops.new_vars 1 in
    List.iter (fun d -> ops.add_clause [ nlit d; plit t ]) ds;
    ops.add_clause (nlit t :: List.map plit ds);
    t

  let tie ops a b =
    ops.add_clause [ nlit a; plit b ];
    ops.add_clause [ plit a; nlit b ]

  let fix ops v b = ops.add_clause [ (if b then plit v else nlit v) ]

  (* The oracle-guided DIP loop of the SAT attack, generic over [ops] —
     structurally the same incremental workload [Locking.Sat_attack] puts
     on the solver (double-encoded miter, growing I/O constraints).
     Returns the number of DIP iterations. *)
  let dip_attack ops ~original (locked : Locking.Lock.locked) =
    let c = locked.Locking.Lock.circuit in
    let vars_a = encode ops c in
    let vars_b = encode ops c in
    let key env = Array.map (fun id -> env.(id)) locked.Locking.Lock.key_inputs in
    let data env = Array.map (fun id -> env.(id)) locked.Locking.Lock.data_inputs in
    let outs env = Array.map (fun o -> env.(o)) (Circuit.output_ids c) in
    Array.iteri (fun k va -> tie ops va (data vars_b).(k)) (data vars_a);
    let diffs =
      Array.to_list
        (Array.mapi (fun k oa -> xor_var ops oa (outs vars_b).(k)) (outs vars_a))
    in
    let miter_on = plit (or_var ops diffs) in
    let iterations = ref 0 in
    while ops.solve [ miter_on ] do
      incr iterations;
      let dip = Array.map ops.model (data vars_a) in
      let response = Netlist.Sim.eval original dip in
      List.iter
        (fun env_keys ->
          let vars_f = encode ops c in
          Array.iteri (fun k v -> fix ops v dip.(k)) (data vars_f);
          Array.iteri (fun k v -> fix ops v response.(k)) (outs vars_f);
          Array.iteri (fun k v -> tie ops v env_keys.(k)) (key vars_f))
        [ key vars_a; key vars_b ]
    done;
    ignore (ops.solve []);  (* final key extraction, as in the real attack *)
    !iterations

  (* The pre-optimization word simulation, verbatim shape: one input-word
     array per pattern batch, one result array per call, one operand array
     per gate ([Gate.eval_word] over [Array.map]). *)
  let eval_all_word_alloc c inputs =
    let values = Array.make (Circuit.node_count c) 0 in
    let next_input = ref 0 in
    for i = 0 to Circuit.node_count c - 1 do
      let nd = Circuit.node c i in
      match nd.Circuit.kind with
      | Gate.Input ->
        values.(i) <- inputs.(!next_input);
        incr next_input
      | Gate.Dff -> values.(i) <- 0
      | k ->
        values.(i) <- Gate.eval_word k (Array.map (fun f -> values.(f)) nd.Circuit.fanins)
    done;
    values

  (* Pre-optimization Hamming weight: the bit-at-a-time loop Stats used
     before the SWAR popcount (same values, 63 iterations per word). *)
  let hamming_weight_loop x =
    let rec loop acc i =
      if i >= 63 then acc else loop (acc + ((x lsr i) land 1)) (i + 1)
    in
    loop 0 0

  let signal_probabilities_alloc rng ~patterns c =
    let ni = Circuit.num_inputs c in
    let words = max 1 ((patterns + 62) / 63) in
    let ones = Array.make (Circuit.node_count c) 0 in
    for _ = 1 to words do
      let inputs =
        (* boxed Int64 draw, as the pre-PR [Rng] forced on every caller *)
        Array.init ni (fun _ -> Int64.to_int (Rng.next_int64 rng))
      in
      let values = eval_all_word_alloc c inputs in
      Array.iteri
        (fun i w -> ones.(i) <- ones.(i) + hamming_weight_loop w)
        values
    done;
    Array.map (fun k -> Float.of_int k /. Float.of_int (words * 63)) ones

  (* CPU time + allocation profile of [f]: (result, seconds, allocated
     words, major-heap words). Allocation accounting rides the same
     [Telemetry.alloc_snapshot] primitive the tracer uses for per-span
     GC deltas, so bench and traces report from one cost model. *)
  let measured f =
    Gc.full_major ();
    let g0 = Eda_util.Telemetry.alloc_snapshot () in
    let t0 = Sys.time () in
    let r = f () in
    let dt = Sys.time () -. t0 in
    let d = Eda_util.Telemetry.alloc_since g0 in
    (r, Float.max dt 1e-9, d.Eda_util.Telemetry.alloc_words,
     d.Eda_util.Telemetry.major_words)

  (* Wrap [ops.solve] so the solver's own search phase is timed and
     GC-profiled apart from the bench-side CNF encoding (which is shared
     verbatim between the two implementations and would otherwise dilute
     the comparison). Returns the wrapped ops plus accumulators. *)
  let instrument_solve ops =
    let seconds = ref 0.0 and allocated = ref 0.0 in
    let solve assumptions =
      let g0 = Eda_util.Telemetry.alloc_snapshot () in
      let t0 = Sys.time () in
      let r = ops.solve assumptions in
      seconds := !seconds +. (Sys.time () -. t0);
      allocated :=
        !allocated +. (Eda_util.Telemetry.alloc_since g0).Eda_util.Telemetry.alloc_words;
      r
    in
    ({ ops with solve }, seconds, allocated)
end

let perf () =
  banner "PERF — telemetry-instrumented engine runs (writes BENCH_perf.json)";
  let module T = Eda_util.Telemetry in
  Printf.printf
    "Each workload runs under an in-memory telemetry sink; the JSON below\n\
     is built from the same spans and counters the JSONL exporter streams.\n";
  (* Overhead of disabled telemetry: with_span with no sink installed must
     stay in the nanoseconds — the no-measurable-slowdown guarantee the
     engines rely on to keep instrumentation always-on. *)
  let iterations = 1_000_000 in
  let timed f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let (), span_s =
    timed (fun () ->
        for i = 1 to iterations do
          T.with_span "noop" (fun () -> ignore (Sys.opaque_identity i))
        done)
  in
  let (), base_s =
    timed (fun () ->
        for i = 1 to iterations do
          (fun () -> ignore (Sys.opaque_identity i)) ()
        done)
  in
  let overhead_ns = 1e9 *. (span_s -. base_s) /. Float.of_int iterations in
  Printf.printf "  disabled with_span overhead: %.1f ns/call (%d calls)\n"
    (Float.max 0.0 overhead_ns) iterations;
  (* Representative instrumented workloads, one per engine family.
     [gates] is the node count of the circuit the workload runs on, so
     every JSON row is interpretable as cost-at-size. *)
  let workload name ~gates f =
    let sink, events = T.memory_sink () in
    let (counters, gauges), seconds =
      timed (fun () ->
          T.with_sink sink (fun () ->
              f ();
              (T.counter_totals (), T.gauge_last "atpg.coverage")))
    in
    ignore gauges;
    let spans =
      List.length (List.filter (fun e -> e.T.kind = T.Span_end) (events ()))
    in
    Printf.printf "  %-24s %8.3f s  %4d span(s)\n" name seconds spans;
    T.Json.JObj
      [ ("name", T.Json.JStr name);
        ("gates", T.Json.JInt gates);
        ("seconds", T.Json.JFloat seconds);
        ("spans", T.Json.JInt spans);
        ( "counters",
          T.Json.JObj (List.map (fun (k, v) -> (k, T.Json.JInt v)) counters) ) ]
  in
  let rng = Rng.create 7 in
  let alu = Gen.alu 4 in
  let alu_gates = Netlist.Circuit.node_count alu in
  let rows =
    [ workload "synth_optimize" ~gates:alu_gates (fun () ->
          ignore (Synth.Flow.optimize alu));
      workload "placement_anneal" ~gates:alu_gates (fun () ->
          ignore (Physical.Placement.place rng ~moves:8000 alu));
      workload "atpg" ~gates:alu_gates (fun () -> ignore (Dft.Atpg.run alu));
      workload "sat_attack_epic8" ~gates:alu_gates (fun () ->
          let locked = Locking.Lock.epic rng ~key_bits:8 alu in
          ignore
            (Locking.Sat_attack.run
               ~oracle:(Locking.Sat_attack.oracle_of_circuit alu) locked));
      (let masked =
         Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_aware
       in
       workload "tvla_campaign"
         ~gates:(Netlist.Circuit.node_count masked.Sidechannel.Isw.circuit)
         (fun () ->
           ignore
             (Sidechannel.Leakage.tvla_campaign rng masked ~traces_per_class:1000
                ~noise_sigma:0.3)));
      workload "flow_run" ~gates:alu_gates (fun () ->
          ignore (Secure_eda.Flow.run rng alu)) ]
  in
  (* ---- Before/after: array-based solver core vs reference CDCL ---- *)
  let module P = Perf_compare in
  subbanner "solver core: SAT-attack workload, new vs reference implementation";
  let key_bits = if !smoke then 8 else 20 in
  let reps = if !smoke then 1 else 5 in
  let attack_orig = Gen.alu 4 in
  let attack_locked = Locking.Lock.epic (Rng.create 90210) ~key_bits attack_orig in
  let run_new () =
    let dips = ref 0 and props = ref 0 and learnt_live = ref 0 in
    let solve_s = ref 0.0 and solve_alloc = ref 0.0 in
    let (), dt, allocated, major =
      P.measured (fun () ->
          for _ = 1 to reps do
            let s = Sat.Solver.create () in
            let ops, ss, sa = P.instrument_solve (P.solver_ops s) in
            dips := P.dip_attack ops ~original:attack_orig attack_locked;
            solve_s := !solve_s +. !ss;
            solve_alloc := !solve_alloc +. !sa;
            let st = Sat.Solver.stats s in
            props := !props + st.Sat.Solver.propagations;
            learnt_live := st.Sat.Solver.learnt_live
          done)
    in
    (!dips, !props, !learnt_live, dt, allocated, major, !solve_s, !solve_alloc)
  in
  let run_ref () =
    let dips = ref 0 and props = ref 0 in
    let solve_s = ref 0.0 and solve_alloc = ref 0.0 in
    let (), dt, allocated, major =
      P.measured (fun () ->
          for _ = 1 to reps do
            let s = Sat.Solver_ref.create () in
            let ops, ss, sa = P.instrument_solve (P.ref_ops s) in
            dips := P.dip_attack ops ~original:attack_orig attack_locked;
            solve_s := !solve_s +. !ss;
            solve_alloc := !solve_alloc +. !sa;
            props := !props + (Sat.Solver_ref.stats s).Sat.Solver_ref.propagations
          done)
    in
    (!dips, !props, dt, allocated, major, !solve_s, !solve_alloc)
  in
  let n_dips, n_props, n_learnt, n_dt, n_alloc, n_major, n_ss, n_sa = run_new () in
  let r_dips, r_props, r_dt, r_alloc, r_major, r_ss, r_sa = run_ref () in
  if n_dips <> r_dips then
    Printf.printf "  WARNING: DIP counts differ (new %d, ref %d)\n" n_dips r_dips;
  let sat_speedup = r_dt /. n_dt in
  let sat_alloc_reduction = r_alloc /. Float.max n_alloc 1.0 in
  let solve_speedup = r_ss /. Float.max n_ss 1e-9 in
  let solve_alloc_reduction = r_sa /. Float.max n_sa 1.0 in
  let pps dt props = Float.of_int props /. dt in
  Printf.printf "  %-12s %10s %14s %16s %16s %10s %14s\n" "" "time (s)" "props/sec"
    "alloc words" "major words" "solve (s)" "solve alloc";
  Printf.printf "  %-12s %10.3f %14.0f %16.0f %16.0f %10.3f %14.0f\n" "new" n_dt
    (pps n_dt n_props) n_alloc n_major n_ss n_sa;
  Printf.printf "  %-12s %10.3f %14.0f %16.0f %16.0f %10.3f %14.0f\n" "reference" r_dt
    (pps r_dt r_props) r_alloc r_major r_ss r_sa;
  Printf.printf
    "  EPIC-%d on alu4, %d DIPs x%d: end-to-end speedup %.1fx (alloc %.0fx down);\n\
    \  solve phase alone: speedup %.1fx, allocation reduced %.0fx, learnt DB %d live\n"
    key_bits n_dips reps sat_speedup sat_alloc_reduction solve_speedup
    solve_alloc_reduction n_learnt;
  (* ---- Before/after: zero-alloc bit-parallel simulation ---- *)
  subbanner "simulation: signal_probabilities, new vs allocating baseline";
  let sim_circuit = Gen.kogge_stone_adder 8 in
  let sim_patterns = 63 * (if !smoke then 400 else 4000) in
  let (probs_new, sim_n_dt, sim_n_alloc, sim_n_major) =
    P.measured (fun () ->
        Netlist.Sim.signal_probabilities (Rng.create 424242) ~patterns:sim_patterns sim_circuit)
  in
  let (probs_ref, sim_r_dt, sim_r_alloc, sim_r_major) =
    P.measured (fun () ->
        P.signal_probabilities_alloc (Rng.create 424242) ~patterns:sim_patterns sim_circuit)
  in
  if probs_new <> probs_ref then
    Printf.printf "  WARNING: probability vectors differ between implementations\n";
  let sim_speedup = sim_r_dt /. sim_n_dt in
  let sim_alloc_reduction = sim_r_alloc /. Float.max sim_n_alloc 1.0 in
  let patps dt = Float.of_int sim_patterns /. dt in
  Printf.printf "  %-12s %10s %14s %16s %16s\n" "" "time (s)" "patterns/sec" "alloc words" "major words";
  Printf.printf "  %-12s %10.3f %14.0f %16.0f %16.0f\n" "new" sim_n_dt (patps sim_n_dt) sim_n_alloc sim_n_major;
  Printf.printf "  %-12s %10.3f %14.0f %16.0f %16.0f\n" "reference" sim_r_dt (patps sim_r_dt) sim_r_alloc sim_r_major;
  Printf.printf "  kogge_stone(8), %d patterns: speedup %.1fx, allocation reduced %.0fx\n"
    sim_patterns sim_speedup sim_alloc_reduction;
  (* ---- Before/after: flat event engine vs the record-heap reference ---- *)
  subbanner "event sim: glitch-aware power traces, flat engine vs record-heap reference";
  (* Layered designs at sizes that settle without a storm, plus a 16x16
     array multiplier whose traces hit the storm cap (the capped path).
     Both sides replay the same stimuli and noise seeds; the fingerprint
     covers every sample bit and every storm message. *)
  let ev_cases =
    List.map
      (fun tgt ->
        ( Printf.sprintf "layered_%d" tgt,
          Netlist.Bench_gen.sized ~seed:14 Netlist.Bench_gen.Layered ~target_gates:tgt,
          max 4 ((if !smoke then 100_000 else 400_000) / tgt) ))
      (if !smoke then [ 500 ] else [ 500; 2000; 8000 ])
    @ [ ("c6288_w16_storm", Netlist.Bench_gen.c6288_like ~width:16 (), if !smoke then 3 else 20) ]
  in
  let ev_rows =
    List.map
      (fun (name, c, traces) ->
        let ni = Netlist.Circuit.num_inputs c in
        let stim = Rng.create 2024 in
        let pairs =
          Array.init traces (fun _ ->
              let v () = Array.init ni (fun _ -> Rng.bool stim) in
              let prev = v () in
              (prev, v ()))
        in
        let config = Power.Model.default_config in
        let run trace () =
          Array.mapi
            (fun i (prev_inputs, next_inputs) ->
              match trace (Rng.create i) c ~config ~prev_inputs ~next_inputs with
              | samples -> Ok samples
              | exception Invalid_argument msg -> Error msg)
            pairs
        in
        let fingerprint results =
          let b = Buffer.create 4096 in
          Array.iter
            (function
              | Ok samples ->
                Array.iter (fun x -> Printf.bprintf b "%Lx;" (Int64.bits_of_float x)) samples
              | Error msg -> Printf.bprintf b "!%s;" msg)
            results;
          Digest.to_hex (Digest.string (Buffer.contents b))
        in
        let new_trace rng c ~config ~prev_inputs ~next_inputs =
          Power.Model.trace rng c ~config ~prev_inputs ~next_inputs
        in
        let ref_trace rng c ~config ~prev_inputs ~next_inputs =
          Reference.Event_sim_ref.trace rng c ~config ~prev_inputs ~next_inputs
        in
        (* Event and storm counts come from the engine's own counters, in
           an untimed pass. *)
        let events, storms =
          let sink, _ = T.memory_sink () in
          T.with_sink sink (fun () ->
              ignore (run new_trace ());
              (T.counter_total "event_sim.events", T.counter_total "event_sim.storms"))
        in
        let n_res, n_dt, n_alloc, _ = P.measured (run new_trace) in
        let r_res, r_dt, r_alloc, _ = P.measured (run ref_trace) in
        let fingerprint_match = fingerprint n_res = fingerprint r_res in
        let per_trace w = w /. Float.of_int traces in
        let evps dt = Float.of_int events /. dt and trps dt = Float.of_int traces /. dt in
        let gates = Netlist.Circuit.node_count c in
        Printf.printf
          "  %-15s %6dg %4d traces %9d events %3d storms: new %8.0f ev/s %7.1f tr/s %9.0f w/tr | \
           ref %8.0f ev/s %7.1f tr/s %9.0f w/tr  %4.2fx%s\n"
          name gates traces events storms (evps n_dt) (trps n_dt) (per_trace n_alloc)
          (evps r_dt) (trps r_dt) (per_trace r_alloc) (r_dt /. n_dt)
          (if fingerprint_match then "" else "  [FINGERPRINT MISMATCH]");
        let side dt alloc =
          T.Json.JObj
            [ ("seconds", T.Json.JFloat dt);
              ("events_per_sec", T.Json.JFloat (evps dt));
              ("traces_per_sec", T.Json.JFloat (trps dt));
              ("alloc_words_per_trace", T.Json.JFloat (per_trace alloc)) ]
        in
        T.Json.JObj
          [ ("workload", T.Json.JStr name);
            ("gates", T.Json.JInt gates);
            ("traces", T.Json.JInt traces);
            ("events", T.Json.JInt events);
            ("storms", T.Json.JInt storms);
            ("new", side n_dt n_alloc);
            ("reference", side r_dt r_alloc);
            ("speedup", T.Json.JFloat (r_dt /. n_dt));
            ("alloc_reduction", T.Json.JFloat (r_alloc /. Float.max n_alloc 1.0));
            ("fingerprint_match", T.Json.JBool fingerprint_match) ])
      ev_cases
  in
  (* ---- Domain pool: size-parametrized speedup-vs-domains curves ---- *)
  subbanner
    (Printf.sprintf "domain pool: speedup vs domains (sweep capped at -j %d)" (max 1 !jobs));
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let pool_counts =
    let cap = max 1 !jobs in
    List.sort_uniq compare (1 :: List.filter (fun d -> d <= cap) [ 2; 4; 8 ])
  in
  (* Each sweep runs the identical workload at every domain count (1 =
     no pool, the sequential baseline) and fingerprints the result: the
     engines promise bit-identical answers, so a fingerprint mismatch is
     a determinism bug, reported both on stdout and in the JSON. Each
     workload carries its circuit's gate count so the JSON curves are
     interpretable as speedup-vs-size families. *)
  let pool_sweep name ~gates ~extra run fingerprint =
    let rows =
      List.map
        (fun d ->
          let pool = if d = 1 then None else Some (Eda_util.Pool.create ~num_domains:d ()) in
          let r, dt = wall (fun () -> run pool) in
          Option.iter Eda_util.Pool.shutdown pool;
          (d, dt, fingerprint r))
        pool_counts
    in
    let _, base_dt, base_fp = List.hd rows in
    List.iter
      (fun (d, dt, fp) ->
        Printf.printf "  %-22s %2d domain(s): %8.3f s  speedup %.2fx%s\n"
          (Printf.sprintf "%s/%dg" name gates)
          d dt (base_dt /. dt)
          (if fp = base_fp then "" else "  [RESULT MISMATCH]"))
      rows;
    T.Json.JObj
      ([ ("workload", T.Json.JStr name); ("gates", T.Json.JInt gates) ]
       @ extra
       @ [ ( "deterministic",
             T.Json.JBool (List.for_all (fun (_, _, fp) -> fp = base_fp) rows) );
           ( "curve",
             T.Json.JList
               (List.map
                  (fun (d, dt, _) ->
                    T.Json.JObj
                      [ ("domains", T.Json.JInt d);
                        ("seconds", T.Json.JFloat dt);
                        ("speedup", T.Json.JFloat (base_dt /. dt)) ])
                  rows) ) ])
  in
  (* Deterministic, cost-representative fault subset: shuffle under a
     fixed seed, keep random-testable candidates (their miters are
     satisfiable, so per-fault SAT stays bounded; deep redundant faults
     would serialize the whole sweep behind one pathological proof),
     then stratify the pick by fanout-cone size — sort the candidate
     pool by cone gate count and take evenly spaced ranks. The subset
     then spans the circuit's cone-size distribution at every size, so
     per-fault cost scales with the circuit instead of jumping with the
     luck of the shuffle (the unstratified pick made the 6k-gate sweep
     slower than the 12k one). Returns the picked faults paired with
     their cone gate counts, which the JSON rows record. *)
  let atpg_fault_subset ~seed ~count c =
    let all = Array.of_list (Fault.Model.all_stuck_at_faults c) in
    let frng = Rng.create seed in
    Rng.shuffle frng all;
    let ni = Netlist.Circuit.num_inputs c in
    let pats = List.init 24 (fun _ -> Array.init ni (fun _ -> Rng.bool frng)) in
    let scratch = Array.make (Netlist.Circuit.node_count c) false in
    let cands = ref [] and n = ref 0 and i = ref 0 in
    let cap = 4 * count in
    while !n < cap && !i < Array.length all do
      let f = all.(!i) in
      if List.exists (fun p -> Fault.Model.detects c ~fault:f p) pats then begin
        let cone = Sat.Cnf.fanout_cone_gates ~scratch c ~node:(Fault.Model.node_of f) in
        cands := (f, cone) :: !cands;
        incr n
      end;
      incr i
    done;
    let cands = Array.of_list (List.rev !cands) in
    Array.sort
      (fun (fa, ca) (fb, cb) ->
        compare (ca, Fault.Model.node_of fa, fa) (cb, Fault.Model.node_of fb, fb))
      cands;
    let m = Array.length cands in
    let picked =
      if m <= count then Array.to_list cands
      else List.init count (fun j -> cands.(j * m / count))
    in
    (List.map fst picked, List.map snd picked)
  in
  (* Workload sizes: smoke keeps CI fast with one small size per engine;
     full mode sweeps >= 3 sizes per engine with a 10k+-gate top size. *)
  let atpg_sizes = if !smoke then [ 2000 ] else [ 2000; 6000; 12000 ] in
  let atpg_fault_count = if !smoke then 16 else 32 in
  let tvla_sizes = if !smoke then [ 2000 ] else [ 2000; 8000; 20000 ] in
  let tvla_pairs = if !smoke then 128 else 512 in
  let place_sizes = if !smoke then [ 2000 ] else [ 2000; 8000; 20000 ] in
  let place_moves = if !smoke then 1000 else 4000 in
  let place_starts = 8 in
  let atpg_cases =
    List.map
      (fun tgt ->
        let c = Netlist.Bench_gen.sized ~seed:11 Netlist.Bench_gen.Layered ~target_gates:tgt in
        let faults, cones = atpg_fault_subset ~seed:99 ~count:atpg_fault_count c in
        (c, faults, cones))
      atpg_sizes
  in
  let atpg_rows =
    List.map
      (fun (c, faults, cones) ->
        pool_sweep "atpg_layered"
          ~gates:(Netlist.Circuit.node_count c)
          ~extra:
            [ ("faults", T.Json.JInt (List.length faults));
              ("fault_cones", T.Json.JList (List.map (fun g -> T.Json.JInt g) cones)) ]
          (fun pool -> Dft.Atpg.run ?pool ~faults c)
          (fun r ->
            Printf.sprintf "%.9f/%d" r.Dft.Atpg.coverage (List.length r.Dft.Atpg.patterns)))
      atpg_cases
  in
  let tvla_rows =
    List.map
      (fun tgt ->
        let c = Netlist.Bench_gen.sized ~seed:12 Netlist.Bench_gen.Layered ~target_gates:tgt in
        let ni = Netlist.Circuit.num_inputs c in
        let nodes = Netlist.Circuit.node_count c in
        let collect stream cls =
          let vec =
            Array.init ni (fun _ ->
                match cls with `Fixed -> true | `Random -> Rng.bool stream)
          in
          let scratch = Array.make nodes false in
          [| Power.Model.hamming_weight_sample stream ~scratch c ~noise_sigma:0.5
               ~inputs:vec |]
        in
        pool_sweep "tvla_layered" ~gates:nodes
          ~extra:[ ("trace_pairs", T.Json.JInt tvla_pairs) ]
          (fun pool ->
            Sidechannel.Tvla.campaign_seeded ?pool (Rng.create 5150)
              ~traces_per_class:tvla_pairs ~collect)
          (fun r -> Printf.sprintf "%.12f" r.Sidechannel.Tvla.max_abs_t))
      tvla_sizes
  in
  let place_rows =
    List.map
      (fun tgt ->
        let c = Netlist.Bench_gen.sized ~seed:13 Netlist.Bench_gen.C880 ~target_gates:tgt in
        pool_sweep "placement_c880"
          ~gates:(Netlist.Circuit.node_count c)
          ~extra:
            [ ("starts", T.Json.JInt place_starts); ("moves", T.Json.JInt place_moves) ]
          (fun pool ->
            Physical.Placement.place ~starts:place_starts ~moves:place_moves ?pool
              (Rng.create 2718) c)
          (fun o ->
            Printf.sprintf "%d/%d"
              (Physical.Placement.wirelength o.Physical.Placement.placement)
              o.Physical.Placement.best_start))
      place_sizes
  in
  (* Scheduling-grain microbench: many tiny tasks, chunk 1 vs a coarse
     grain — the overhead the ?chunk parameter exists to amortize. *)
  let grain_tasks = if !smoke then 20_000 else 100_000 in
  let grain_json =
    let inputs = Array.init grain_tasks (fun i -> i) in
    let d = max 1 !jobs in
    let run chunk =
      Eda_util.Pool.with_pool ~num_domains:d (fun p ->
          let (), dt =
            wall (fun () ->
                ignore (Eda_util.Pool.parallel_map ~chunk p ~f:(fun _ x -> x + 1) inputs))
          in
          dt)
    in
    let fine = run 1 in
    let coarse = run (max 1 (grain_tasks / (4 * d))) in
    Printf.printf
      "  pool grain: %d unit tasks at %d domain(s): chunk=1 %.3fs, coarse %.3fs (%.1fx)\n"
      grain_tasks d fine coarse (fine /. Float.max coarse 1e-9);
    T.Json.JObj
      [ ("tasks", T.Json.JInt grain_tasks);
        ("domains", T.Json.JInt d);
        ("chunk1_seconds", T.Json.JFloat fine);
        ("coarse_seconds", T.Json.JFloat coarse);
        ("coarse_speedup", T.Json.JFloat (fine /. Float.max coarse 1e-9)) ]
  in
  (* ---- Incremental vs fresh ATPG: the before/after comparison ---- *)
  subbanner "atpg: incremental sessions vs per-fault fresh solvers";
  (* The pre-incremental ATPG path, kept inline as the reference side: a
     fresh solver + whole clean-circuit re-encode per fault
     ([Cnf.check_stuck_at]) and scalar per-fault pattern simulation —
     exactly what [Dft.Atpg.run]'s persistent sessions and word-parallel
     dropping replaced. Same greedy compaction, so detection statuses
     (and so coverage) must agree with the incremental engine; witness
     patterns may differ. *)
  let atpg_fresh_reference c faults =
    let remaining = ref faults in
    let patterns = ref [] in
    let untestable = ref 0 in
    while !remaining <> [] do
      match !remaining with
      | [] -> ()
      | Fault.Model.Bit_flip _ :: rest -> remaining := rest
      | (Fault.Model.Stuck_at { node; value } as _f) :: rest ->
        (match Sat.Cnf.check_stuck_at c ~node ~value with
         | Sat.Cnf.Equivalent ->
           incr untestable;
           remaining := rest
         | Sat.Cnf.Equiv_unknown _ -> remaining := rest
         | Sat.Cnf.Counterexample p ->
           patterns := p :: !patterns;
           remaining :=
             List.filter (fun g -> not (Fault.Model.detects c ~fault:g p)) rest)
    done;
    (List.rev !patterns, !untestable)
  in
  (* Run a side under an in-memory sink and split its wall time into the
     encode ([cnf.encode] spans) and solve ([sat.solve] spans) phases
     from the trace's span totals. *)
  let measure_atpg_split f =
    let sink, events = T.memory_sink () in
    let r, dt = wall (fun () -> T.with_sink sink f) in
    let totals =
      match T.Trace.of_events (events ()) with
      | Ok tr -> T.Trace.span_totals tr
      | Error _ -> []
    in
    let total name = Option.value (List.assoc_opt name totals) ~default:0.0 in
    (r, dt, total "cnf.encode", total "sat.solve")
  in
  let atpg_cmp_rows =
    List.map
      (fun (c, faults, _cones) ->
        let gates = Netlist.Circuit.node_count c in
        let inc, inc_dt, inc_enc, inc_solve =
          measure_atpg_split (fun () -> Dft.Atpg.run ~faults c)
        in
        let (ref_pats, ref_untestable), ref_dt, ref_enc, ref_solve =
          measure_atpg_split (fun () -> atpg_fresh_reference c faults)
        in
        let total = List.length faults in
        let ref_coverage =
          if total = 0 then 1.0
          else Float.of_int (total - ref_untestable) /. Float.of_int total
        in
        let coverage_match = Float.abs (inc.Dft.Atpg.coverage -. ref_coverage) < 1e-9 in
        let speedup = ref_dt /. Float.max inc_dt 1e-9 in
        Printf.printf
          "  atpg %6dg/%2d faults: fresh %7.3fs (enc %6.3f solve %6.3f) -> \
           incremental %7.3fs (enc %6.3f solve %6.3f)  %5.2fx%s\n"
          gates total ref_dt ref_enc ref_solve inc_dt inc_enc inc_solve speedup
          (if coverage_match then "" else "  [COVERAGE MISMATCH]");
        T.Json.JObj
          [ ("workload", T.Json.JStr "atpg_layered");
            ("gates", T.Json.JInt gates);
            ("faults", T.Json.JInt total);
            ( "new",
              T.Json.JObj
                [ ("seconds", T.Json.JFloat inc_dt);
                  ("encode_seconds", T.Json.JFloat inc_enc);
                  ("solve_seconds", T.Json.JFloat inc_solve);
                  ("patterns", T.Json.JInt (List.length inc.Dft.Atpg.patterns)) ] );
            ( "reference",
              T.Json.JObj
                [ ("seconds", T.Json.JFloat ref_dt);
                  ("encode_seconds", T.Json.JFloat ref_enc);
                  ("solve_seconds", T.Json.JFloat ref_solve);
                  ("patterns", T.Json.JInt (List.length ref_pats)) ] );
            ("speedup", T.Json.JFloat speedup);
            ("coverage_match", T.Json.JBool coverage_match) ])
      atpg_cases
  in
  (* ---- Persistent session vs fresh solvers, SAT phase isolated ----
     The full-engine comparison above can resolve the whole subset in
     its random-pattern bootstrap, leaving the SAT phase idle; this row
     measures the clause-group session machinery on its own. The same
     stuck-at queries run head-order through one persistent
     [Stuck_at_session] and through per-fault fresh [check_stuck_at] —
     no pattern dropping on either side — so the contrast is exactly
     shared-clean-encode + persistent learnts vs a full re-encode and
     cold solver per query. Per-query statuses must agree. *)
  subbanner "sat: persistent session vs per-query fresh solvers";
  let sat_session_rows =
    List.map
      (fun (c, faults, _cones) ->
        let gates = Netlist.Circuit.node_count c in
        let queries =
          List.filter_map
            (function
              | Fault.Model.Stuck_at { node; value } -> Some (node, value)
              | Fault.Model.Bit_flip _ -> None)
            faults
        in
        let fresh_answers = ref [] in
        let (), ref_dt, ref_enc, ref_solve =
          measure_atpg_split (fun () ->
              List.iter
                (fun (node, value) ->
                  let a = Sat.Cnf.check_stuck_at c ~node ~value in
                  fresh_answers := a :: !fresh_answers)
                queries)
        in
        let sess_answers = ref [] in
        let (), sess_dt, sess_enc, sess_solve =
          measure_atpg_split (fun () ->
              let s = Sat.Cnf.Stuck_at_session.create c in
              List.iter
                (fun (node, value) ->
                  let a = Sat.Cnf.Stuck_at_session.query s ~node ~value in
                  sess_answers := a :: !sess_answers)
                queries)
        in
        let status = function
          | Sat.Cnf.Equivalent -> 0
          | Sat.Cnf.Counterexample _ -> 1
          | Sat.Cnf.Equiv_unknown _ -> 2
        in
        let answers_match =
          List.length !fresh_answers = List.length !sess_answers
          && List.for_all2 (fun a b -> status a = status b) !fresh_answers !sess_answers
        in
        let speedup = ref_dt /. Float.max sess_dt 1e-9 in
        Printf.printf
          "  sat  %6dg/%2d queries: fresh %7.3fs (enc %6.3f solve %6.3f) -> \
           session %7.3fs (enc %6.3f solve %6.3f)  %5.2fx%s\n"
          gates (List.length queries) ref_dt ref_enc ref_solve sess_dt sess_enc
          sess_solve speedup
          (if answers_match then "" else "  [ANSWER MISMATCH]");
        T.Json.JObj
          [ ("workload", T.Json.JStr "atpg_layered");
            ("gates", T.Json.JInt gates);
            ("queries", T.Json.JInt (List.length queries));
            ( "session",
              T.Json.JObj
                [ ("seconds", T.Json.JFloat sess_dt);
                  ("encode_seconds", T.Json.JFloat sess_enc);
                  ("solve_seconds", T.Json.JFloat sess_solve) ] );
            ( "reference",
              T.Json.JObj
                [ ("seconds", T.Json.JFloat ref_dt);
                  ("encode_seconds", T.Json.JFloat ref_enc);
                  ("solve_seconds", T.Json.JFloat ref_solve) ] );
            ("speedup", T.Json.JFloat speedup);
            ("answers_match", T.Json.JBool answers_match) ])
      atpg_cases
  in
  let pool_json =
    T.Json.JObj
      [ ("max_domains", T.Json.JInt (List.fold_left max 1 pool_counts));
        ("atpg", T.Json.JList atpg_rows);
        ("tvla", T.Json.JList tvla_rows);
        ("placement", T.Json.JList place_rows);
        ("granularity", grain_json) ]
  in
  let side name seconds throughput alloc major extra =
    ( name,
      T.Json.JObj
        ([ ("seconds", T.Json.JFloat seconds);
           ("throughput_per_sec", T.Json.JFloat throughput);
           ("allocated_words", T.Json.JFloat alloc);
           ("major_words", T.Json.JFloat major) ]
         @ extra) )
  in
  let comparisons =
    T.Json.JObj
      [ ( "sat_attack",
          T.Json.JObj
            [ ("workload", T.Json.JStr (Printf.sprintf "epic%d_alu4_x%d" key_bits reps));
              ( "gates",
                T.Json.JInt
                  (Netlist.Circuit.node_count attack_locked.Locking.Lock.circuit) );
              ("dips", T.Json.JInt n_dips);
              side "new" n_dt (pps n_dt n_props) n_alloc n_major
                [ ("solve_seconds", T.Json.JFloat n_ss);
                  ("solve_allocated_words", T.Json.JFloat n_sa);
                  ("learnt_db_live", T.Json.JInt n_learnt) ];
              side "reference" r_dt (pps r_dt r_props) r_alloc r_major
                [ ("solve_seconds", T.Json.JFloat r_ss);
                  ("solve_allocated_words", T.Json.JFloat r_sa) ];
              ("speedup", T.Json.JFloat sat_speedup);
              ("alloc_reduction", T.Json.JFloat sat_alloc_reduction);
              ("solve_speedup", T.Json.JFloat solve_speedup);
              ("solve_alloc_reduction", T.Json.JFloat solve_alloc_reduction) ] );
        ( "signal_probabilities",
          T.Json.JObj
            [ ("workload", T.Json.JStr "kogge_stone8");
              ("gates", T.Json.JInt (Netlist.Circuit.node_count sim_circuit));
              ("patterns", T.Json.JInt sim_patterns);
              side "new" sim_n_dt (patps sim_n_dt) sim_n_alloc sim_n_major [];
              side "reference" sim_r_dt (patps sim_r_dt) sim_r_alloc sim_r_major [];
              ("speedup", T.Json.JFloat sim_speedup);
              ("alloc_reduction", T.Json.JFloat sim_alloc_reduction) ] );
        ("event_sim", T.Json.JList ev_rows);
        ("atpg_incremental", T.Json.JList atpg_cmp_rows);
        ("sat_session", T.Json.JList sat_session_rows) ]
  in
  let json =
    T.Json.JObj
      [ ("schema", T.Json.JStr "secure_eda_bench_perf/3");
        ("smoke", T.Json.JBool !smoke);
        ("disabled_span_overhead_ns", T.Json.JFloat (Float.max 0.0 overhead_ns));
        ("workloads", T.Json.JList rows);
        ("pool", pool_json);
        ("comparisons", comparisons) ]
  in
  let path = "BENCH_perf.json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (T.Json.to_string json);
      output_char oc '\n');
  Printf.printf "  written %s\n" path

(* ------------------------------------------------------------------ *)

let sections =
  [ ("table1", table1); ("table2", table2); ("fig1", fig1); ("fig2", fig2);
    ("composition", composition); ("stepfn", stepfn); ("curves", curves); ("ablations", ablations);
    ("micro", micro); ("perf", perf) ]

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> rest
    | [] -> []
  in
  let rec strip = function
    | [] -> []
    | "--smoke" :: rest ->
      smoke := true;
      strip rest
    | ("-j" | "--jobs") :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n >= 1 -> jobs := n
       | Some _ | None -> Printf.eprintf "ignoring bad -j value %s\n" n);
      strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip args in
  let requested = if args = [] then List.map fst sections else args in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.printf "unknown section %s (available: %s)\n" name
          (String.concat " " (List.map fst sections)))
    requested;
  Printf.printf "\nAll requested experiment sections completed.\n"
