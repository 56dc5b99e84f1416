(* Experiment harness: regenerates every table and figure of the paper
   (Knechtel et al., DATE 2020) in measurable form, plus the Sec. IV
   composition/step-function experiments, attack/defense curves and
   ablations. Performance lives elsewhere: perfbench/ is the end-to-end
   harness, and test/ holds the differential oracles.

   Run everything:        dune exec bench/main.exe
   Run one section:       dune exec bench/main.exe -- fig2
   Sections: table1 table2 fig1 fig2 composition stepfn curves ablations *)

module Rng = Eda_util.Rng
module Circuit = Netlist.Circuit
module Gen = Netlist.Generators
module Masking = Synth.Masking

let banner title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

(* Bench workloads feed the flow structurally valid netlists; an Error
   here is a harness bug, not a measurement. *)
let flow_ok = function
  | Ok r -> r
  | Error e -> failwith (Eda_util.Eda_error.to_string e)

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
  let masked = Masking.transform (Sidechannel.Leakage.private_and_source ()) in
  let flowed = flow_ok (F.run rng masked.Masking.circuit) in
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
  let crossing t note = if t > Sidechannel.Tvla.threshold then note else "no wire crosses 4.5" in
  Printf.printf "  unaware: wire %-12s |t| = %6.1f  (%s)\n" wire_u t_u
    (crossing t_u "the a3*(b) wire of Fig. 2");
  Printf.printf "  aware  : wire %-12s |t| = %6.1f  (%s)\n" wire_a t_a
    (crossing t_a "crosses 4.5: the order barriers did not hold");
  subbanner "model-accuracy study (Sec. III-E): does the verdict depend on the simulation model?";
  Printf.printf
    "  The paper asks how accurate timing/power models must be for reliable\n\
     leakage prediction. The same AWARE netlist, assessed under different\n\
     pre-silicon models (4000 traces/class):\n";
  let cfg = { Power.Model.time_bins = 16; bin_width_ps = 50.0; noise_sigma = 0.2 } in
  let report name r =
    Printf.printf "  %-46s max|t| = %6.2f  %s\n" name r.Sidechannel.Tvla.max_abs_t
      (if Sidechannel.Tvla.leaks r then "LEAKS" else "passes")
  in
  let hw = L.tvla_campaign rng aware ~traces_per_class:4000 ~noise_sigma:0.3 in
  report "Hamming weight, settled state" hw;
  let nominal = L.tvla_campaign_glitch rng aware ~traces_per_class:4000 ~config:cfg in
  report "event-driven, nominal delays" nominal;
  let late =
    L.tvla_campaign_glitch ~mask_skew_ps:400.0 rng aware ~traces_per_class:4000 ~config:cfg
  in
  report "event-driven, mask refresh 400 ps late" late;
  let stuck = L.tvla_campaign_mask_failure rng aware ~traces_per_class:4000 ~noise_sigma:0.3 in
  report "mask source failed (stuck TRNG, [41]'s case)" stuck;
  match List.sort_uniq compare (List.map Sidechannel.Tvla.leaks [ hw; nominal; late; stuck ]) with
  | [ leaks ] ->
    Printf.printf
      "  -> every model %s at 4000 traces/class: here the verdict does not\n\
       depend on the model, but a flow that simulates only one cannot know that.\n"
      (if leaks then "LEAKS" else "passes")
  | _ ->
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
      let masked = Masking.transform ~shares (Sidechannel.Leakage.private_and_source ()) in
      let secure =
        Sidechannel.Isw.rebind masked
          (Synth.Pipeline.run_recipe "optimize_secure" masked.Masking.circuit)
      in
      let r = Sidechannel.Leakage.tvla_campaign rng secure ~traces_per_class:4000 ~noise_sigma:0.3 in
      let area = (Circuit.stats secure.Masking.circuit).Circuit.area in
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
    let masked = Masking.transform ~shares (Sidechannel.Leakage.private_and_source ()) in
    let batch = Sidechannel.Leakage.hw_collect masked ~noise_sigma:0.1 in
    let o1, o2 = Sidechannel.Tvla.campaign_orders rng ~traces_per_class:6000 ~batch in
    Printf.printf "  %-16s %8.1f %10d %14.2f %14.2f\n" name
      (Circuit.stats masked.Masking.circuit).Circuit.area
      (Array.length masked.Masking.random_inputs)
      o1.Sidechannel.Tvla.max_abs_t o2.Sidechannel.Tvla.max_abs_t
  in
  report_masked "ISW 2 shares" 2;
  report_masked "ISW 3 shares" 3;
  List.iter
    (fun shares ->
      let dom = Masking.pipelined ~shares (Sidechannel.Leakage.private_and_source ()) in
      Printf.printf "  %-16s %8.1f %10d %14s %14s   (+%d regs, %d-cycle latency)\n"
        (Printf.sprintf "DOM %d shares" shares) (Circuit.stats dom.Masking.circuit).Circuit.area
        (Array.length dom.Masking.random_inputs) "-" "-" (Circuit.num_dffs dom.Masking.circuit)
        dom.Masking.latency)
    [ 2; 3 ];
  let dual = Sidechannel.Wddl.transform (Sidechannel.Leakage.private_and_source ()) in
  let collect stream cls =
    let a, b =
      match cls with
      | `Fixed -> true, true
      | `Random -> Rng.bool stream, Rng.bool stream
    in
    [| Sidechannel.Wddl.power_sample stream dual ~noise_sigma:0.1 ~values:[ ("a", a); ("b", b) ] |]
  in
  let w1, w2 =
    Sidechannel.Tvla.campaign_orders rng ~traces_per_class:6000
      ~batch:(Sidechannel.Tvla.per_trace collect)
  in
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
    (Locking.Watermark.verify_functional fm
       (Synth.Pipeline.run_recipe "optimize" fm.Locking.Watermark.f_circuit));

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

let sections =
  [ ("table1", table1); ("table2", table2); ("fig1", fig1); ("fig2", fig2);
    ("composition", composition); ("stepfn", stepfn); ("curves", curves); ("ablations", ablations) ]

let () =
  let args =
    match Array.to_list Sys.argv with
    | _ :: rest -> rest
    | [] -> []
  in
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
