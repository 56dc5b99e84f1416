(** Table II of the paper as an executable registry: every populated
    (design stage x threat vector) cell maps to a scheme implemented in
    this toolkit together with a runner that produces the cell's native
    metric on a reference workload. The Table II benchmark iterates this
    list; nothing in the printed table is hand-written prose. *)

module Rng = Eda_util.Rng

type stage =
  | High_level_synthesis
  | Logic_synthesis
  | Physical_synthesis
  | Functional_validation
  | Timing_power_verification
  | Testing

let stage_name = function
  | High_level_synthesis -> "High-level synthesis"
  | Logic_synthesis -> "Logic synthesis"
  | Physical_synthesis -> "Physical synthesis"
  | Functional_validation -> "Functional validation"
  | Timing_power_verification -> "Timing/power verification"
  | Testing -> "Testing (ATPG/DFT/BIST)"

let all_stages =
  [ High_level_synthesis; Logic_synthesis; Physical_synthesis;
    Functional_validation; Timing_power_verification; Testing ]

type cell = {
  stage : stage;
  threat : Threat_model.vector;
  scheme : string;  (* the scheme name as in the paper's table *)
  modules : string;  (* implementing toolkit modules *)
  run : Rng.t -> string;  (* compute and render the cell's metric *)
}

(* --- cell runners ------------------------------------------------------ *)

let run_iflow rng =
  let c = Crypto.Sbox_circuit.aes_round_datapath () in
  let secret = List.init 8 (fun i -> 8 + i) in  (* key byte inputs *)
  let leak = Iflow.Qif.average_shannon_leakage rng c ~secret ~samples:4 in
  Printf.sprintf "QIF: S-box output reveals %.2f of 8 secret bits" leak

let run_masking rng =
  let masked = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_aware in
  let r = Sidechannel.Leakage.tvla_campaign rng masked ~traces_per_class:1500 ~noise_sigma:0.3 in
  Printf.sprintf "ISW masking: TVLA max|t| = %.2f (pass < 4.5)" r.Sidechannel.Tvla.max_abs_t

let run_register_flush _rng =
  let graph =
    { Hls.Dataflow.ops =
        [ { Hls.Dataflow.id = 0; kind = Hls.Dataflow.Xor; args = [ -1; -2 ]; sensitivity = Hls.Dataflow.Secret };
          { Hls.Dataflow.id = 1; kind = Hls.Dataflow.Add; args = [ 0; -3 ]; sensitivity = Hls.Dataflow.Secret };
          { Hls.Dataflow.id = 2; kind = Hls.Dataflow.And; args = [ -3; -4 ]; sensitivity = Hls.Dataflow.Public };
          { Hls.Dataflow.id = 3; kind = Hls.Dataflow.Add; args = [ 2; -4 ]; sensitivity = Hls.Dataflow.Public };
          { Hls.Dataflow.id = 4; kind = Hls.Dataflow.Xor; args = [ 1; 3 ]; sensitivity = Hls.Dataflow.Secret } ];
      width = 8 }
  in
  let sched = Hls.Dataflow.schedule ~units:2 graph in
  let exposure = Hls.Dataflow.exposure_without_flush graph sched in
  Printf.sprintf "register flushing removes %d secret register-cycles" exposure

let run_error_detect rng =
  let prot = Fault.Countermeasure.duplicate_protect (Netlist.Generators.ripple_adder 3) in
  let faults = Fault.Model.all_stuck_at_faults prot.Fault.Countermeasure.circuit in
  let d, e, s = Fault.Countermeasure.validate rng prot ~faults ~patterns:32 in
  Printf.sprintf "duplication+compare: %d detected / %d escaped / %d silent" d e s

let run_infective rng =
  let key = Crypto.Aes.random_key rng in
  let ks = Crypto.Aes.expand_key key in
  let recovered, pairs = Fault.Dfa.recover_with_infection rng ks ~ct_pos:0 ~max_pairs:30 in
  let correct = recovered = Some ks.(10).(0) in
  Printf.sprintf "infective vs DFA: key %s after %d faulty pairs"
    (if correct then "RECOVERED (broken)" else "not recovered (defended)")
    pairs

let run_metering rng =
  let p = Puf.Arbiter.manufacture rng ~stages:64 () in
  let q = Puf.Arbiter.quality rng p in
  Printf.sprintf "PUF metering: uniformity %.2f, reliability %.3f"
    q.Puf.Arbiter.uniformity q.Puf.Arbiter.reliability

let run_bisa rng =
  let golden = Trojan.Bisa.fill ~total_sites:1000 ~design_cells:800 in
  let rate = Trojan.Bisa.detection_rate rng ~golden ~max_trojan_cells:20 ~trials:200 in
  Printf.sprintf "BISA self-authentication: %.0f%% insertion detection" (100.0 *. rate)

let run_gate_protection rng =
  let unaware = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_unaware in
  let wire, t = Sidechannel.Leakage.leakiest_wire rng unaware ~samples:1500 in
  Printf.sprintf "unaware resynthesis leaks: wire %s at |t| = %.1f" wire t

let run_fault_analysis rng =
  let c = Netlist.Generators.c17 () in
  let faults = Fault.Model.all_stuck_at_faults c in
  let pats = List.init 8 (fun _ -> Array.init 5 (fun _ -> Rng.bool rng)) in
  let cov = Fault.Model.coverage c ~faults ~patterns:pats in
  Printf.sprintf "automatic fault analysis: %.0f%% of stuck-at faults excited by 8 random patterns" (100.0 *. cov)

let run_camouflage rng =
  let c = Netlist.Generators.c17 () in
  let camo = Camo.Camouflage.apply rng ~cells:4 c in
  let iters, success = Camo.Camouflage.decamouflage camo in
  Printf.sprintf "camouflaging (4 cells): de-camouflaged in %d DIPs (success=%b)" iters success

let run_locking rng =
  let source = Netlist.Generators.alu 4 in
  let locked = Locking.Lock.epic rng ~key_bits:16 source in
  let result = Locking.Sat_attack.run ~oracle:(Locking.Sat_attack.oracle_of_circuit source) locked in
  Printf.sprintf "EPIC 16-bit: SAT attack key recovery in %d DIPs" result.Locking.Sat_attack.iterations

let run_security_monitor rng =
  let clean = Netlist.Generators.alu 4 in
  let troj = Trojan.Insert.insert rng ~trigger_width:3 ~patterns:4096 clean in
  let prob = Trojan.Insert.trigger_probability rng troj ~patterns:20000 in
  Printf.sprintf "monitor insertion point: trigger fires with p = %.5f" prob

let run_tvla rng =
  let unaware = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_unaware in
  let r = Sidechannel.Leakage.tvla_campaign rng unaware ~traces_per_class:1500 ~noise_sigma:0.3 in
  Printf.sprintf "TVLA (layout-level model): max|t| = %.2f (threshold 4.5)" r.Sidechannel.Tvla.max_abs_t

let run_sensors rng =
  let shift = Trojan.Detect.ro_sensor_shift rng ~stages:11 ~sigma:0.03 ~extra_load_ps:8.0 in
  Printf.sprintf "RO sensor: Trojan load shifts period by %.1f sigma" shift

let run_split rng =
  let c = Netlist.Generators.alu 4 in
  let placement = (Physical.Placement.place rng ~moves:6000 c).Physical.Placement.placement in
  let split = Splitmfg.Split.split_by_length ~feol_threshold:2 placement in
  let rec0 = Splitmfg.Split.netlist_recovery_rate split in
  let lifted = Splitmfg.Split.lift_wires ~fraction:1.0 split in
  let rec1 = Splitmfg.Split.netlist_recovery_rate lifted in
  let perturbed = Physical.Placement.perturb rng ~lambda:0.5 ~moves:6000 placement in
  let rec2 =
    Splitmfg.Split.netlist_recovery_rate
      (Splitmfg.Split.lift_wires ~fraction:1.0
         (Splitmfg.Split.split_by_length ~feol_threshold:2 perturbed))
  in
  Printf.sprintf "split mfg netlist recovery: %.2f naive -> %.2f lifted -> %.2f lifted+perturbed"
    rec0 rec1 rec2

let run_entropy rng =
  let weak = Puf.Arbiter.manufacture rng ~variation:0.3 ~noise_sigma:0.15 ~stages:64 () in
  let strong = Puf.Arbiter.manufacture rng ~variation:2.0 ~noise_sigma:0.15 ~stages:64 () in
  let qw = Puf.Arbiter.quality rng weak and qs = Puf.Arbiter.quality rng strong in
  Printf.sprintf "asymmetric layout: PUF reliability %.3f -> %.3f"
    qw.Puf.Arbiter.reliability qs.Puf.Arbiter.reliability

let run_covert rng =
  let success = Iflow.Covert.attack_success rng ~sets:16 ~trials:300 in
  let defended = Iflow.Covert.attack_success_randomized rng ~sets:16 ~trials:300 in
  Printf.sprintf "prime+probe: %.0f%% recovery, %.0f%% with randomized mapping"
    (100.0 *. success) (100.0 *. defended)

let run_validation_error_detect rng =
  let prot = Fault.Countermeasure.parity_protect (Netlist.Generators.ripple_adder 3) in
  let faults = Fault.Model.all_stuck_at_faults prot.Fault.Countermeasure.circuit in
  let d, e, s = Fault.Countermeasure.validate rng prot ~faults ~patterns:32 in
  Printf.sprintf "parity validation finds gaps: %d detected / %d ESCAPED / %d silent" d e s

let run_lock_correctness rng =
  let source = Netlist.Generators.ripple_adder 4 in
  let locked = Locking.Lock.epic rng ~key_bits:8 source in
  let ok = Locking.Lock.verify_correct locked ~original:source = None in
  Printf.sprintf "locked-logic equivalence under correct key: %b" ok

let run_proof_carrying rng =
  let c = Crypto.Sbox_circuit.aes_round_datapath () in
  let secret = List.init 8 (fun i -> 8 + i) in
  let taint = Iflow.Taint.structural c ~sources:(List.map (fun i -> i) secret) in
  let outs = Netlist.Circuit.output_ids c in
  let tainted_outs = Array.for_all (fun o -> taint.(o)) outs in
  ignore rng;
  Printf.sprintf "IFT property check: key taint reaches outputs = %b (as specified)" tainted_outs

let run_presilicon_power rng =
  let masked = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_aware in
  let cfg = { Power.Model.time_bins = 12; bin_width_ps = 40.0; noise_sigma = 0.2 } in
  let r = Sidechannel.Leakage.tvla_campaign_glitch rng masked ~traces_per_class:1500 ~config:cfg in
  Printf.sprintf "glitch-aware pre-silicon TVLA on masked logic: max|t| = %.2f" r.Sidechannel.Tvla.max_abs_t

let run_fault_modeling rng =
  let c = Netlist.Generators.c17 () in
  let flips = List.init 6 (fun k -> Fault.Model.Bit_flip { node = 5 + k }) in
  let pats = List.init 16 (fun _ -> Array.init 5 (fun _ -> Rng.bool rng)) in
  let affected =
    List.length (List.filter snd (Fault.Model.fault_simulation c ~faults:flips ~patterns:pats))
  in
  Printf.sprintf "electrical fault modelling: %d/6 transient sites observable" affected

let run_puf_validation rng =
  let u = Puf.Arbiter.uniqueness rng ~chips:12 ~stages:64 ~challenges:128 in
  Printf.sprintf "PUF sign-off: inter-chip uniqueness %.3f (ideal 0.5)" u

let run_fingerprint rng =
  let c = Netlist.Generators.alu 4 in
  let tapped = [ 20; 25; 30 ] in
  let tp, fp =
    Trojan.Detect.fingerprint_detection rng ~chips:40 ~sigma:0.03 ~extra_load_ps:25.0
      ~threshold_sigmas:3.0 c ~tapped
  in
  Printf.sprintf "path-delay fingerprint: TPR %.0f%%, FPR %.0f%%" (100.0 *. tp) (100.0 *. fp)

let run_scan_attack _rng =
  let plain = Dft.Scan_attack.device () in
  let secure = Dft.Scan_attack.device ~protection:(Dft.Scan.Secure (Array.init 8 (fun k -> k mod 2 = 0))) () in
  let sp = Dft.Scan_attack.success_rate plain in
  let ss = Dft.Scan_attack.success_rate secure in
  Printf.sprintf "scan attack key recovery: %.0f%% plain, %.0f%% secure scan" (100.0 *. sp) (100.0 *. ss)

let run_dfx rng =
  let nat, att = Fault.Discriminate.accuracy rng Fault.Discriminate.default_config ~trials:300 in
  Printf.sprintf "DFX fault discrimination: natural %.0f%%, malicious %.0f%%" (100.0 *. nat) (100.0 *. att)

let run_ip_dfx rng =
  let source = Netlist.Generators.comparator 4 in
  let locked = Locking.Sfll.lock rng ~h:2 source in
  let ok = Locking.Lock.verify_correct locked ~original:source = None in
  Printf.sprintf "DFX-managed key (SFLL-HD h=2): restore correct = %b" ok

let run_mero rng =
  let clean = Netlist.Generators.alu 4 in
  let troj = Trojan.Insert.insert rng ~trigger_width:3 ~patterns:4096 clean in
  let rare = Trojan.Insert.rare_conditions rng ~patterns:4096 ~count:12 clean in
  let pats = Trojan.Detect.mero_patterns rng ~n_detect:8 ~rare ~max_patterns:8000 clean in
  let hit = Trojan.Detect.functional_detect clean troj pats in
  Printf.sprintf "MERO N=8: %d patterns, Trojan exposed = %b" (List.length pats) hit

let run_wddl rng =
  let dual = Sidechannel.Wddl.transform (Sidechannel.Leakage.private_and_source ()) in
  let r = Sidechannel.Wddl.tvla_campaign rng dual ~traces_per_class:2000 ~noise_sigma:0.3 in
  let counts =
    List.map
      (fun (a, b) -> Sidechannel.Wddl.rising_transitions dual ~values:[ ("a", a); ("b", b) ])
      [ (false, false); (true, true) ]
  in
  Printf.sprintf "WDDL hiding: constant %s transitions/cycle, TVLA max|t| = %.2f"
    (String.concat "=" (List.map string_of_int counts))
    r.Sidechannel.Tvla.max_abs_t

let run_watermark rng =
  let src = Netlist.Generators.alu 4 in
  let mark = Locking.Watermark.embed_functional rng ~bits:16 src in
  let resynth = Synth.Pipeline.run_recipe "optimize" mark.Locking.Watermark.f_circuit in
  Printf.sprintf
    "functional watermark: %d/16 bits after hostile resynthesis (false-claim p = 2^-16)"
    (Locking.Watermark.verify_functional mark resynth)

let run_active_metering rng =
  let src = Netlist.Generators.alu 4 in
  let metered = Locking.Metering.meter rng ~state_bits:8 src in
  Printf.sprintf "active metering: owner activates arbitrary chip ID = %b"
    (Locking.Metering.activation_works rng metered ~original:src)

let run_shield rng =
  let c = Netlist.Generators.alu 4 in
  let p = (Physical.Placement.place rng ~moves:3000 c).Physical.Placement.placement in
  let sh =
    Physical.Shield.build ~cols:p.Physical.Placement.cols ~rows:p.Physical.Placement.rows
      ~pitch:2 ~offset:0
  in
  Printf.sprintf "probing shield (pitch 2): %.0f%% coverage at r=1, %.0f%% track overhead"
    (100.0 *. Physical.Shield.coverage sh ~r:1)
    (100.0 *. Physical.Shield.track_overhead sh)

let run_ir_drop rng =
  let c = Netlist.Generators.alu 4 in
  let p = (Physical.Placement.place rng ~moves:3000 c).Physical.Placement.placement in
  let `Bound b, `Worst_simulated w, `Meets_budget _, `Activity_model_sound sound =
    Physical.Ir_drop.verify rng ~vectors:10 p ~budget:10.0
  in
  Printf.sprintf "IR-drop: vectorless bound %.3f vs simulated %.3f (activity model sound = %b)"
    b w sound

let run_upec _rng =
  let c = Netlist.Circuit.create () in
  let x = Netlist.Circuit.add_input ~name:"x" c in
  let secret = Netlist.Circuit.add_dff ~name:"secret" c ~d:0 in
  Netlist.Circuit.connect_dff c secret ~d:secret;
  Netlist.Circuit.set_output c "y"
    (Netlist.Circuit.add_gate c Netlist.Gate.And [ x; secret ]);
  let leak = Sat.Unroll.two_safety_leak c ~frames:2 ~secret_state:[ 0 ] <> None in
  Printf.sprintf "UPEC-style 2-safety BMC: architectural secret leak found = %b" leak

let run_second_order rng =
  let masked = Synth.Masking.transform ~shares:2 (Sidechannel.Leakage.private_and_source ()) in
  let batch = Sidechannel.Leakage.hw_collect masked ~noise_sigma:0.1 in
  let o1, o2 = Sidechannel.Tvla.campaign_orders rng ~traces_per_class:4000 ~batch in
  Printf.sprintf
    "2-share masking: 1st-order |t| = %.1f (passes), 2nd-order |t| = %.1f (FAILS: order matters)"
    o1.Sidechannel.Tvla.max_abs_t o2.Sidechannel.Tvla.max_abs_t

let run_glitch_sensor _rng =
  let adder = Netlist.Generators.ripple_adder 8 in
  let prev = Array.make 17 false in
  let next = Array.init 17 (fun i -> i < 8 || i = 16) in
  let sensor = Fault.Glitch_attack.add_sensor ~margin_ps:60.0 adder in
  let silent, detected, clean =
    Fault.Glitch_attack.sweep_with_sensor sensor
      ~periods:[ 1000.0; 800.0; 700.0; 600.0; 500.0; 400.0 ]
      ~prev_inputs:prev ~next_inputs:next
  in
  Printf.sprintf
    "hidden-delay-fault sensor: clock-glitch sweep -> %d silent / %d detected / %d clean"
    silent detected clean

let run_sensitization rng =
  (* Sparse keys on a small circuit sensitize cleanly; dense keys on the
     same circuit interfere and leave bits unresolved. *)
  let src = Netlist.Generators.c17 () in
  let sparse = Locking.Lock.epic rng ~key_bits:2 src in
  let dense = Locking.Lock.epic rng ~key_bits:6 src in
  let oracle = Locking.Sat_attack.oracle_of_circuit src in
  let acc l = Locking.Sensitization.accuracy (Locking.Sensitization.run ~oracle l) l in
  Printf.sprintf
    "key sensitization [23]: %.0f%% of 2 sparse keys vs %.0f%% of 6 interfering keys"
    (100.0 *. acc sparse) (100.0 *. acc dense)

let run_constrained_synth _rng =
  let tt = Logic.Truth_table.create 4 (fun m -> m mod 3 = 0) in
  let c = Camo.Constrained.synthesize tt in
  Printf.sprintf
    "camouflage-constrained synthesis: 100%% camouflageable = %b, area overhead %.1fx"
    (Camo.Constrained.fully_camouflageable c)
    (Camo.Constrained.constraint_overhead tt)

let run_approx_qif rng =
  let c = Netlist.Generators.ripple_adder 8 in
  let secret = List.init 16 (fun i -> i) in
  let pub = Array.make 17 false in
  let leak = Iflow.Qif.approx_shannon_leakage rng c ~secret ~public_values:pub ~samples:6000 in
  Printf.sprintf
    "approximate QIF [49]: 16-bit secret (exact infeasible) leaks ~%.1f bits through the sum"
    leak

let run_formal_validation _rng =
  let prot = Fault.Countermeasure.duplicate_protect (Netlist.Generators.ripple_adder 2) in
  let `Proven proven, `Escapes escapes, `Harmless harmless = Fault.Formal.audit prot in
  Printf.sprintf
    "formal (SAT) audit of duplication: %d proven detected, %d harmless, %d ESCAPES (all common-mode input faults)"
    proven harmless (List.length escapes)

let run_redundancy _rng =
  let c = Netlist.Circuit.create () in
  let a = Netlist.Circuit.add_input ~name:"a" c in
  let b = Netlist.Circuit.add_input ~name:"b" c in
  let g = Netlist.Circuit.add_gate c Netlist.Gate.And [ a; b ] in
  let y = Netlist.Circuit.add_gate c Netlist.Gate.Or [ a; g ] in
  Netlist.Circuit.set_output c "y" y;
  let before = (Dft.Atpg.run c).Dft.Atpg.coverage in
  let cleaned = Dft.Atpg.remove_redundancy c in
  let after = (Dft.Atpg.run cleaned).Dft.Atpg.coverage in
  Printf.sprintf
    "ATPG-driven redundancy removal: coverage %.0f%% -> %.0f%% (redundancy is where sloppy Trojans hide)"
    (100.0 *. before) (100.0 *. after)

let run_dom rng =
  let dom = Synth.Masking.pipelined ~shares:2 (Sidechannel.Leakage.private_and_source ()) in
  let ok =
    List.for_all
      (fun (a, b) ->
        Sidechannel.Isw.eval rng dom ~values:[ ("a", a); ("b", b) ] = [ ("y", a && b) ])
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  Printf.sprintf
    "DOM [5]: correct=%b, %d random bit(s), %d registers (glitch barrier), latency %d cycle(s)"
    ok (Array.length dom.Synth.Masking.random_inputs)
    (Netlist.Circuit.num_dffs dom.Synth.Masking.circuit) dom.Synth.Masking.latency

(* --- the table --------------------------------------------------------- *)

let table =
  [ { stage = High_level_synthesis; threat = Threat_model.Side_channel;
      scheme = "Information-flow tracking [14]; masking [5]; register flushing";
      modules = "Iflow.Qif, Synth.Masking, Hls.Dataflow"; run = run_iflow };
    { stage = High_level_synthesis; threat = Threat_model.Side_channel;
      scheme = "Integration of masking [5]";
      modules = "Synth.Masking"; run = run_masking };
    { stage = High_level_synthesis; threat = Threat_model.Side_channel;
      scheme = "Domain-oriented masking [5] (register stage)";
      modules = "Synth.Masking"; run = run_dom };
    { stage = High_level_synthesis; threat = Threat_model.Side_channel;
      scheme = "Register flushing";
      modules = "Hls.Dataflow"; run = run_register_flush };
    { stage = High_level_synthesis; threat = Threat_model.Side_channel;
      scheme = "Scalable approximation of QIF [49]";
      modules = "Iflow.Qif.approx_shannon_leakage"; run = run_approx_qif };
    { stage = High_level_synthesis; threat = Threat_model.Fault_injection;
      scheme = "Error-detecting architectures [10]";
      modules = "Fault.Countermeasure"; run = run_error_detect };
    { stage = High_level_synthesis; threat = Threat_model.Fault_injection;
      scheme = "Infective countermeasures [18]";
      modules = "Fault.Dfa, Fault.Countermeasure"; run = run_infective };
    { stage = High_level_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Metering IP incl. PUFs [19]";
      modules = "Puf.Arbiter"; run = run_metering };
    { stage = High_level_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Active hardware metering [19]";
      modules = "Locking.Metering"; run = run_active_metering };
    { stage = High_level_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Constraint-based watermarking [12]";
      modules = "Locking.Watermark"; run = run_watermark };
    { stage = High_level_synthesis; threat = Threat_model.Trojans;
      scheme = "Self-authentication [20]";
      modules = "Trojan.Bisa"; run = run_bisa };
    { stage = Logic_synthesis; threat = Threat_model.Side_channel;
      scheme = "Gate-level protections [21]; identification of leaking gates";
      modules = "Sidechannel.Leakage, Synth.Xor_reassoc"; run = run_gate_protection };
    { stage = Logic_synthesis; threat = Threat_model.Side_channel;
      scheme = "WDDL dual-rail hiding [21]";
      modules = "Sidechannel.Wddl"; run = run_wddl };
    { stage = Logic_synthesis; threat = Threat_model.Fault_injection;
      scheme = "Automatic fault analysis [22]";
      modules = "Fault.Model"; run = run_fault_analysis };
    { stage = Logic_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Camouflaging [23]";
      modules = "Camo.Camouflage"; run = run_camouflage };
    { stage = Logic_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Camouflage-constrained synthesis (Sec. III-B)";
      modules = "Camo.Constrained, Logic.Qmc"; run = run_constrained_synth };
    { stage = Logic_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Key-sensitization analysis of obfuscation [23]";
      modules = "Locking.Sensitization"; run = run_sensitization };
    { stage = Logic_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Logic locking [24]";
      modules = "Locking.Lock, Locking.Sat_attack"; run = run_locking };
    { stage = Logic_synthesis; threat = Threat_model.Trojans;
      scheme = "Automatic insertion of security monitors [25]";
      modules = "Trojan.Insert (rare-net analysis)"; run = run_security_monitor };
    { stage = Physical_synthesis; threat = Threat_model.Side_channel;
      scheme = "Low-level leakage analysis (TVLA [16])";
      modules = "Sidechannel.Tvla, Power.Model"; run = run_tvla };
    { stage = Physical_synthesis; threat = Threat_model.Fault_injection;
      scheme = "Embedding sensors [9], [26]; shielding [29]";
      modules = "Trojan.Detect (RO sensors)"; run = run_sensors };
    { stage = Physical_synthesis; threat = Threat_model.Fault_injection;
      scheme = "Shielding against optical/probing attacks [29]";
      modules = "Physical.Shield"; run = run_shield };
    { stage = Physical_synthesis; threat = Threat_model.Fault_injection;
      scheme = "Hidden-delay-fault sensor [9]";
      modules = "Fault.Glitch_attack"; run = run_glitch_sensor };
    { stage = Physical_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Split manufacturing [27], [53], [54]";
      modules = "Splitmfg.Split, Physical.Placement"; run = run_split };
    { stage = Physical_synthesis; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Entropy primitives [30]";
      modules = "Puf.Arbiter (variation knob)"; run = run_entropy };
    { stage = Physical_synthesis; threat = Threat_model.Trojans;
      scheme = "Embedding sensors [26]";
      modules = "Trojan.Detect"; run = run_sensors };
    { stage = Functional_validation; threat = Threat_model.Side_channel;
      scheme = "Identification of architectural covert channels [31]";
      modules = "Iflow.Covert"; run = run_covert };
    { stage = Functional_validation; threat = Threat_model.Side_channel;
      scheme = "Unique-program-execution checking [31] (2-safety BMC)";
      modules = "Sat.Unroll"; run = run_upec };
    { stage = Functional_validation; threat = Threat_model.Fault_injection;
      scheme = "Validation of error-detection properties [32]";
      modules = "Fault.Countermeasure.validate"; run = run_validation_error_detect };
    { stage = Functional_validation; threat = Threat_model.Fault_injection;
      scheme = "Formal robustness analysis via BMC [32]";
      modules = "Fault.Formal"; run = run_formal_validation };
    { stage = Functional_validation; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Correctness of locked logic; de-obfuscation attacks [33]";
      modules = "Locking.Lock.verify_correct, Sat.Cnf"; run = run_lock_correctness };
    { stage = Functional_validation; threat = Threat_model.Trojans;
      scheme = "Proof-carrying hardware [34]";
      modules = "Iflow.Taint (property checking)"; run = run_proof_carrying };
    { stage = Timing_power_verification; threat = Threat_model.Side_channel;
      scheme = "Pre-silicon power/timing simulation [36], [37]";
      modules = "Power.Model, Timing.Event_sim"; run = run_presilicon_power };
    { stage = Timing_power_verification; threat = Threat_model.Side_channel;
      scheme = "Higher-order leakage assessment (masking order)";
      modules = "Sidechannel.Tvla.campaign_orders"; run = run_second_order };
    { stage = Timing_power_verification; threat = Threat_model.Fault_injection;
      scheme = "Detailed modeling of fault injections [38]";
      modules = "Fault.Model (transients)"; run = run_fault_modeling };
    { stage = Timing_power_verification; threat = Threat_model.Fault_injection;
      scheme = "Vectorless IR-drop verification [36]";
      modules = "Physical.Ir_drop"; run = run_ir_drop };
    { stage = Timing_power_verification; threat = Threat_model.Piracy_counterfeiting;
      scheme = "Validation of low-level PUF properties";
      modules = "Puf.Arbiter, Puf.Ro_puf"; run = run_puf_validation };
    { stage = Timing_power_verification; threat = Threat_model.Trojans;
      scheme = "Fingerprinting [35]";
      modules = "Trojan.Detect.fingerprint_detection, Timing.Sta"; run = run_fingerprint };
    { stage = Testing; threat = Threat_model.Side_channel;
      scheme = "Securing DFT against read-out (scan attacks [39])";
      modules = "Dft.Scan, Dft.Scan_attack"; run = run_scan_attack };
    { stage = Testing; threat = Threat_model.Fault_injection;
      scheme = "DFX handling malicious/natural failures";
      modules = "Fault.Discriminate"; run = run_dfx };
    { stage = Testing; threat = Threat_model.Piracy_counterfeiting;
      scheme = "IP protection integrated into DFX";
      modules = "Locking.Sfll"; run = run_ip_dfx };
    { stage = Testing; threat = Threat_model.Trojans;
      scheme = "Pattern generation for Trojan detection [40]";
      modules = "Trojan.Detect.mero_patterns"; run = run_mero };
    { stage = Testing; threat = Threat_model.Trojans;
      scheme = "ATPG-driven redundancy removal (testability x security)";
      modules = "Dft.Atpg.remove_redundancy"; run = run_redundancy } ]
