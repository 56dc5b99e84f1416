(** Secure composition of countermeasures — the paper's Sec. IV argument
    made executable.

    Target: the private-circuit AND of the motivational example. Four
    design points combine masking (vs side channels) and parity-based
    error detection (vs fault injection):

      Baseline | Masked | Parity | Masked_and_parity

    Every design point is evaluated against *both* threats plus cost, and
    the composed point exhibits the documented negative cross-effect [61]:
    the parity tree XORs the output shares together, materializing the
    unmasked secret on a wire — error detection *destroys* the masking.
    The engine's job is exactly what the paper demands: after any new
    countermeasure, re-run all evaluations, including seemingly unrelated
    ones. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng
module Isw = Sidechannel.Isw
module Masking = Synth.Masking

type point = Baseline | Masked | Parity | Masked_and_parity

let all_points = [ Baseline; Masked; Parity; Masked_and_parity ]

let point_name = function
  | Baseline -> "baseline"
  | Masked -> "masked (ISW)"
  | Parity -> "parity-protected"
  | Masked_and_parity -> "masked + parity"

type design = {
  point : point;
  circuit : Circuit.t;
  masked : Masking.masked option;  (* drives share/randomness inputs *)
  alarm : string option;  (* error-detection alarm output name *)
}

(* Protect a circuit with an independent predictor of the XOR of its
   outputs (cf. Fault.Countermeasure.parity_protect, rebuilt here so the
   masked variant can keep its masking descriptor attached). *)
let add_parity source =
  let prot = Fault.Countermeasure.parity_protect source in
  prot.Fault.Countermeasure.circuit

let build point =
  let source = Sidechannel.Leakage.private_and_source () in
  match point with
  | Baseline -> { point; circuit = source; masked = None; alarm = None }
  | Masked ->
    let m = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_aware in
    { point; circuit = m.Masking.circuit; masked = Some m; alarm = None }
  | Parity ->
    { point; circuit = add_parity source; masked = None; alarm = Some "alarm" }
  | Masked_and_parity ->
    let m = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_aware in
    let protected_c = add_parity m.Masking.circuit in
    let m = Isw.rebind m protected_c in
    { point; circuit = protected_c; masked = Some m; alarm = Some "alarm" }

(* Input vector for secrets (a, b), drawing shares/randomness when masked. *)
let stimulus rng design ~a ~b =
  match design.masked with
  | Some m -> Isw.input_vector rng m ~values:[ ("a", a); ("b", b) ]
  | None -> [| a; b |]

(** First-order TVLA max |t| under the Hamming-weight model. *)
let tvla_max_t rng design ~traces_per_class ~noise_sigma =
  let sample = Power.Model.hamming_weight_sampler design.circuit in
  (* no pool: the one [scratch] serves one trace at a time *)
  let scratch = Array.make (Circuit.node_count design.circuit) 0 in
  let collect stream cls =
    let a, b =
      match cls with
      | `Fixed -> true, true
      | `Random -> Rng.bool stream, Rng.bool stream
    in
    let vec = stimulus stream design ~a ~b in
    let e = sample ~scratch ~lanes:1 ~inputs:(Array.map Bool.to_int vec) in
    [| e.(0) +. Rng.gaussian_scaled stream ~mean:0.0 ~sigma:noise_sigma |]
  in
  (Sidechannel.Tvla.campaign_seeded rng ~traces_per_class ~collect).Sidechannel.Tvla.max_abs_t

(** Fault detection rate: fraction of random transient bit-flips that are
    caught by the alarm (0 without error detection). *)
let fault_detection_rate rng design ~injections =
  match design.alarm with
  | None -> 0.0
  | Some alarm_name ->
    let c = design.circuit in
    let outs = Circuit.outputs c in
    let alarm_idx =
      let rec find k = if fst outs.(k) = alarm_name then k else find (k + 1) in
      find 0
    in
    let n = Circuit.node_count c in
    let detected = ref 0 and corrupting = ref 0 in
    let attempts = ref 0 in
    while !corrupting < injections && !attempts < 50 * injections do
      incr attempts;
      let node = Rng.int rng n in
      (match Circuit.kind c node with
       | Gate.Input | Gate.Const _ | Gate.Dff -> ()
       | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
       | Gate.Xor | Gate.Xnor | Gate.Mux ->
         let a = Rng.bool rng and b = Rng.bool rng in
         let vec = stimulus rng design ~a ~b in
         let golden = Netlist.Sim.eval c vec in
         let faulty =
           Fault.Model.eval_faulty c ~faults:[ Fault.Model.Bit_flip { node } ] vec
         in
         if faulty <> golden then begin
           incr corrupting;
           if faulty.(alarm_idx) && not golden.(alarm_idx) then incr detected
         end)
    done;
    if !corrupting = 0 then 0.0
    else Float.of_int !detected /. Float.of_int !corrupting

(** Full cross-effect evaluation of one design point. *)
let evaluate rng design ~traces_per_class ~noise_sigma ~injections =
  let stats = Circuit.stats design.circuit in
  let t = tvla_max_t rng design ~traces_per_class ~noise_sigma in
  let det = fault_detection_rate rng design ~injections in
  [ Metric.security ~name:"TVLA max |t|" ~value:t ~unit_:"sigma" ~higher_is_better:false;
    Metric.security ~name:"fault detection rate" ~value:det ~unit_:"frac" ~higher_is_better:true;
    Metric.ppa ~name:"area" ~value:stats.Circuit.area ~unit_:"NAND2eq" ~higher_is_better:false;
    Metric.ppa ~name:"delay"
      ~value:(Timing.Sta.analyze design.circuit).Timing.Sta.critical_path_delay
      ~unit_:"ps" ~higher_is_better:false ]

(** The composition matrix: every point evaluated on every metric — the
    re-run-everything discipline of Sec. IV. *)
let matrix rng ~traces_per_class ~noise_sigma ~injections =
  List.map
    (fun point ->
      let design = build point in
      point, evaluate rng design ~traces_per_class ~noise_sigma ~injections)
    all_points
