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
  protection : Fault.Countermeasure.protected_circuit option;  (* error detection *)
}

let build point =
  let source = Sidechannel.Leakage.private_and_source () in
  match point with
  | Baseline -> { point; circuit = source; masked = None; protection = None }
  | Masked ->
    let m = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_aware in
    { point; circuit = m.Masking.circuit; masked = Some m; protection = None }
  | Parity ->
    let prot = Fault.Countermeasure.parity_protect source in
    { point; circuit = prot.circuit; masked = None; protection = Some prot }
  | Masked_and_parity ->
    let m = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_aware in
    let prot = Fault.Countermeasure.parity_protect m.Masking.circuit in
    let m = Isw.rebind m prot.circuit in
    { point; circuit = prot.circuit; masked = Some m; protection = Some prot }

(** First-order TVLA max |t| under the Hamming-weight model: the masked
    variant's campaign for a masked design, the interface-generic one for
    an unmasked design. *)
let tvla_max_t rng design ~traces_per_class ~noise_sigma =
  let result =
    match design.masked with
    | Some m -> Sidechannel.Leakage.tvla_campaign rng m ~traces_per_class ~noise_sigma
    | None -> Sidechannel.Secure_synth.assess rng design.circuit ~traces_per_class ~noise_sigma
  in
  result.Sidechannel.Tvla.max_abs_t

(** Fault detection rate: fraction of data-corrupting random transient
    bit-flips that are caught by the alarm (0 without error detection). *)
let fault_detection_rate rng design ~injections =
  match design.protection with
  | None -> 0.0
  | Some prot ->
    let c = prot.circuit in
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
         let vec =
           match design.masked with
           | Some m -> Isw.input_vector rng m ~values:[ ("a", a); ("b", b) ]
           | None -> [| a; b |]
         in
         (match Fault.Countermeasure.classify prot ~fault:(Fault.Model.Bit_flip { node }) vec with
          | Fault.Countermeasure.Detected ->
            incr corrupting;
            incr detected
          | Fault.Countermeasure.Corrupted_undetected -> incr corrupting
          | Fault.Countermeasure.Silent -> ()))
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
