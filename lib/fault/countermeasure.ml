(** Fault-attack countermeasures as netlist transforms (Table II: error-
    detecting architectures [10], infective countermeasures [18]), plus
    detection-coverage validation (the functional-validation row: "does the
    error-detecting scheme detect all faults? search for the ones it
    misses"). *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type protected_circuit = {
  circuit : Circuit.t;
  data_outputs : string list;  (* original outputs *)
  alarm_output : string;  (* raised when an error is detected *)
}

(** Parity prediction: one extra output carries the XOR of all data
    outputs computed through an independent parity tree over a duplicated
    cone; the alarm compares predicted vs actual parity. Detects any fault
    that flips an odd number of outputs. *)
let parity_protect source =
  let c = Circuit.copy source in
  let outs = Circuit.outputs c in
  (* Duplicate the whole combinational cone to predict parity
     independently: faults in the functional cone then disagree with the
     prediction. *)
  let duplicate = Circuit.copy source in
  let bindings = Circuit.inputs c in
  let dup_outs = Circuit.inline ~into:c ~sub:duplicate ~prefix:"pred_" bindings in
  let actual_parity =
    Circuit.reduce c Gate.Xor (Array.to_list (Array.map snd outs))
  in
  let predicted_parity = Circuit.reduce c Gate.Xor (Array.to_list dup_outs) in
  let alarm = Circuit.add_gate ~name:"alarm" c Gate.Xor [ actual_parity; predicted_parity ] in
  Circuit.set_output c "alarm" alarm;
  { circuit = c;
    data_outputs = Array.to_list (Array.map fst outs);
    alarm_output = "alarm" }

(** Duplication with comparison: the full cone is duplicated and every
    output pair compared; the alarm is the OR of the miscompares. Detects
    any fault confined to one copy. *)
let duplicate_protect source =
  let c = Circuit.copy source in
  let outs = Circuit.outputs c in
  let duplicate = Circuit.copy source in
  let bindings = Circuit.inputs c in
  let dup_outs = Circuit.inline ~into:c ~sub:duplicate ~prefix:"dup_" bindings in
  let miscompares =
    List.mapi
      (fun k (_, o) -> Circuit.add_gate c Gate.Xor [ o; dup_outs.(k) ])
      (Array.to_list outs)
  in
  let alarm_id = Circuit.reduce c Gate.Or miscompares in
  let alarm = Circuit.add_gate ~name:"alarm" c Gate.Buf [ alarm_id ] in
  Circuit.set_output c "alarm" alarm;
  { circuit = c;
    data_outputs = Array.to_list (Array.map fst outs);
    alarm_output = "alarm" }

(** Infective countermeasure: instead of (or in addition to) raising an
    alarm, a detected error *infects* every data output by XORing it with
    an error-and-randomness product, so faulty ciphertexts are useless for
    differential fault analysis. [random_input] names a fresh input that
    must be driven with randomness. *)
let infective_protect source =
  let base = duplicate_protect source in
  let c = base.circuit in
  let rnd = Circuit.add_input ~name:"infect_rnd" c in
  let output_node nm = Circuit.output_id c (Circuit.output_position c nm) in
  let alarm_id = output_node base.alarm_output in
  (* infection = alarm & (rnd | 1) -> alarm (always infect), alarm & rnd
     randomizes; combine both so output differs and is randomized. *)
  let infect = Circuit.add_gate ~name:"infect" c Gate.Or [ alarm_id; Circuit.add_gate c Gate.And [ alarm_id; rnd ] ] in
  let infected_outputs =
    List.map
      (fun nm ->
        let o = output_node nm in
        let scrambled = Circuit.add_gate c Gate.Xor [ o; infect ] in
        let rand_scramble = Circuit.add_gate c Gate.And [ infect; rnd ] in
        let final = Circuit.add_gate c Gate.Xor [ scrambled; rand_scramble ] in
        nm, final)
      base.data_outputs
  in
  (* Register the infected data outputs under fresh names; the raw
     (pre-infection) outputs stay declared for validation access. *)
  List.iter
    (fun (nm, o) -> Circuit.set_output c (nm ^ "_inf") o)
    infected_outputs;
  { circuit = c;
    data_outputs = List.map (fun (nm, _) -> nm ^ "_inf") infected_outputs;
    alarm_output = "alarm" }

(** Validation campaign (functional-validation row): for every fault in
    [faults] and every pattern, classify the outcome. *)
type outcome = Silent | Detected | Corrupted_undetected

(* The shared classifier of [prot]: one word sweep over the slice
   [faults.(pos) .. faults.(pos + len - 1)] returns two disjoint lane
   masks. [detected]: the alarm reads 1 while the fault-free top lane's
   reads 0. [escaped]: no alarm rose, but some data output differs from
   the top lane. Every other lane is silent. *)
let classifier prot =
  let c = prot.circuit in
  let w = Model.wsim_create c in
  let alarm = Circuit.output_position c prot.alarm_output in
  let data = Array.of_list (List.map (Circuit.output_position c) prot.data_outputs) in
  fun ~faults ~pos ~len pattern ->
    ignore (Model.detects_many w c ~faults ~pos ~len pattern);
    let word k = Model.output_word w c k in
    (* The top lane, broadcast to every lane. *)
    let clean word = -((word lsr Model.lanes) land 1) in
    let a = word alarm in
    let raised = a land lnot (clean a) in
    let corrupted = Array.fold_left (fun m k -> let v = word k in m lor (v lxor clean v)) 0 data in
    raised, corrupted land lnot raised

let classify prot ~fault pattern =
  let detected, escaped = classifier prot ~faults:[| fault |] ~pos:0 ~len:1 pattern in
  if detected land 1 = 1 then Detected
  else if escaped land 1 = 1 then Corrupted_undetected
  else Silent

(** Detection statistics over a fault list and random patterns: fraction of
    data-corrupting faults that escape detection (the number an EDA flow
    must drive to zero). *)
let validate rng prot ~faults ~patterns =
  let ni = Circuit.num_inputs prot.circuit in
  let pats =
    List.init patterns (fun _ -> Array.init ni (fun _ -> Eda_util.Rng.bool rng))
  in
  let sweep = classifier prot in
  let faults = Array.of_list faults in
  let nf = Array.length faults in
  let detected = ref 0 and escaped = ref 0 and silent = ref 0 in
  for b = 0 to ((nf + Model.lanes - 1) / Model.lanes) - 1 do
    let pos = Model.lanes * b in
    let len = min Model.lanes (nf - pos) in
    (* Each fault's worst outcome across patterns: an escape under any
       pattern, else a detection under any. *)
    let det, esc =
      List.fold_left
        (fun (det, esc) p ->
          let d, e = sweep ~faults ~pos ~len p in
          det lor d, esc lor e)
        (0, 0) pats
    in
    for k = 0 to len - 1 do
      if (esc lsr k) land 1 = 1 then incr escaped
      else if (det lsr k) land 1 = 1 then incr detected
      else incr silent
    done
  done;
  !detected, !escaped, !silent
