(** Trojan detection (Table II, testing and timing/power rows).

    - MERO [40]: statistical N-detect test generation — generate patterns
      until every rare condition has been individually activated at least N
      times; higher N sharply raises the chance that some pattern activates
      the *conjunction* and exposes the Trojan.
    - Path-delay fingerprinting [35]: compare STA fingerprints of suspect
      chips against the golden distribution under process variation.
    - IDDQ leakage analysis [60]: quiescent-current outlier detection.
    - Ring-oscillator sensor network [28]: RO frequencies shift when a
      Trojan loads nearby nets. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng
module Stats = Eda_util.Stats

(** MERO-style N-detect pattern generation on the CLEAN design: the
    defender knows the rare conditions worth exercising but not the Trojan.
    Returns the pattern set. *)
let mero_patterns rng ~n_detect ~rare ~max_patterns circuit =
  let ni = Circuit.num_inputs circuit in
  let rare_arr = Array.of_list rare in
  let hits = Array.make (Array.length rare_arr) 0 in
  let patterns = ref [] in
  let all_done () = Array.for_all (fun h -> h >= n_detect) hits in
  let attempts = ref 0 in
  (* Candidate pattern and net values are generated into reused buffers;
     only patterns that advance a rare-condition counter are copied out. *)
  let p = Array.make ni false in
  let values = Array.make (Circuit.node_count circuit) 0 in
  while (not (all_done ())) && !attempts < max_patterns do
    incr attempts;
    for i = 0 to ni - 1 do
      p.(i) <- Rng.bool rng
    done;
    Netlist.Sim.eval_all_into circuit p ~into:values;
    let useful = ref false in
    Array.iteri
      (fun k (net, v) ->
        if hits.(k) < n_detect && (values.(net) <> 0) = v then begin
          hits.(k) <- hits.(k) + 1;
          useful := true
        end)
      rare_arr;
    if !useful then patterns := Array.copy p :: !patterns
  done;
  List.rev !patterns

(** Functional detection experiment: does the MERO pattern set expose the
    Trojan (any pattern making infected and clean outputs differ)? *)
let functional_detect clean trojan patterns =
  List.exists (fun p -> Insert.exposed_by clean trojan p) patterns

(** Path-delay fingerprint: the vector of STA arrival times at each output
    under per-chip process variation. A Trojan's extra load inflates delays
    on paths through tapped nets. [extra_load_ps] models the parasitic
    loading a trigger tap adds to each tapped net. *)
let delay_fingerprint rng ~sigma ~extra_load_ps circuit ~tapped =
  let tapped_set = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace tapped_set n ()) tapped;
  let base = Timing.Sta.varied_delays rng ~sigma circuit in
  let delay_of node kind =
    let d = base node kind in
    if Hashtbl.mem tapped_set node then d +. extra_load_ps else d
  in
  let report = Timing.Sta.analyze ~delay_of circuit in
  Array.map (fun (_, o) -> report.Timing.Sta.arrival.(o)) (Circuit.outputs circuit)

(** Fingerprint-based detection: golden population vs suspect population;
    a suspect is flagged when any output delay deviates more than
    [threshold_sigmas] from the golden mean. Returns (true-positive rate,
    false-positive rate). *)
let fingerprint_detection rng ~chips ~sigma ~extra_load_ps ~threshold_sigmas circuit ~tapped =
  let golden =
    Array.init chips (fun _ -> delay_fingerprint rng ~sigma ~extra_load_ps:0.0 circuit ~tapped:[])
  in
  let num_outputs = Circuit.num_outputs circuit in
  let mean = Array.make num_outputs 0.0 and sd = Array.make num_outputs 0.0 in
  for o = 0 to num_outputs - 1 do
    let col = Array.map (fun fp -> fp.(o)) golden in
    mean.(o) <- Stats.mean col;
    sd.(o) <- Float.max 1e-9 (Stats.std col)
  done;
  let flagged fp =
    let any = ref false in
    Array.iteri
      (fun o d -> if Float.abs (d -. mean.(o)) > threshold_sigmas *. sd.(o) then any := true)
      fp;
    !any
  in
  let tp = ref 0 and fp_count = ref 0 in
  for _ = 1 to chips do
    let infected_fp = delay_fingerprint rng ~sigma ~extra_load_ps circuit ~tapped in
    if flagged infected_fp then incr tp;
    let clean_fp = delay_fingerprint rng ~sigma ~extra_load_ps:0.0 circuit ~tapped:[] in
    if flagged clean_fp then incr fp_count
  done;
  ( Float.of_int !tp /. Float.of_int chips,
    Float.of_int !fp_count /. Float.of_int chips )

(** IDDQ outlier detection: quiescent-current population of golden chips vs
    a suspect; flags when the suspect's mean IDDQ across patterns deviates
    beyond [threshold_sigmas]. *)
let iddq_detection rng ~chips ~patterns ~threshold_sigmas ~clean ~infected =
  let ni = Circuit.num_inputs clean in
  let inputs = Array.make ni false in
  let measure circuit temperature_factor =
    let scratch = Array.make (Circuit.node_count circuit) 0 in
    let acc = ref 0.0 in
    for _ = 1 to patterns do
      for i = 0 to ni - 1 do
        inputs.(i) <- Rng.bool rng
      done;
      acc := !acc
             +. Power.Model.iddq_sample rng ~scratch circuit ~inputs ~noise_sigma:0.05
                  ~temperature_factor
    done;
    !acc /. Float.of_int patterns
  in
  let golden =
    Array.init chips (fun _ ->
        measure clean (Rng.gaussian_scaled rng ~mean:1.0 ~sigma:0.02))
  in
  let mu = Stats.mean golden and sd = Float.max 1e-9 (Stats.std golden) in
  let tp = ref 0 and fp = ref 0 in
  for _ = 1 to chips do
    let suspect = measure infected (Rng.gaussian_scaled rng ~mean:1.0 ~sigma:0.02) in
    if Float.abs (suspect -. mu) > threshold_sigmas *. sd then incr tp;
    let fresh_clean = measure clean (Rng.gaussian_scaled rng ~mean:1.0 ~sigma:0.02) in
    if Float.abs (fresh_clean -. mu) > threshold_sigmas *. sd then incr fp
  done;
  ( Float.of_int !tp /. Float.of_int chips,
    Float.of_int !fp /. Float.of_int chips )

(** Ring-oscillator sensor model [28]: an RO's period is the sum of its
    stage delays; a Trojan tapping a net in the RO's region adds load and
    slows it. Detection compares per-region RO frequencies to golden. *)
let ro_sensor_shift rng ~stages ~sigma ~extra_load_ps =
  let golden =
    Array.init 64 (fun _ ->
        let stage_delays =
          Array.init stages (fun _ -> Rng.gaussian_scaled rng ~mean:20.0 ~sigma:(sigma *. 20.0))
        in
        Array.fold_left ( +. ) 0.0 stage_delays)
  in
  let mu = Stats.mean golden and sd = Float.max 1e-9 (Stats.std golden) in
  let infected_period = mu +. extra_load_ps in
  (infected_period -. mu) /. sd
