(** Clock-glitch fault injection and the delay-sensor countermeasure
    ([9]; Table II, physical-synthesis x FIA cell "embedding sensors").

    A clock glitch shortens one cycle so that registers capture before the
    combinational logic settles: outputs whose paths are longer than the
    glitched period latch stale/incorrect values — a cheap, global fault
    an attacker sweeps until the cipher output breaks.

    The countermeasure is a canary (hidden-delay-fault sensor): a dummy
    path slightly *longer* than the critical path, launched every cycle;
    if the canary's endpoint fails to update, the cycle was too short and
    the result must be discarded — the sensor fires *before* the real
    datapath corrupts. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

(** Values captured when the clock edge arrives at [period_ps] after the
    input transition: each node holds its value from the last event before
    the edge (transport-delay event simulation). *)
let capture_at circuit ~period_ps ~prev_inputs ~next_inputs =
  let values = Netlist.Sim.eval_all circuit prev_inputs in
  Timing.Event_sim.iter circuit ~prev_inputs ~next_inputs ~f:(fun t node v ->
      if t <= period_ps then values.(node) <- v);
  values

(** Outputs captured under a glitched clock of [period_ps]. *)
let glitched_outputs circuit ~period_ps ~prev_inputs ~next_inputs =
  let values = capture_at circuit ~period_ps ~prev_inputs ~next_inputs in
  Array.map (fun (_, o) -> values.(o)) (Circuit.outputs circuit)

(** Attack sweep: decrease the clock period until some output is wrong;
    returns the largest period that induced a fault, or None if even the
    smallest tried period is safe. *)
let attack_sweep circuit ~periods ~prev_inputs ~next_inputs =
  let golden = Netlist.Sim.eval circuit next_inputs in
  let faulting =
    List.filter
      (fun period_ps ->
        glitched_outputs circuit ~period_ps ~prev_inputs ~next_inputs <> golden)
      periods
  in
  match List.sort (fun a b -> compare b a) faulting with
  | [] -> None
  | worst :: _ -> Some worst

type sensor = {
  guarded : Circuit.t;  (* circuit plus canary chain *)
  canary_output : int;  (* index in the output vector *)
  canary_delay_ps : float;
}

(** Guard a circuit with a canary: a toggle chain whose delay exceeds the
    critical path by [margin_ps]. Each cycle the canary input toggles; the
    canary output must follow it — if the captured canary differs from the
    expected (settled) value, the cycle was too short. *)
let add_sensor ?(margin_ps = 50.0) source =
  let guarded = Circuit.copy source in
  let critical = (Timing.Sta.analyze source).Timing.Sta.critical_path_delay in
  let canary_in = Circuit.add_input ~name:"canary_in" guarded in
  let stages = int_of_float (ceil ((critical +. margin_ps) /. Gate.delay Gate.Buf)) in
  let rec chain node k =
    if k = 0 then node
    else chain (Circuit.add_gate guarded Gate.Buf [ node ]) (k - 1)
  in
  let canary_out = chain canary_in (max 1 stages) in
  Circuit.set_output guarded "canary" canary_out;
  let canary_output = Circuit.num_outputs source in
  { guarded;
    canary_output;
    canary_delay_ps = Float.of_int (max 1 stages) *. Gate.delay Gate.Buf }

(** One guarded cycle under a (possibly glitched) clock: returns the data
    outputs and whether the sensor fired. The canary input toggles with
    the cycle; the sensor fires when the captured canary still shows the
    previous value. *)
let guarded_cycle sensor ~period_ps ~prev_inputs ~next_inputs =
  (* Extend the input vectors with the canary toggle: 0 -> 1. *)
  let prev = Array.append prev_inputs [| false |] in
  let next = Array.append next_inputs [| true |] in
  let values = capture_at sensor.guarded ~period_ps ~prev_inputs:prev ~next_inputs:next in
  let outs = Array.map (fun (_, o) -> values.(o)) (Circuit.outputs sensor.guarded) in
  let canary_captured = outs.(sensor.canary_output) in
  let data = Array.sub outs 0 sensor.canary_output in
  data, `Sensor_fired (not canary_captured)

(** Protection check over a period sweep: for every period, either the
    data is correct or the sensor fired (no silent corruption). Returns
    (silent corruptions, detected glitches, clean cycles). *)
let sweep_with_sensor sensor ~periods ~prev_inputs ~next_inputs =
  let golden =
    Netlist.Sim.eval sensor.guarded (Array.append next_inputs [| true |])
  in
  let golden_data = Array.sub golden 0 sensor.canary_output in
  let silent = ref 0 and detected = ref 0 and clean = ref 0 in
  List.iter
    (fun period_ps ->
      let data, `Sensor_fired fired = guarded_cycle sensor ~period_ps ~prev_inputs ~next_inputs in
      if fired then incr detected
      else if data <> golden_data then incr silent
      else incr clean)
    periods;
  !silent, !detected, !clean
