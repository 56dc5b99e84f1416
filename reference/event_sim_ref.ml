(** The record-heap event simulation and list-binned power trace that
    {!Timing.Event_sim} and {!Power.Model.trace} replaced, kept verbatim
    (minus the unused [?delay_of] knob) as the differential oracle for
    the flat engine: same transitions, same storm exception, same trace
    samples to the bit. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type transition = Timing.Event_sim.transition = { time : float; node : int; value : bool }

(* Minimal binary heap on (time, sequence); earliest time first, FIFO
   among equal times. One boxed record per event. *)
module Heap = struct
  type entry = { t : float; seq : int; node : int; v : bool }
  type t = { mutable data : entry array; mutable size : int; mutable next_seq : int }

  let create () =
    { data = Array.make 64 { t = 0.0; seq = 0; node = 0; v = false };
      size = 0;
      next_seq = 0 }

  let earlier a b = a.t < b.t || (a.t = b.t && a.seq < b.seq)

  let push h ~t ~node ~v =
    let e = { t; seq = h.next_seq; node; v } in
    h.next_seq <- h.next_seq + 1;
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) e in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    (* Sift up. *)
    let i = ref (h.size - 1) in
    while !i > 0 && earlier h.data.(!i) h.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && earlier h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.size && earlier h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!i) in
          h.data.(!i) <- h.data.(!smallest);
          h.data.(!smallest) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

(** Every transition of one clock cycle, in time order; see
    {!Timing.Event_sim.cycle}. *)
let cycle ?input_arrivals ?state circuit ~prev_inputs ~next_inputs =
  let values = Netlist.Sim.eval_all ?state circuit prev_inputs in
  let fanouts = Circuit.fanouts circuit in
  let heap = Heap.create () in
  let input_ids = Circuit.inputs circuit in
  let arrival k =
    match input_arrivals with
    | Some arr -> arr.(k)
    | None -> 0.0
  in
  Array.iteri
    (fun k id ->
      if next_inputs.(k) <> values.(id) then
        Heap.push heap ~t:(arrival k) ~node:id ~v:next_inputs.(k))
    input_ids;
  let transitions = ref [] in
  let guard = ref 0 in
  let max_events = 200 * Circuit.node_count circuit in
  let rec loop () =
    match Heap.pop heap with
    | None -> ()
    | Some { Heap.t; node; v; seq = _ } ->
      incr guard;
      if !guard > max_events then invalid_arg "Event_sim.cycle: event storm (oscillation?)";
      if values.(node) <> v then begin
        values.(node) <- v;
        transitions := { time = t; node; value = v } :: !transitions;
        List.iter
          (fun consumer ->
            let nd = Circuit.node circuit consumer in
            match nd.Circuit.kind with
            | Gate.Input | Gate.Dff -> ()  (* DFFs capture at the clock edge *)
            | k ->
              let out = Gate.eval_indexed k nd.Circuit.fanins values in
              Heap.push heap ~t:(t +. Gate.delay k) ~node:consumer ~v:out)
          fanouts.(node)
      end;
      loop ()
  in
  loop ();
  List.rev !transitions

(** One cycle's power trace, binned from the finished transition list;
    see {!Power.Model.trace}. *)
let trace rng ?input_arrivals ?state circuit ~(config : Power.Model.config) ~prev_inputs
    ~next_inputs =
  let transitions = cycle ?input_arrivals ?state circuit ~prev_inputs ~next_inputs in
  let samples = Array.make config.time_bins 0.0 in
  List.iter
    (fun tr ->
      let bin = Float.to_int (tr.time /. config.bin_width_ps) in
      let bin = if bin < 0 then 0 else if bin >= config.time_bins then config.time_bins - 1 else bin in
      let energy = Gate.switch_energy (Circuit.kind circuit tr.node) in
      samples.(bin) <- samples.(bin) +. energy)
    transitions;
  if config.noise_sigma > 0.0 then
    for k = 0 to config.time_bins - 1 do
      samples.(k) <-
        samples.(k) +. Eda_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma:config.noise_sigma
    done;
  samples
