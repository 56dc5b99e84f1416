(** Event-driven gate-level simulation with transport delays.

    Applying an input transition launches a wave of events through the
    circuit; a gate whose inputs settle at different times emits transient
    transitions (glitches) before reaching its final value. Glitches are the
    physical mechanism behind the residual leakage of masked logic discussed
    in the paper (Sec. III-E, [55]), so the power model consumes the full
    transition stream, not just final values.

    The engine is flat: per call it builds a CSR fanout table and per-node
    kind/fanin/delay arrays, then runs a struct-of-arrays event heap whose
    times sit unboxed in a [float array]. {!iter} hands each transition to
    its consumer as it happens; nothing per event is allocated on the
    heap's side. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module T = Eda_util.Telemetry

type transition = { time : float; node : int; value : bool }

(* Pops allowed per node before a cycle is declared an event storm. *)
let storm_factor = 200

(* Pending events: a binary min-heap on (time, seq), earliest time first,
   FIFO among equal times. The FIFO tie-break is essential: when a gate's
   inputs change twice at the same instant, the event computed from the
   *later* input state must win, or the simulation settles to stale
   values. Slot i holds time.(i), seq.(i) and ev.(i) = node lsl 1 lor
   value. Sift-up and sift-down move a hole instead of swapping; they
   make the same comparisons as a swapping heap, so the pop order — the
   only observable — is the (time, seq) order either way. *)
type heap = {
  mutable time : float array;
  mutable seq : int array;
  mutable ev : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable high_water : int;
}

let heap_create () =
  { time = Array.make 64 0.0;
    seq = Array.make 64 0;
    ev = Array.make 64 0;
    size = 0;
    next_seq = 0;
    high_water = 0 }

let grow h =
  let cap = 2 * Array.length h.seq in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 h.size;
    b
  in
  h.time <- extend h.time 0.0;
  h.seq <- extend h.seq 0;
  h.ev <- extend h.ev 0

let[@inline] push h t node v =
  if h.size = Array.length h.seq then grow h;
  let s = h.next_seq in
  h.next_seq <- s + 1;
  let i = ref h.size in
  h.size <- h.size + 1;
  if h.size > h.high_water then h.high_water <- h.size;
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = h.time.(p) in
    if t < pt || (t = pt && s < h.seq.(p)) then begin
      h.time.(!i) <- pt;
      h.seq.(!i) <- h.seq.(p);
      h.ev.(!i) <- h.ev.(p);
      i := p
    end
    else moving := false
  done;
  h.time.(!i) <- t;
  h.seq.(!i) <- s;
  h.ev.(!i) <- (node lsl 1) lor Bool.to_int v

(* Drop the root (the caller has read it): the last slot sifts down from
   the top. *)
let remove_top h =
  h.size <- h.size - 1;
  let n = h.size in
  if n > 0 then begin
    let t = h.time.(n) and s = h.seq.(n) and e = h.ev.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      (* [c] is the earliest of the moving entry and both children; -1
         stands for the moving entry itself. *)
      let c = ref (-1) in
      if l < n && (h.time.(l) < t || (h.time.(l) = t && h.seq.(l) < s)) then c := l;
      if r < n then begin
        let ct = if !c < 0 then t else h.time.(!c) in
        let cs = if !c < 0 then s else h.seq.(!c) in
        if h.time.(r) < ct || (h.time.(r) = ct && h.seq.(r) < cs) then c := r
      end;
      if !c < 0 then moving := false
      else begin
        h.time.(!i) <- h.time.(!c);
        h.seq.(!i) <- h.seq.(!c);
        h.ev.(!i) <- h.ev.(!c);
        i := !c
      end
    done;
    h.time.(!i) <- t;
    h.seq.(!i) <- s;
    h.ev.(!i) <- e
  end

(* Consumers of node v are adj.(start.(v)) .. adj.(start.(v + 1) - 1),
   in {!Circuit.fanouts} order: descending consumer id, a consumer listed
   once per fanin slot it reads v on. DFF consumers are left out — they
   capture at the clock edge, never within the cycle. *)
let csr_fanouts n kinds fanins =
  let start = Array.make (n + 1) 0 in
  for c = 0 to n - 1 do
    match kinds.(c) with
    | Gate.Dff -> ()
    | _ -> Array.iter (fun v -> start.(v + 1) <- start.(v + 1) + 1) fanins.(c)
  done;
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let fill = Array.sub start 0 n in
  let adj = Array.make start.(n) 0 in
  for c = n - 1 downto 0 do
    match kinds.(c) with
    | Gate.Dff -> ()
    | _ ->
      Array.iter
        (fun v ->
          adj.(fill.(v)) <- c;
          fill.(v) <- fill.(v) + 1)
        fanins.(c)
  done;
  start, adj

(* Once per call, never per event: the disabled-sink cost is one check. *)
let report ~events ~transitions ~storms h =
  if T.active () then begin
    T.count "event_sim.events" events;
    T.count "event_sim.transitions" transitions;
    T.count "event_sim.storms" storms;
    T.gauge "event_sim.heap_high_water" (Float.of_int h.high_water)
  end

(** Simulate one clock cycle and stream its transitions: the circuit
    settles at [prev_inputs] (and [state] for DFF outputs), then input k
    switches to [next_inputs.(k)] at [input_arrivals.(k)] (default 0).
    [f time node value] is called once per net transition, in time order
    (FIFO among equal times), glitches included. Skewed arrivals model
    late mask refresh or unbalanced input paths, the classic cause of
    glitch leakage in masked logic. *)
let iter ?input_arrivals ?state circuit ~prev_inputs ~next_inputs ~f =
  let n = Circuit.node_count circuit in
  let values = Netlist.Sim.eval_all ?state circuit prev_inputs in
  let kinds = Array.init n (Circuit.kind circuit) in
  let fanins = Array.init n (Circuit.fanins circuit) in
  let delays = Array.map Gate.delay kinds in
  let start, adj = csr_fanouts n kinds fanins in
  let h = heap_create () in
  Array.iteri
    (fun k id ->
      let v = next_inputs.(k) in
      if v <> values.(id) then
        push h (match input_arrivals with Some a -> a.(k) | None -> 0.0) id v)
    (Circuit.inputs circuit);
  let max_events = storm_factor * n in
  let events = ref 0 and transitions = ref 0 in
  while h.size > 0 do
    let t = h.time.(0) and e = h.ev.(0) in
    remove_top h;
    incr events;
    if !events > max_events then begin
      report ~events:!events ~transitions:!transitions ~storms:1 h;
      (* The message is matched on ("event storm") by the flow's
         degradation note and by failure classifiers; keep it stable. *)
      invalid_arg "Event_sim.cycle: event storm (oscillation?)"
    end;
    let node = e lsr 1 and v = e land 1 = 1 in
    if values.(node) <> v then begin
      values.(node) <- v;
      incr transitions;
      f t node v;
      for j = start.(node) to start.(node + 1) - 1 do
        let c = adj.(j) in
        push h (t +. delays.(c)) c (Gate.eval_indexed kinds.(c) fanins.(c) values)
      done
    end
  done;
  report ~events:!events ~transitions:!transitions ~storms:0 h

(** The transitions of {!iter}, as a list in time order. *)
let cycle ?input_arrivals ?state circuit ~prev_inputs ~next_inputs =
  let acc = ref [] in
  iter ?input_arrivals ?state circuit ~prev_inputs ~next_inputs ~f:(fun time node value ->
      acc := { time; node; value } :: !acc);
  List.rev !acc

(** Transition count per node over the cycle; >1 on a node that glitched
    on the way to its final value (or toggled and returned). *)
let toggle_counts circuit transitions =
  let counts = Array.make (Circuit.node_count circuit) 0 in
  List.iter (fun tr -> counts.(tr.node) <- counts.(tr.node) + 1) transitions;
  counts

(** Nets that glitched: more transitions than the |initial -> final| change
    requires. *)
let glitching_nodes circuit transitions =
  let counts = toggle_counts circuit transitions in
  let nodes = ref [] in
  Array.iteri (fun i c -> if c > 1 then nodes := i :: !nodes) counts;
  List.rev !nodes
