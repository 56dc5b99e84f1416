(** Event-driven gate-level simulation with transport delays.

    Applying an input transition launches a wave of events through the
    circuit; a gate whose inputs settle at different times emits transient
    transitions (glitches) before reaching its final value. Glitches are the
    physical mechanism behind the residual leakage of masked logic discussed
    in the paper (Sec. III-E, [55]), so the power model consumes the full
    transition stream, not just final values.

    The engine is flat: per call it builds a CSR fanout table and per-node
    kind/fanin/delay arrays, then drains a bucketed time queue: one FIFO
    of events per distinct pending time, and a short sorted array of those
    times. {!iter} hands each transition to its consumer as it happens; a
    push is an array append and a pop an array read, and nothing per event
    is allocated on the queue's side. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module T = Eda_util.Telemetry

type transition = { time : float; node : int; value : bool }

(* Pops allowed per node before a cycle is declared an event storm. *)
let storm_factor = 200

(* Pending events, bucketed by time. Each distinct pending time owns one
   FIFO of events (node lsl 1 lor value). The live times sit in slots
   0 .. live - 1, latest first, so the earliest is the top slot, live - 1.
   A pop reads the top FIFO in push order and drops the slot once it is
   drained. That is the order of a min-heap on (time, push sequence):
   earliest time first, FIFO among equal times. The FIFO tie-break is
   essential: when a gate's inputs change twice at the same instant, the
   event computed from the *later* input state must win, or the
   simulation settles to stale values. Times compare with the float [<]
   and [=], so -0.0 and 0.0 share a bucket, as they tie on (time, seq),
   and a push at the time being drained appends to its FIFO.

   Every pending time is an input arrival or an earlier time plus a cell
   delay, so few are pending at once (at most 14 on the perfbench
   corpora, against up to 79k events): a push finds its slot by binary
   search and opens a new one by shifting the later slots up.

   The FIFOs share one [store], cut into chunks of 64 events. A FIFO is a
   chain of chunks through [link]; [rd] and [wr] are store indices, and
   the FIFO is empty when they meet. A write that fills a chunk chains a
   fresh one at once, so [wr] always points at a free cell; a read that
   leaves a chunk returns it to the free list, which is threaded through
   [link] from [free] (-1 when empty). The store doubles when no chunk
   is free, so storage follows the pending events, not the largest
   bucket, and nothing is allocated per event. *)
let chunk_bits = 6

let chunk_mask = (1 lsl chunk_bits) - 1

type queue = {
  mutable time : float array;
  mutable rd : int array;
  mutable wr : int array;
  mutable live : int;
  mutable store : int array;
  mutable link : int array;
  mutable free : int;
  mutable size : int;  (* pending events *)
  mutable high_water : int;
}

let queue_create () =
  { time = Array.make 16 0.0;
    rd = Array.make 16 0;
    wr = Array.make 16 0;
    live = 0;
    store = Array.make (4 lsl chunk_bits) 0;
    link = [| 1; 2; 3; -1 |];
    free = 0;
    size = 0;
    high_water = 0 }

let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let take_chunk q =
  if q.free < 0 then begin
    (* Double the store; the new chunks m .. 2m - 1 become the free list. *)
    let m = Array.length q.link in
    q.store <- extend q.store (2 * m lsl chunk_bits) 0;
    q.link <- extend q.link (2 * m) (-1);
    for k = m to (2 * m) - 2 do
      q.link.(k) <- k + 1
    done;
    q.free <- m
  end;
  let k = q.free in
  q.free <- q.link.(k);
  k

let release q k =
  q.link.(k) <- q.free;
  q.free <- k

(* Put an empty FIFO for time [t] at slot [i], moving slots
   i .. live - 1 up one. *)
let open_slot q i t =
  if q.live = Array.length q.time then begin
    let cap = 2 * q.live in
    q.time <- extend q.time cap 0.0;
    q.rd <- extend q.rd cap 0;
    q.wr <- extend q.wr cap 0
  end;
  let moved = q.live - i in
  Array.blit q.time i q.time (i + 1) moved;
  Array.blit q.rd i q.rd (i + 1) moved;
  Array.blit q.wr i q.wr (i + 1) moved;
  let w = take_chunk q lsl chunk_bits in
  q.time.(i) <- t;
  q.rd.(i) <- w;
  q.wr.(i) <- w;
  q.live <- q.live + 1

let[@inline] push q t node v =
  (* [i]: the first slot whose time is not later than [t]. *)
  let lo = ref 0 and hi = ref q.live in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if q.time.(mid) > t then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i = q.live || q.time.(i) <> t then open_slot q i t;
  let w = q.wr.(i) in
  q.store.(w) <- (node lsl 1) lor Bool.to_int v;
  let w = w + 1 in
  if w land chunk_mask = 0 then begin
    let k = take_chunk q in
    q.link.((w - 1) lsr chunk_bits) <- k;
    q.wr.(i) <- k lsl chunk_bits
  end
  else q.wr.(i) <- w;
  q.size <- q.size + 1;
  if q.size > q.high_water then q.high_water <- q.size

(* The next event of the top slot, whose time the caller has read. *)
let pop q =
  let top = q.live - 1 in
  let r = q.rd.(top) in
  let e = q.store.(r) in
  let r = r + 1 in
  let r =
    if r land chunk_mask = 0 then begin
      let k = (r - 1) lsr chunk_bits in
      let next = q.link.(k) in
      release q k;
      next lsl chunk_bits
    end
    else r
  in
  if r = q.wr.(top) then begin
    release q (r lsr chunk_bits);
    q.live <- top
  end
  else q.rd.(top) <- r;
  q.size <- q.size - 1;
  e

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
let report ~events ~transitions ~storms q =
  if T.active () then begin
    T.count "event_sim.events" events;
    T.count "event_sim.transitions" transitions;
    T.count "event_sim.storms" storms;
    T.gauge "event_sim.heap_high_water" (Float.of_int q.high_water)
  end

let check_length what ~inputs a =
  if Array.length a <> inputs then
    invalid_arg
      (Printf.sprintf "Event_sim.iter: %s has %d entries, the circuit has %d inputs" what
         (Array.length a) inputs)

(** Simulate one clock cycle and stream its transitions: the circuit
    settles at [prev_inputs] (and [state] for DFF outputs), then input k
    switches to [next_inputs.(k)] at [input_arrivals.(k)] (default 0).
    [f time node value] is called once per net transition, in time order
    (FIFO among equal times), glitches included. Skewed arrivals model
    late mask refresh or unbalanced input paths, the classic cause of
    glitch leakage in masked logic. *)
let iter ?input_arrivals ?state circuit ~prev_inputs ~next_inputs ~f =
  let inputs = Circuit.inputs circuit in
  let ni = Array.length inputs in
  check_length "prev_inputs" ~inputs:ni prev_inputs;
  check_length "next_inputs" ~inputs:ni next_inputs;
  Option.iter (check_length "input_arrivals" ~inputs:ni) input_arrivals;
  let n = Circuit.node_count circuit in
  let values = Netlist.Sim.eval_all ?state circuit prev_inputs in
  let kinds = Array.init n (Circuit.kind circuit) in
  let fanins = Array.init n (Circuit.fanins circuit) in
  let delays = Array.map Gate.delay kinds in
  let start, adj = csr_fanouts n kinds fanins in
  (* An input's own switch time. Its bucket's time equals it as a float
     but may be the other zero (-0.0 beside 0.0); gate events are never
     at -0.0, since every cell delay is positive. *)
  let arrival = Array.make n 0.0 in
  Option.iter (Array.iteri (fun k a -> arrival.(inputs.(k)) <- a)) input_arrivals;
  let q = queue_create () in
  Array.iteri
    (fun k id ->
      let v = next_inputs.(k) in
      if v <> values.(id) then push q arrival.(id) id v)
    inputs;
  let max_events = storm_factor * n in
  let events = ref 0 and transitions = ref 0 in
  while q.live > 0 do
    let t = q.time.(q.live - 1) in
    let e = pop q in
    incr events;
    if !events > max_events then begin
      report ~events:!events ~transitions:!transitions ~storms:1 q;
      (* The message is matched on ("event storm") by the flow's
         degradation note and by failure classifiers; keep it stable. *)
      invalid_arg "Event_sim.cycle: event storm (oscillation?)"
    end;
    let node = e lsr 1 and v = e land 1 = 1 in
    if values.(node) <> v then begin
      values.(node) <- v;
      incr transitions;
      let t = match kinds.(node) with Gate.Input -> arrival.(node) | _ -> t in
      f t node v;
      for j = start.(node) to start.(node + 1) - 1 do
        let c = adj.(j) in
        push q (t +. delays.(c)) c (Gate.eval_indexed kinds.(c) fanins.(c) values)
      done
    end
  done;
  report ~events:!events ~transitions:!transitions ~storms:0 q

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
