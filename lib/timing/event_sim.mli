(** Event-driven gate-level simulation with transport delays: staggered
    input arrivals and unequal path delays produce transient transitions
    (glitches), the mechanism behind the residual leakage of masked logic
    (Sec. III-E, [55]).

    {b Event storms.} Transport delays pass every glitch on, so on
    reconvergent XOR/adder cones (array multipliers, the masked AES S-box)
    glitches multiply from level to level even though the netlist is a
    DAG. A cycle is abandoned once it has popped more than 200 events per
    node; the raised [Invalid_argument] message contains ["event storm"],
    which callers match on to classify the failure.

    Telemetry, once per call: counters [event_sim.events] (queue pops),
    [event_sim.transitions] and [event_sim.storms], and the gauge
    [event_sim.heap_high_water]: the most events pending at once, summed
    over the time buckets of the queue. The name predates the bucketed
    queue; the count it reports is unchanged. *)

(** Simulate one clock cycle: the circuit settles at [prev_inputs] (DFF
    outputs from [state]), then input k switches to [next_inputs.(k)] at
    [input_arrivals.(k)] (default 0). [f time node value] is called once
    per net transition, in time order, FIFO among equal times.
    @raise Invalid_argument when [prev_inputs], [next_inputs] or
    [input_arrivals] does not have one entry per circuit input, or
    [state] one entry per DFF (the message names both counts), before [f]
    is called.
    @raise Invalid_argument on an event storm, after [f] has seen the
    transitions up to that point. *)
val iter :
  ?input_arrivals:float array ->
  ?state:bool array ->
  Netlist.Circuit.t ->
  prev_inputs:bool array ->
  next_inputs:bool array ->
  f:(float -> int -> bool -> unit) ->
  unit
