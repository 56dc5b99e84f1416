(** Cooperative resource budgets for long-running engines.

    Security metrics are step functions: a silently-truncated SAT attack or
    ATPG run reports a number that looks like a measurement but is not one.
    Every engine in the toolkit therefore takes an optional budget and, when
    it cannot conclude within it, says so explicitly ([Unknown], partial
    coverage, degradation notes) instead of hanging or lying.

    A budget combines a step allowance (engine-defined unit: solver
    conflicts, annealing moves, faults processed) with a wall-clock
    deadline, plus an external cancellation flag. Budgets compose: a
    sub-budget may be tighter than its parent, and every step charged to a
    sub-budget is also charged to its ancestors, so a flow-level budget is
    honoured no matter how stages split it up.

    Checks are cooperative: engines call [tick]/[check] at their natural
    checkpoints (per conflict, per move, per fault). The clock is pluggable
    for deterministic tests. *)

type exhaustion =
  | Out_of_steps
  | Deadline_passed
  | Cancelled

let describe_exhaustion = function
  | Out_of_steps -> "step budget exhausted"
  | Deadline_passed -> "deadline exceeded"
  | Cancelled -> "cancelled"

type t = {
  parent : t option;
  steps_initial : int option;  (* the allowance at creation, for utilization *)
  mutable steps_left : int option;  (* [None] = unlimited *)
  mutable steps_used : int;  (* total charged, tracked even when unlimited *)
  deadline : float option;  (* absolute time in [clock] units *)
  clock : unit -> float;
  started : float;
  mutable cancelled : bool;
  poll : (unit -> bool) option;  (* external cancellation probe, e.g. a pool's stop flag *)
}

let default_clock = Sys.time

(** [create ?clock ?steps ?seconds ?poll ()] — a root budget. Omitted
    limits are unlimited; [create ()] never exhausts (useful as a neutral
    default). [poll], when given, is probed at every [status] check and
    reads as [Cancelled] once it returns [true] — the hook a worker-pool
    task budget uses to observe the batch-wide stop flag. *)
let create ?(clock = default_clock) ?steps ?seconds ?poll () =
  let now = clock () in
  { parent = None;
    steps_initial = steps;
    steps_left = steps;
    steps_used = 0;
    deadline = Option.map (fun s -> now +. s) seconds;
    clock;
    started = now;
    cancelled = false;
    poll }

let unlimited () = create ()

(** Sub-budget: at most [steps]/[seconds] of its own, and never more than
    what remains of any ancestor. Charging the child charges the chain. *)
let sub ?steps ?seconds ?poll t =
  let now = t.clock () in
  { parent = Some t;
    steps_initial = steps;
    steps_left = steps;
    steps_used = 0;
    deadline = Option.map (fun s -> now +. s) seconds;
    clock = t.clock;
    started = now;
    cancelled = false;
    poll }

(** Request cooperative cancellation; observed at the next [check]. *)
let cancel t = t.cancelled <- true

(** Why the budget is exhausted, or [None] while work may continue. Checks
    the whole ancestor chain. *)
let rec status t =
  if t.cancelled || (match t.poll with Some probe -> probe () | None -> false) then
    Some Cancelled
  else
    match t.steps_left with
    | Some n when n <= 0 -> Some Out_of_steps
    | _ ->
      (match t.deadline with
       | Some d when t.clock () >= d -> Some Deadline_passed
       | _ -> (match t.parent with Some p -> status p | None -> None))

let exhausted t = status t <> None

let check t = match status t with None -> Ok () | Some e -> Error e

(** Charge [cost] steps to this budget and every ancestor. *)
let rec tick ?(cost = 1) t =
  t.steps_used <- t.steps_used + cost;
  (match t.steps_left with
   | Some n -> t.steps_left <- Some (n - cost)
   | None -> ());
  match t.parent with Some p -> tick ~cost p | None -> ()

(** [tick] then [check]; the common per-iteration call. *)
let spend ?cost t =
  tick ?cost t;
  check t

let remaining_steps t = t.steps_left

let elapsed t = t.clock () -. t.started

(** Steps charged to this budget so far (tracked even when the step
    allowance is unlimited). *)
let consumed_steps t = t.steps_used

(** Fraction of the step allowance spent, clamped to [0, 1]; [None] when
    steps are unlimited. *)
let step_fraction t =
  Option.map
    (fun total ->
      if total <= 0 then 1.0
      else Float.min 1.0 (Float.of_int t.steps_used /. Float.of_int total))
    t.steps_initial

(** Fraction of the wall-clock allowance elapsed, clamped to [0, 1];
    [None] when there is no deadline. *)
let time_fraction t =
  Option.map
    (fun deadline ->
      let allowed = deadline -. t.started in
      if allowed <= 0.0 then 1.0 else Float.min 1.0 (elapsed t /. allowed))
    t.deadline

(** Utilization along the most-constrained dimension (max of step and
    time fractions); [None] when the budget is unlimited in both — an
    unlimited budget is never "x% used". Telemetry reports this per
    span so degradation can be read as budget pressure, not mystery. *)
let utilization t =
  match step_fraction t, time_fraction t with
  | None, None -> None
  | Some f, None | None, Some f -> Some f
  | Some a, Some b -> Some (Float.max a b)

(** Human-readable summary for reports and CLI output. *)
let describe t =
  let steps =
    match t.steps_left with
    | None -> "steps unlimited"
    | Some n -> Printf.sprintf "%d steps left" (max 0 n)
  in
  let time =
    match t.deadline with
    | None -> "no deadline"
    | Some d -> Printf.sprintf "%.3fs to deadline" (d -. t.clock ())
  in
  Printf.sprintf "%s, %s" steps time
