(** Fixed-size domain worker pool for the embarrassingly-parallel engines.

    Every pooled fan-out in the toolkit — TVLA trace batches and the
    supervised job waves of [Service] — is a set of independent tasks
    whose *reduction* must stay deterministic. The pool therefore
    separates scheduling (which domain runs a task: arbitrary,
    work-stealing) from semantics (which result is kept: ordered by task
    index, never by completion time):

    - [parallel_map] preserves input order in its result array, so any
      fold over it is independent of the number of domains;
    - randomness is never shared: callers pre-split their generator with
      {!Rng.split} and task [i] draws from stream [i] wherever it runs;
    - cancellation is cooperative: a shared stop flag is set when the
      caller's {!Budget} exhausts (polled between tasks on the caller's
      slot). Tasks already running finish (or observe the flag through
      [ctx.cancelled] / a [ctx.task_budget]); tasks not yet started are
      skipped and report [None]. Domains are always joined;
    - a task that raises bounds the batch at its index: tasks above the
      lowest raising index are skipped (running ones see [ctx.cancelled]),
      every task below it still runs, so the re-raised exception does not
      depend on the schedule or the domain count.

    Scheduling: the task range is divided into one contiguous stripe per
    slot, each with an atomic cursor; a slot that exhausts its stripe
    steals from the other stripes in a fixed scan order. This is chunked
    fan-out with stealing — cheap, and the placement of tasks onto
    domains affects throughput only, never results.

    The pool never charges the caller's budget: engines account their own
    work (solver conflicts, faults, moves) on the calling domain, the
    pool only *observes* exhaustion. Worker domains start with no ambient
    {!Telemetry} context (it is domain-local); instead every task runs
    under a private capture context ({!Telemetry.capture_task}) wrapped
    in a [pool.task] span with [task]/[domain] attributes, and the frozen
    buffers are merged into the caller's trace after the join
    ({!Telemetry.absorb}), in task-index order, reparented under the
    dispatching [pool.batch] span — engine instrumentation inside pooled
    tasks is fully visible, and deterministic workloads merge to
    bit-identical traces at any pool size (modulo the scheduling noise
    {!Telemetry.Trace.canonicalize} projects away). The pool itself still
    counts [pool.tasks] and [pool.steals] per batch from the caller's
    domain, both stamped with a single clock reading so the caller's
    clock-read count per batch is fixed; per-domain busy time is derived
    from the [pool.task] spans ({!Telemetry.Trace.domain_timeline}).

    Not reentrant: calling pool operations from inside a task is
    unsupported. One caller domain at a time. *)

module T = Telemetry

type job = {
  gen : int;
  work : int -> unit;  (* slot index -> runs tasks until none remain *)
  mutable pending : int;  (* workers that have not finished this job *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable shutting_down : bool;
  mutable workers : unit Domain.t array;
}

type task_ctx = {
  task_index : int;
  slot : int;
  cancelled : unit -> bool;
  task_budget : ?steps:int -> ?seconds:float -> unit -> Budget.t;
}

let recommended () = max 1 (Domain.recommended_domain_count ())

(** Pool size implied by the environment: [SECURE_EDA_JOBS] when set to a
    positive integer, else 1 (sequential). Only the CLI's [-j] default
    and the pool tests read it. *)
let default_jobs () =
  match Sys.getenv_opt "SECURE_EDA_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> min n 64
     | Some _ | None -> 1)
  | None -> 1

(* Workers pick up each new job exactly once (generations are strictly
   increasing) and park on [work_ready] in between. *)
let rec worker t slot last_gen =
  Mutex.lock t.mutex;
  let rec await () =
    match t.job with
    | Some j when j.gen > last_gen -> Some j
    | _ ->
      if t.shutting_down then None
      else begin
        Condition.wait t.work_ready t.mutex;
        await ()
      end
  in
  let j = await () in
  Mutex.unlock t.mutex;
  match j with
  | None -> ()
  | Some j ->
    (try j.work slot with _ -> ());
    Mutex.lock t.mutex;
    j.pending <- j.pending - 1;
    if j.pending = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.mutex;
    worker t slot j.gen

let create ?num_domains () =
  let requested = match num_domains with Some n -> n | None -> recommended () in
  let size = max 1 (min requested 64) in
  let t =
    { size;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      shutting_down = false;
      workers = [||] }
  in
  if size > 1 then
    t.workers <- Array.init (size - 1) (fun k -> Domain.spawn (fun () -> worker t (k + 1) 0));
  t

let size t = t.size

let shutdown t =
  if not t.shutting_down then begin
    Mutex.lock t.mutex;
    t.shutting_down <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?num_domains f =
  let t = create ?num_domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Run [work slot] on every slot: the caller is slot 0, spawned domains
   are slots 1..size-1. Returns after all slots finished (the join that
   makes worker-side writes safely visible to the caller).

   The join is wedge-proof: whatever the caller's own [work 0] does —
   raise, or be interrupted by an exception from a budget poll — the
   wait-for-workers runs in a [Fun.protect] finalizer, so a batch can
   never return (or unwind) with worker domains still executing its
   closures, and the pool is always reusable afterwards. Worker slots
   have the same property: their decrement of [pending] is unconditional
   after the (exception-swallowing) [j.work] call. *)
let run_batch t work =
  if t.size = 1 then work 0
  else begin
    Mutex.lock t.mutex;
    t.generation <- t.generation + 1;
    let j = { gen = t.generation; work; pending = t.size - 1 } in
    t.job <- Some j;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.mutex;
        while j.pending > 0 do
          Condition.wait t.work_done t.mutex
        done;
        t.job <- None;
        Mutex.unlock t.mutex)
      (fun () -> try work 0 with _ -> ())
  end

(* The scheduling core of every batch. [exec ctx i] must record
   its own result; exceptions it lets escape are captured per task index
   and the first (lowest-index) one is re-raised after the join. A raise
   at index i lowers [bound] to i: tasks at or above the bound are
   skipped, tasks below it all run, so the lowest raising index is the
   same under every schedule.

   [chunk] is the scheduling grain: a slot claims up to [chunk]
   consecutive task indices per atomic cursor bump and amortizes the
   per-claim bookkeeping (cursor and counter updates) over the
   block. Chunking moves tasks between domains, never changes which
   results land where — semantics are grain-independent. The stop flag
   is still polled before every task inside a block, so cancellation
   latency stays one task, not one chunk. *)
let drive ?budget ?(label = "batch") ?(chunk = 1) ~exec t n =
  let chunk = max 1 chunk in
  let stop = Atomic.make false in
  let bound = Atomic.make n in
  let rec lower_bound i =
    let b = Atomic.get bound in
    if i < b && not (Atomic.compare_and_set bound b i) then lower_bound i
  in
  let exns = Array.make n None in
  (* Worker-side telemetry: each task runs under a private capture
     context derived from the caller's ([spec] is an immutable snapshot,
     None when no sink is installed); its frozen buffer lands in
     [captures] — one writer per index, published by the batch join —
     and is absorbed into the caller's trace afterwards in task order. *)
  let spec = T.capture_spec () in
  let captures = Array.make n None in
  let exec ctx i =
    T.capture_task spec ~task:i ~domain:ctx.slot
      ~into:(fun b -> captures.(i) <- Some b)
      (fun () -> exec ctx i)
  in
  let lo s = s * n / t.size in
  let hi s = (s + 1) * n / t.size in
  let next = Array.init t.size (fun s -> Atomic.make (lo s)) in
  let steals = Array.make t.size 0 in
  let completed = Atomic.make 0 in
  (match budget with Some b when Budget.exhausted b -> Atomic.set stop true | _ -> ());
  let ctx slot i =
    let cancelled () = Atomic.get stop || i > Atomic.get bound in
    let task_budget ?steps ?seconds () =
      Budget.create ~clock:Unix.gettimeofday ?steps ?seconds ~poll:cancelled ()
    in
    { task_index = i; slot; cancelled; task_budget }
  in
  let run_block slot i j =
    let k = ref i in
    while !k < j && !k < Atomic.get bound && not (Atomic.get stop) do
      (try exec (ctx slot !k) !k
       with e ->
         exns.(!k) <- Some (e, Printexc.get_raw_backtrace ());
         lower_bound !k);
      Atomic.incr completed;
      incr k
    done
  in
  let work slot =
    let rec loop () =
      (* only the caller's slot touches the (non-thread-safe) budget *)
      (match budget with
       | Some b when slot = 0 && Budget.exhausted b -> Atomic.set stop true
       | _ -> ());
      if not (Atomic.get stop) then
        match grab () with
        | Some (i, j) ->
          run_block slot i j;
          loop ()
        | None -> ()
    and grab () =
      let i = Atomic.fetch_and_add next.(slot) chunk in
      if i < hi slot then Some (i, min (i + chunk) (hi slot)) else steal 1
    and steal k =
      if k >= t.size then None
      else begin
        let v = (slot + k) mod t.size in
        (* steal single tasks: finer grain rebalances the tail *)
        let i = Atomic.fetch_and_add next.(v) 1 in
        if i < hi v then begin
          steals.(slot) <- steals.(slot) + 1;
          Some (i, i + 1)
        end
        else steal (k + 1)
      end
    in
    loop ()
  in
  let attrs = [ ("label", T.Str label); ("tasks", T.Int n); ("domains", T.Int t.size) ] in
  T.with_span "pool.batch" ~attrs (fun () ->
      run_batch t work;
      Array.iter (function Some b -> T.absorb b | None -> ()) captures;
      (* One shared timestamp for both scheduling counters: the caller's
         clock is read exactly once here regardless of pool size or
         steal count, which keeps ticking fake clocks deterministic. *)
      let t_sched = T.now () in
      T.count ~time:t_sched "pool.tasks" (Atomic.get completed);
      T.count ~time:t_sched "pool.steals" (Array.fold_left ( + ) 0 steals);
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ())
        exns)

let parallel_map ?budget ?label ?chunk t ~f inputs =
  let n = Array.length inputs in
  let results = Array.make n None in
  if n > 0 then
    drive ?budget ?label ?chunk t n ~exec:(fun ctx i -> results.(i) <- Some (f ctx inputs.(i)));
  results

let parallel_try_map ?budget ?label ?chunk t ~f inputs =
  let n = Array.length inputs in
  let results = Array.make n None in
  if n > 0 then begin
    (* Isolation: the task body catches everything itself, so no
       exception ever reaches [drive]'s per-task capture — the stop flag
       stays clear and the other tasks keep running. [None] still marks
       tasks skipped by budget exhaustion or an external cancel. *)
    drive ?budget ?label ?chunk t n ~exec:(fun ctx i ->
        let r = try Ok (f ctx inputs.(i)) with e -> Error e in
        results.(i) <- Some r)
  end;
  results

