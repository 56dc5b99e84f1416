(** The supervised job engine. See the interface for the design; the
    implementation notes that matter:

    - waves are the determinism boundary: which jobs run concurrently
      is decided on the caller's domain before any task starts, and all
      classification / retry / quarantine / shed bookkeeping happens on
      the caller's domain after the join, in job-index order — so the
      terminal states and backoff schedules of deterministic jobs are
      bit-identical at any domain count;
    - the admission budget is only ever read during a wave (the pool
      polls it for exhaustion) and only ever charged between waves, on
      the caller, with the steps each attempt consumed — worker domains
      never mutate it;
    - per-attempt budgets are detached {!Budget.t}s whose step allowance
      is frozen before the wave (policy cap ∩ admission remainder), so
      an attempt's allowance cannot depend on what ran concurrently. *)

module Budget = Eda_util.Budget
module Eda_error = Eda_util.Eda_error
module Pool = Eda_util.Pool
module Rng = Eda_util.Rng
module T = Eda_util.Telemetry

type severity = Transient | Permanent

let classify = function
  | Eda_error.Parse_error _ | Eda_error.Lint_error _ | Eda_error.Invalid_input _ ->
    Permanent
  | Eda_error.Budget_exhausted _ | Eda_error.Engine_failure _ -> Transient

let severity_name = function Transient -> "transient" | Permanent -> "permanent"

type shed_reason =
  | Queue_depth of { limit : int }
  | Admission_exhausted of Budget.exhaustion

type state =
  | Done of string
  | Failed of { error : Eda_error.t; severity : severity; attempts : int }
  | Shed of shed_reason
  | Quarantined of { klass : string; strikes : int }

let state_code = function
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Shed _ -> "shed"
  | Quarantined _ -> "quarantined"

let describe_shed = function
  | Queue_depth { limit } -> Printf.sprintf "queue depth over %d at admission" limit
  | Admission_exhausted e ->
    Printf.sprintf "admission budget: %s" (Budget.describe_exhaustion e)

let describe_state = function
  | Done note -> "done: " ^ note
  | Failed { error; severity; attempts } ->
    Printf.sprintf "failed (%s, %d attempt%s): %s" (severity_name severity) attempts
      (if attempts = 1 then "" else "s")
      (Eda_error.to_string error)
  | Shed reason -> "shed: " ^ describe_shed reason
  | Quarantined { klass; strikes } ->
    Printf.sprintf "quarantined: class %S after %d consecutive failures" klass strikes

type outcome = {
  job : Job.t;
  state : state;
  attempts : int;
  backoffs : float list;
}

type report = {
  outcomes : outcome list;
  succeeded : int;
  failed : int;
  shed : int;
  quarantined : int;
  retries : int;
  waves : int;
}

let permanently_failed r = r.failed

let fingerprint r =
  String.concat "\n"
    (List.map
       (fun o ->
         Printf.sprintf "%s|%s|%s|%d|%s" o.job.Job.name o.job.Job.klass
           (describe_state o.state) o.attempts
           (String.concat ","
              (List.map (fun d -> Printf.sprintf "%.6f" d) o.backoffs)))
       r.outcomes)

type config = {
  wave_size : int;
  max_queue_depth : int option;
  quarantine_after : int;
  sleep : float -> unit;
}

let default_config =
  { wave_size = 8;
    max_queue_depth = None;
    quarantine_after = 3;
    sleep = (fun s -> if s > 0.0 then Unix.sleepf (Float.min s 30.0)) }

(* Combine the per-attempt policy cap with what remains of the admission
   allowance — frozen before a wave dispatches. *)
let effective_steps policy admission_remaining =
  match policy.Job.attempt_steps, admission_remaining with
  | None, r -> Option.map (fun n -> max 0 n) r
  | Some s, None -> Some s
  | Some s, Some r -> Some (min s (max 0 r))

let run ?pool ?budget ?(config = default_config) rng jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let admission = match budget with Some b -> b | None -> Budget.unlimited () in
  let quarantine_after = max 1 config.quarantine_after in
  let wave_size = max 1 config.wave_size in
  (* Per-job jitter streams: job i draws from stream i, on the caller,
     so the backoff schedule is a pure function of the seed and the
     failure pattern. *)
  let rngs = Rng.split rng n in
  let states : state option array = Array.make n None in
  let attempts = Array.make n 0 in
  let backoffs : float list array = Array.make n [] in  (* reversed *)
  let strikes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let quarantined_classes : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let waves = ref 0 in
  let strike_count klass = Option.value ~default:0 (Hashtbl.find_opt strikes klass) in
  let terminal i st =
    states.(i) <- Some st;
    (match st with
     | Done _ -> T.count "job.done" 1
     | Failed _ -> T.count "job.failed" 1
     | Shed _ -> T.count "job.shed" 1
     | Quarantined _ -> T.count "job.quarantined" 1);
    T.note "job.terminal"
      ~attrs:
        [ ("job", T.Str jobs.(i).Job.name);
          ("class", T.Str jobs.(i).Job.klass);
          ("state", T.Str (state_code st));
          ("attempts", T.Int attempts.(i));
          ("detail", T.Str (describe_state st)) ]
  in
  let strike i =
    let klass = jobs.(i).Job.klass in
    let s = strike_count klass + 1 in
    Hashtbl.replace strikes klass s;
    if s >= quarantine_after then Hashtbl.replace quarantined_classes klass ()
  in
  let pending () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if states.(i) = None then acc := i :: !acc
    done;
    !acc
  in
  (* Admission-time queue-depth shedding: the queue never accepts more
     than [max_queue_depth] jobs; the overflow is refused up front with
     a structured state rather than silently dropped. *)
  (match config.max_queue_depth with
   | Some limit when n > limit ->
     for i = limit to n - 1 do
       terminal i (Shed (Queue_depth { limit }))
     done
   | _ -> ());
  (* One attempt for every ready job; [None] marks attempts skipped by
     mid-wave admission exhaustion. Runs on the pool when given —
     crashes are isolated per task by [parallel_try_map] — else inline
     with the same isolation. *)
  let execute (ready : int array) =
    let remaining = Budget.remaining_steps admission in
    let attempt_budget_args i =
      let job = jobs.(i) in
      (effective_steps job.Job.policy remaining, job.Job.policy.Job.attempt_seconds)
    in
    let span_attrs i =
      [ ("job", T.Str jobs.(i).Job.name);
        ("class", T.Str jobs.(i).Job.klass);
        ("attempt", T.Int (attempts.(i) + 1)) ]
    in
    match pool with
    | Some p ->
      Pool.parallel_try_map ~budget:admission ~label:"service.wave" p
        ~f:(fun ctx i ->
          let steps, seconds = attempt_budget_args i in
          let b = ctx.Pool.task_budget ?steps ?seconds () in
          (* A raising [work] escapes this span (ending it with an error
             attribute) and is caught by [parallel_try_map]; siblings
             keep running. *)
          let res = T.with_span "job.attempt" ~attrs:(span_attrs i) (fun () ->
              jobs.(i).Job.work b)
          in
          (res, Budget.consumed_steps b))
        ready
      |> Array.map (function
           | None -> None
           | Some (Ok (res, used)) -> Some (res, used)
           | Some (Error exn) ->
             (* Crash isolated: the attempt becomes a classified engine
                failure; consumed steps are unknowable, charge nothing. *)
             Some
               ( Error
                   (Eda_error.Engine_failure
                      { engine = "job"; msg = Printexc.to_string exn }),
                 0 ))
    | None ->
      Array.map
        (fun i ->
          if Budget.exhausted admission then None
          else begin
            let steps, seconds = attempt_budget_args i in
            let b = Budget.create ~clock:Unix.gettimeofday ?steps ?seconds () in
            let res =
              T.with_span "job.attempt" ~attrs:(span_attrs i) (fun () ->
                  match jobs.(i).Job.work b with
                  | r -> r
                  | exception exn ->
                    Error
                      (Eda_error.Engine_failure
                         { engine = "job"; msg = Printexc.to_string exn }))
            in
            Some (res, Budget.consumed_steps b)
          end)
        ready
  in
  let shed_all_pending reason =
    List.iter (fun i -> terminal i (Shed reason)) (pending ())
  in
  T.with_span "service.run" ~attrs:[ ("jobs", T.Int n) ] (fun () ->
      let rec wave_loop () =
        match pending () with
        | [] -> ()
        | pend ->
          incr waves;
          T.gauge "service.queue_depth" (Float.of_int (List.length pend));
          (* Load shedding on admission-budget pressure, checked between
             waves (the budget is stable within one). *)
          (match Budget.status admission with
           | Some e -> shed_all_pending (Admission_exhausted e)
           | None ->
             (* Circuit breaker: a class that has struck out is
                refused before dispatch, in job order. *)
             List.iter
               (fun i ->
                 let klass = jobs.(i).Job.klass in
                 if Hashtbl.mem quarantined_classes klass then
                   terminal i
                     (Quarantined { klass; strikes = strike_count klass }))
               pend;
             let ready =
               pending () |> List.filteri (fun k _ -> k < wave_size)
               |> Array.of_list
             in
             if Array.length ready > 0 then begin
               let results =
                 T.with_span "service.wave"
                   ~attrs:
                     [ ("wave", T.Int !waves);
                       ("dispatched", T.Int (Array.length ready)) ]
                   (fun () -> execute ready)
               in
               (* Classification, retry scheduling and admission
                  charging: caller's domain, job-index order. *)
               let max_delay = ref 0.0 in
               Array.iteri
                 (fun k result ->
                   let i = ready.(k) in
                   match result with
                   | None -> ()  (* skipped: next wave's admission check decides *)
                   | Some (res, used) ->
                     attempts.(i) <- attempts.(i) + 1;
                     Budget.tick ~cost:used admission;
                     (match res with
                      | Ok note ->
                        Hashtbl.replace strikes jobs.(i).Job.klass 0;
                        terminal i (Done note)
                      | Error error ->
                        let severity = classify error in
                        let policy = jobs.(i).Job.policy in
                        let retries_done = attempts.(i) - 1 in
                        if
                          severity = Permanent
                          || retries_done >= policy.Job.max_retries
                        then begin
                          terminal i
                            (Failed { error; severity; attempts = attempts.(i) });
                          strike i
                        end
                        else begin
                          (* Deterministic exponential backoff with
                             per-job jitter. *)
                          let expo =
                            policy.Job.backoff_base_s
                            *. (2.0 ** Float.of_int retries_done)
                          in
                          let capped = Float.min policy.Job.backoff_max_s expo in
                          let delay =
                            capped
                            *. (1.0 +. (policy.Job.jitter *. Rng.float rngs.(i)))
                          in
                          backoffs.(i) <- delay :: backoffs.(i);
                          if delay > !max_delay then max_delay := delay;
                          T.count "job.retries" 1
                        end))
                 results;
               if !max_delay > 0.0 then config.sleep !max_delay
             end);
          wave_loop ()
      in
      wave_loop ();
      let outcomes =
        List.init n (fun i ->
            { job = jobs.(i);
              state =
                (match states.(i) with
                 | Some st -> st
                 | None ->
                   (* Unreachable: the wave loop only exits on an empty
                      pending list. Refuse to lie if it ever regresses. *)
                   Failed
                     { error =
                         Eda_error.Engine_failure
                           { engine = "supervisor"; msg = "job never reached a terminal state" };
                       severity = Permanent;
                       attempts = attempts.(i) });
              attempts = attempts.(i);
              backoffs = List.rev backoffs.(i) })
      in
      let count p = List.length (List.filter p outcomes) in
      let report =
        { outcomes;
          succeeded = count (fun o -> match o.state with Done _ -> true | _ -> false);
          failed = count (fun o -> match o.state with Failed _ -> true | _ -> false);
          shed = count (fun o -> match o.state with Shed _ -> true | _ -> false);
          quarantined =
            count (fun o -> match o.state with Quarantined _ -> true | _ -> false);
          retries =
            List.fold_left (fun acc o -> acc + max 0 (o.attempts - 1)) 0 outcomes;
          waves = !waves }
      in
      T.note "service.report"
        ~attrs:
          [ ("succeeded", T.Int report.succeeded);
            ("failed", T.Int report.failed);
            ("shed", T.Int report.shed);
            ("quarantined", T.Int report.quarantined);
            ("retries", T.Int report.retries);
            ("waves", T.Int report.waves) ];
      report)
