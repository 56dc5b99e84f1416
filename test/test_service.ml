(* The supervised job engine and its chaos property: every job — however
   it crashes, stalls, flakes, or feeds on corrupt input — ends in
   exactly one classified terminal state, no exception escapes, the pool
   stays usable, and the whole report is bit-identical at 1, 2 and 8
   domains. *)

module Budget = Eda_util.Budget
module Eda_error = Eda_util.Eda_error
module Pool = Eda_util.Pool
module Rng = Eda_util.Rng
module Gen = Netlist.Generators
module Io = Netlist.Io
module Flow = Secure_eda.Flow
module Job = Service.Job
module Sup = Service.Supervisor

(* Deterministic harness: no real sleeping, no wall-clock budgets. *)
let test_config = { Sup.default_config with Sup.sleep = ignore }

let ok_work note = fun (_ : Budget.t) -> Ok note

let permanent_work () =
  fun (_ : Budget.t) ->
    Error (Eda_error.Invalid_input { what = "job input"; msg = "born broken" })

let job ?klass ?policy name work = Job.create ?klass ?policy ~name work

let no_backoff = { Job.default_policy with Job.backoff_base_s = 0.0 }

let state_of report name =
  let o =
    List.find (fun o -> o.Sup.job.Job.name = name) report.Sup.outcomes
  in
  (o.Sup.state, o.Sup.attempts, o.Sup.backoffs)

(* --- parallel_try_map: per-task crash isolation -------------------------- *)

let test_try_map_isolates_crashes () =
  Pool.with_pool ~num_domains:2 (fun p ->
      let results =
        Pool.parallel_try_map p
          ~f:(fun _ctx i -> if i mod 3 = 0 then failwith (Printf.sprintf "task %d" i) else i * 10)
          (Array.init 9 (fun i -> i))
      in
      Array.iteri
        (fun i r ->
          match r with
          | Some (Ok v) when i mod 3 <> 0 ->
            Alcotest.(check int) (Printf.sprintf "task %d value" i) (i * 10) v
          | Some (Error (Failure msg)) when i mod 3 = 0 ->
            Alcotest.(check string) "exception preserved" (Printf.sprintf "task %d" i) msg
          | _ -> Alcotest.failf "task %d: unexpected slot" i)
        results;
      (* A batch full of crashes must not wedge the pool. *)
      let after = Pool.parallel_map p ~f:(fun _ctx x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check bool) "pool survives" true (after = [| Some 2; Some 3; Some 4 |]))

let test_try_map_budget_skips_are_none () =
  Pool.with_pool ~num_domains:2 (fun p ->
      let b = Budget.create ~steps:0 () in
      let results =
        Pool.parallel_try_map ~budget:b p ~f:(fun _ctx i -> i) (Array.init 64 (fun i -> i))
      in
      Alcotest.(check bool) "exhausted budget skips (some) tasks" true
        (Array.exists (fun r -> r = None) results);
      Alcotest.(check bool) "no fabricated results" true
        (Array.for_all (function None | Some (Ok _) -> true | Some (Error _) -> false) results))

(* --- supervisor unit behavior ------------------------------------------- *)

let test_all_success () =
  let report =
    Sup.run ~config:test_config (Rng.create 1)
      (List.init 5 (fun i -> job (Printf.sprintf "ok%d" i) (ok_work "fine")))
  in
  Alcotest.(check int) "all done" 5 report.Sup.succeeded;
  Alcotest.(check int) "none failed" 0 report.Sup.failed;
  Alcotest.(check int) "no retries" 0 report.Sup.retries;
  List.iter
    (fun o ->
      (match o.Sup.state with
       | Sup.Done "fine" -> ()
       | st -> Alcotest.failf "unexpected state %s" (Sup.describe_state st));
      Alcotest.(check int) "one attempt" 1 o.Sup.attempts)
    report.Sup.outcomes

let test_flaky_job_retried_to_success () =
  let policy = { Job.default_policy with Job.max_retries = 3 } in
  let report =
    Sup.run ~config:test_config (Rng.create 7)
      [ job ~policy "flaky" (Chaos.flaky_work ~fails:2 ()) ]
  in
  (match state_of report "flaky" with
   | Sup.Done note, 3, backoffs ->
     Alcotest.(check string) "succeeded on the third call" "succeeded on call 3" note;
     Alcotest.(check int) "one backoff per retry" 2 (List.length backoffs);
     (* The schedule is exponential-with-jitter from the job's own split
        stream: recompute it independently. *)
     let stream = (Rng.split (Rng.create 7) 1).(0) in
     let expect =
       List.init 2 (fun k ->
           Float.min policy.Job.backoff_max_s
             (policy.Job.backoff_base_s *. (2.0 ** Float.of_int k))
           *. (1.0 +. (policy.Job.jitter *. Rng.float stream)))
     in
     Alcotest.(check bool) "backoff schedule reproducible" true (backoffs = expect);
     Alcotest.(check bool) "waits grow" true
       (match backoffs with [ a; b ] -> b > a | _ -> false)
   | st, n, _ -> Alcotest.failf "flaky: %s after %d attempts" (Sup.describe_state st) n);
  Alcotest.(check int) "retries counted" 2 report.Sup.retries

let test_permanent_failure_not_retried () =
  let report =
    Sup.run ~config:test_config (Rng.create 1) [ job "broken" (permanent_work ()) ]
  in
  match state_of report "broken" with
  | Sup.Failed { severity = Sup.Permanent; attempts = 1; _ }, 1, [] -> ()
  | st, n, _ -> Alcotest.failf "broken: %s after %d attempts" (Sup.describe_state st) n

let test_crash_contained_and_retried () =
  (* A raising job is a transient engine failure: retried, then Failed —
     never an escaped exception. Same story with and without a pool. *)
  let run pool =
    Sup.run ?pool ~config:test_config (Rng.create 3)
      [ job ~policy:{ no_backoff with Job.max_retries = 2 } "crasher"
          (Chaos.raising_work ~msg:"boom" ()) ]
  in
  let check report =
    match state_of report "crasher" with
    | Sup.Failed { error = Eda_error.Engine_failure { msg; _ };
                   severity = Sup.Transient; attempts = 3 }, 3, _ ->
      let contains_boom =
        let n = String.length msg in
        let rec scan i = i + 4 <= n && (String.sub msg i 4 = "boom" || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) "exception text preserved" true contains_boom
    | st, n, _ -> Alcotest.failf "crasher: %s after %d attempts" (Sup.describe_state st) n
  in
  check (run None);
  Pool.with_pool ~num_domains:2 (fun p -> check (run (Some p)))

let test_quarantine_trips_per_class () =
  (* Serial waves (wave_size 1): two permanent failures in class "bad"
     trip the breaker; the third "bad" job is refused without dispatch,
     while the "good" class is untouched. *)
  let config = { test_config with Sup.wave_size = 1; quarantine_after = 2 } in
  let report =
    Sup.run ~config (Rng.create 1)
      [ job ~klass:"bad" "bad1" (permanent_work ());
        job ~klass:"bad" "bad2" (permanent_work ());
        job ~klass:"good" "good1" (ok_work "fine");
        job ~klass:"bad" "bad3" (permanent_work ()) ]
  in
  (match state_of report "bad3" with
   | Sup.Quarantined { klass = "bad"; strikes = 2 }, 0, [] -> ()
   | st, n, _ -> Alcotest.failf "bad3: %s after %d attempts" (Sup.describe_state st) n);
  (match state_of report "good1" with
   | Sup.Done _, 1, _ -> ()
   | st, _, _ -> Alcotest.failf "good1: %s" (Sup.describe_state st));
  Alcotest.(check int) "quarantined count" 1 report.Sup.quarantined;
  Alcotest.(check int) "failed count" 2 report.Sup.failed

let test_success_resets_strikes () =
  (* fail, fail, succeed, fail: the success resets the class counter, so
     quarantine_after=3 never trips. *)
  let config = { test_config with Sup.wave_size = 1; quarantine_after = 3 } in
  let report =
    Sup.run ~config (Rng.create 1)
      [ job ~policy:no_backoff "f1" (permanent_work ());
        job ~policy:no_backoff "f2" (permanent_work ());
        job "ok" (ok_work "fine");
        job ~policy:no_backoff "f3" (permanent_work ()) ]
  in
  Alcotest.(check int) "no quarantine" 0 report.Sup.quarantined;
  Alcotest.(check int) "three failures" 3 report.Sup.failed

let test_queue_depth_shed () =
  let config = { test_config with Sup.max_queue_depth = Some 2 } in
  let report =
    Sup.run ~config (Rng.create 1)
      (List.init 4 (fun i -> job (Printf.sprintf "j%d" i) (ok_work "fine")))
  in
  Alcotest.(check int) "two ran" 2 report.Sup.succeeded;
  Alcotest.(check int) "two shed" 2 report.Sup.shed;
  (match state_of report "j3" with
   | Sup.Shed (Sup.Queue_depth { limit = 2 }), 0, [] -> ()
   | st, _, _ -> Alcotest.failf "j3: %s" (Sup.describe_state st))

let test_admission_exhaustion_sheds_pending () =
  (* Stalling jobs burn the small admission budget; once it is gone the
     remaining waves are shed with the exhaustion reason. *)
  let config = { test_config with Sup.wave_size = 1 } in
  let stall = { no_backoff with Job.max_retries = 0 } in
  let report =
    Sup.run ~config ~budget:(Budget.create ~steps:40 ()) (Rng.create 1)
      (List.init 6 (fun i ->
           job ~policy:stall (Printf.sprintf "s%d" i) (Chaos.stalling_work ())))
  in
  Alcotest.(check int) "every job terminal" 6 (List.length report.Sup.outcomes);
  Alcotest.(check bool) "some attempts ran" true (report.Sup.failed > 0);
  Alcotest.(check bool) "later jobs shed on exhaustion" true
    (List.exists
       (fun o ->
         match o.Sup.state with
         | Sup.Shed (Sup.Admission_exhausted Budget.Out_of_steps) -> true
         | _ -> false)
       report.Sup.outcomes);
  (* Shed + failed covers everything; nothing succeeded or vanished. *)
  Alcotest.(check int) "taxonomy complete" 6 (report.Sup.failed + report.Sup.shed)

(* --- the chaos property -------------------------------------------------- *)

(* Build one job list covering the whole failure space:
   - every netlist corruption x every engine consumer (parse feeds the
     corrupted text to lint / synthesis semantics via of_string_result,
     then runs the engine when parsing survives);
   - the concurrency scenarios: raising, stalling-under-starvation,
     flaky-then-ok;
   - checkpoint-file corruption: a flow job resuming from a truncated or
     bit-flipped on-disk checkpoint.
   All seeds fixed; [make_jobs] rebuilds the identical list for every
   domain count (flaky_work carries per-instance state, so the list must
   be rebuilt per run). *)
let chaos_jobs_dir = Filename.concat (Filename.get_temp_dir_name ()) "secure_eda_chaos"

let write_corrupt_checkpoint corruption =
  if not (Sys.file_exists chaos_jobs_dir) then Sys.mkdir chaos_jobs_dir 0o755;
  let path =
    Filename.concat chaos_jobs_dir ("ck-" ^ Chaos.file_corruption_name corruption ^ ".json")
  in
  if Sys.file_exists path then Sys.remove path;
  (match Flow.run (Rng.create 5) ~checkpoint:path (Gen.c17 ()) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "checkpointed flow: %s" (Eda_error.to_string e));
  Chaos.corrupt_file (Rng.create 99) corruption path;
  path

let make_jobs () =
  let text = Io.to_string (Gen.c17 ()) in
  let policy = { no_backoff with Job.max_retries = 1 } in
  let engine_consumers =
    [ ("lint",
       fun corrupted (_ : Budget.t) ->
         Result.map
           (fun c -> Printf.sprintf "lint ok: %d issues" (List.length (Netlist.Lint.check c)))
           (Io.of_string_result corrupted));
      ("synth",
       fun corrupted (_ : Budget.t) ->
         let ( let* ) = Eda_error.( let* ) in
         let* c = Io.of_string_result corrupted in
         let* opt =
           Eda_error.guard ~engine:"synth" (fun () -> Synth.Pipeline.run_recipe "optimize" c)
         in
         Ok (Printf.sprintf "synth ok: %d gates" (Netlist.Circuit.stats opt).Netlist.Circuit.gates));
      ("atpg",
       fun corrupted budget ->
         let ( let* ) = Eda_error.( let* ) in
         let* c = Io.of_string_result corrupted in
         let* r = Dft.Atpg.run_checked ~budget c in
         Ok (Printf.sprintf "atpg ok: %.2f" r.Dft.Atpg.coverage));
      ("flow",
       fun corrupted budget ->
         let ( let* ) = Eda_error.( let* ) in
         let* c = Io.of_string_result corrupted in
         let* r = Flow.run (Rng.create 5) ~budget c in
         Ok (Printf.sprintf "flow ok: %d degraded" r.Flow.degraded_stages)) ]
  in
  let corruption_jobs =
    List.concat_map
      (fun corruption ->
        (* One rng per (corruption) so the corrupted text is identical
           across engines and across runs. *)
        let corrupted = Chaos.corrupt (Rng.create 11) corruption text in
        List.map
          (fun (engine, consume) ->
            job ~klass:engine ~policy
              (Printf.sprintf "%s-%s" engine (Chaos.corruption_name corruption))
              (consume corrupted))
          engine_consumers)
      Chaos.all_corruptions
  in
  let scenario_jobs =
    [ job ~klass:"crash" ~policy "raising" (Chaos.raising_work ());
      job ~klass:"stall"
        ~policy:{ policy with Job.attempt_steps = Some 50 }
        "stalling" (Chaos.stalling_work ());
      job ~klass:"flaky" ~policy:{ policy with Job.max_retries = 2 } "flaky"
        (Chaos.flaky_work ~fails:2 ()) ]
  in
  let checkpoint_jobs =
    List.map
      (fun corruption ->
        let path = write_corrupt_checkpoint corruption in
        job ~klass:"checkpoint" ~policy
          ("resume-" ^ Chaos.file_corruption_name corruption)
          (fun budget ->
            Flow.run (Rng.create 5) ~budget ~checkpoint:path (Gen.c17 ())
            |> Result.map (fun r -> Printf.sprintf "resumed: %d stages" r.Flow.resumed)))
      Chaos.all_file_corruptions
  in
  corruption_jobs @ scenario_jobs @ checkpoint_jobs

let run_chaos_sweep pool =
  Sup.run ?pool ~config:test_config ~budget:(Budget.create ~steps:2_000_000 ())
    (Rng.create 42) (make_jobs ())

let test_chaos_sweep_all_terminal () =
  let report = run_chaos_sweep None in
  let n = List.length (make_jobs ()) in
  Alcotest.(check int) "every job has an outcome" n (List.length report.Sup.outcomes);
  Alcotest.(check int) "taxonomy covers everything" n
    (report.Sup.succeeded + report.Sup.failed + report.Sup.shed + report.Sup.quarantined);
  (* Specific classifications we know must hold: *)
  (match state_of report "raising" with
   | Sup.Failed { severity = Sup.Transient; _ }, _, _ -> ()
   | st, _, _ -> Alcotest.failf "raising: %s" (Sup.describe_state st));
  (match state_of report "flaky" with
   | Sup.Done _, 3, _ -> ()
   | st, n, _ -> Alcotest.failf "flaky: %s after %d" (Sup.describe_state st) n);
  (match state_of report "stalling" with
   | Sup.Failed { error = Eda_error.Budget_exhausted _; severity = Sup.Transient; _ }, _, _ -> ()
   | st, _, _ -> Alcotest.failf "stalling: %s" (Sup.describe_state st));
  List.iter
    (fun corruption ->
      match state_of report ("resume-" ^ Chaos.file_corruption_name corruption) with
      | Sup.Failed { error = Eda_error.Invalid_input { what = "checkpoint"; _ };
                     severity = Sup.Permanent; attempts = 1 }, 1, _ -> ()
      | st, _, _ ->
        Alcotest.failf "resume-%s: %s"
          (Chaos.file_corruption_name corruption)
          (Sup.describe_state st))
    Chaos.all_file_corruptions;
  (* A harmless corruption (garbage-line is skipped by the parser only if
     lint accepts it) may legitimately succeed — but nothing may be left
     untried when budget was ample. *)
  Alcotest.(check int) "nothing shed under an ample budget" 0 report.Sup.shed

let test_chaos_sweep_bit_identical_across_domains () =
  let baseline = Sup.fingerprint (run_chaos_sweep None) in
  Alcotest.(check bool) "fingerprint non-trivial" true (String.length baseline > 0);
  List.iter
    (fun d ->
      Pool.with_pool ~num_domains:d (fun p ->
          let fp = Sup.fingerprint (run_chaos_sweep (Some p)) in
          Alcotest.(check string)
            (Printf.sprintf "identical outcomes at %d domains" d)
            baseline fp;
          (* The pool must still be usable after absorbing the sweep. *)
          let after = Pool.parallel_map p ~f:(fun _ctx x -> x * 2) [| 1; 2; 3 |] in
          Alcotest.(check bool)
            (Printf.sprintf "pool usable after sweep at %d domains" d)
            true
            (after = [| Some 2; Some 4; Some 6 |])))
    [ 1; 2; 8 ]

let () =
  Alcotest.run "service"
    [ ( "try-map",
        [ Alcotest.test_case "crash isolation" `Quick test_try_map_isolates_crashes;
          Alcotest.test_case "budget skip is None" `Quick test_try_map_budget_skips_are_none ] );
      ( "supervisor",
        [ Alcotest.test_case "all success" `Quick test_all_success;
          Alcotest.test_case "flaky retried" `Quick test_flaky_job_retried_to_success;
          Alcotest.test_case "permanent not retried" `Quick test_permanent_failure_not_retried;
          Alcotest.test_case "crash contained" `Quick test_crash_contained_and_retried;
          Alcotest.test_case "quarantine" `Quick test_quarantine_trips_per_class;
          Alcotest.test_case "success resets strikes" `Quick test_success_resets_strikes;
          Alcotest.test_case "queue-depth shed" `Quick test_queue_depth_shed;
          Alcotest.test_case "admission exhaustion" `Quick test_admission_exhaustion_sheds_pending ] );
      ( "chaos-property",
        [ Alcotest.test_case "all terminal" `Quick test_chaos_sweep_all_terminal;
          Alcotest.test_case "bit-identical across domains" `Quick
            test_chaos_sweep_bit_identical_across_domains ] ) ]
