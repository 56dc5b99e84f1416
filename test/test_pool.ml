(* Tests for the domain pool and the determinism contract of the
   pool-aware engines: the same answer at any domain count. *)

module Pool = Eda_util.Pool
module Budget = Eda_util.Budget
module Rng = Eda_util.Rng
module Gen = Netlist.Generators

(* --- Rng.split ---------------------------------------------------------- *)

let test_rng_split_reproducible () =
  let draws rng = Array.init 8 (fun _ -> Rng.next_int64 rng) in
  let a = Array.map draws (Rng.split (Rng.create 42) 6) in
  let b = Array.map draws (Rng.split (Rng.create 42) 6) in
  Alcotest.(check bool) "same parent seed, same streams" true (a = b);
  let c = Array.map draws (Rng.split (Rng.create 43) 6) in
  Alcotest.(check bool) "different parent seed, different streams" true (a <> c)

let test_rng_split_disjoint () =
  (* Streams must look independent: across 16 streams x 16 draws, no
     value repeats (2^-64-scale collision probability if truly random). *)
  let streams = Rng.split (Rng.create 7) 16 in
  let seen = Hashtbl.create 256 in
  Array.iteri
    (fun s rng ->
      for d = 0 to 15 do
        let v = Rng.next_int64 rng in
        if Hashtbl.mem seen v then
          Alcotest.failf "stream %d draw %d collides with an earlier draw" s d;
        Hashtbl.replace seen v ()
      done)
    streams;
  Alcotest.(check int) "all draws distinct" 256 (Hashtbl.length seen)

let test_rng_split_bad_count () =
  Alcotest.check_raises "negative count" (Invalid_argument "Rng.split: negative count")
    (fun () -> ignore (Rng.split (Rng.create 1) (-1)))

(* --- pool core ---------------------------------------------------------- *)

let test_map_ordered_any_size () =
  let inputs = Array.init 100 (fun i -> i) in
  let expect = Array.map (fun i -> Some (i * i)) inputs in
  List.iter
    (fun d ->
      Pool.with_pool ~num_domains:d (fun p ->
          let got = Pool.parallel_map p ~f:(fun _ctx x -> x * x) inputs in
          Alcotest.(check bool)
            (Printf.sprintf "ordered results at %d domains" d)
            true (got = expect)))
    [ 1; 2; 3; 8 ]

let test_reduce_deterministic () =
  (* Float reduction order matters; the ordered fold must give the exact
     same sum at every domain count. *)
  let inputs = Array.init 257 (fun i -> i) in
  let sum d =
    Pool.with_pool ~num_domains:d (fun p ->
        Pool.parallel_reduce p
          ~f:(fun _ctx i -> 1.0 /. Float.of_int (i + 1))
          ~combine:( +. ) ~init:0.0 inputs)
  in
  let s1 = sum 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "bitwise-equal sum at %d domains" d)
        true (Float.equal s1 (sum d)))
    [ 2; 4; 8 ]

let test_task_exception_reraised () =
  Pool.with_pool ~num_domains:2 (fun p ->
      Alcotest.check_raises "lowest-index exception wins" (Failure "task 3")
        (fun () ->
          ignore
            (Pool.parallel_map p
               ~f:(fun _ctx i -> if i >= 3 then failwith (Printf.sprintf "task %d" i))
               (Array.init 8 (fun i -> i))));
      (* The pool survives a raising batch. *)
      let ok = Pool.parallel_map p ~f:(fun _ctx x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check bool) "pool reusable after exception" true
        (ok = [| Some 2; Some 3; Some 4 |]))

let test_task_exception_schedule_independent () =
  (* Stripes at 2 domains are [0..3] and [4..7]. Task 4 raises first;
     task 2 waits until it has, so a stop-on-first-raise pool would skip
     task 3 and re-raise task 4's exception. Every task below the lowest
     raising index must still run, so task 3's exception wins. *)
  Pool.with_pool ~num_domains:2 (fun p ->
      let task4_raised = Atomic.make false in
      let ran = Array.init 8 (fun _ -> Atomic.make false) in
      Alcotest.check_raises "task 3 raises below task 4" (Failure "task 3") (fun () ->
          ignore
            (Pool.parallel_map p
               ~f:(fun _ctx i ->
                 Atomic.set ran.(i) true;
                 if i = 2 then begin
                   let deadline = Unix.gettimeofday () +. 10.0 in
                   while (not (Atomic.get task4_raised)) && Unix.gettimeofday () < deadline do
                     Domain.cpu_relax ()
                   done;
                   Unix.sleepf 0.05
                 end;
                 if i = 4 then Atomic.set task4_raised true;
                 if i >= 3 then failwith (Printf.sprintf "task %d" i))
               (Array.init 8 (fun i -> i))));
      Alcotest.(check bool) "every task below the raise ran" true
        (Array.for_all Atomic.get (Array.sub ran 0 4)))

let test_budget_cancellation_partial () =
  (* Task 0 (always on the calling slot, which owns the budget poll)
     cancels the budget; the spinning tasks only return once they observe
     cancellation. Stripes at 2 domains are [0;1] and [2;3], so task 1
     and task 3 are deterministically skipped, task 0 deterministically
     completes, and every domain joins. *)
  Pool.with_pool ~num_domains:2 (fun p ->
      let b = Budget.create ~steps:1000 () in
      let results =
        Pool.parallel_map ~budget:b p
          ~f:(fun ctx i ->
            if i = 0 then Budget.cancel b
            else while not (ctx.Pool.cancelled ()) do Domain.cpu_relax () done;
            i)
          (Array.init 4 (fun i -> i))
      in
      Alcotest.(check bool) "task 0 completed" true (results.(0) = Some 0);
      Alcotest.(check bool) "task 1 skipped" true (results.(1) = None);
      Alcotest.(check bool) "task 3 skipped" true (results.(3) = None);
      (* A fresh batch on the same pool still runs everything. *)
      let again = Pool.parallel_map p ~f:(fun _ctx x -> -x) [| 1; 2 |] in
      Alcotest.(check bool) "pool reusable after cancellation" true
        (again = [| Some (-1); Some (-2) |]))

let test_exhausted_budget_skips_batch () =
  Pool.with_pool ~num_domains:2 (fun p ->
      let b = Budget.create ~steps:1 () in
      Budget.tick b;
      let r = Pool.parallel_map ~budget:b p ~f:(fun _ctx x -> x) [| 1; 2; 3 |] in
      Alcotest.(check bool) "nothing ran" true (Array.for_all (( = ) None) r))

let test_default_jobs_env () =
  let set v = Unix.putenv "SECURE_EDA_JOBS" v in
  set "3";
  Alcotest.(check int) "reads SECURE_EDA_JOBS" 3 (Pool.default_jobs ());
  set "not-a-number";
  Alcotest.(check int) "garbage falls back to 1" 1 (Pool.default_jobs ());
  set "0";
  Alcotest.(check int) "non-positive falls back to 1" 1 (Pool.default_jobs ());
  set "999";
  Alcotest.(check int) "clamped to 64" 64 (Pool.default_jobs ());
  set ""

(* --- engine determinism across domain counts ---------------------------- *)

let pool_sizes = [ 1; 2; 8 ]

let test_tvla_identical_across_domains () =
  let masked = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_unaware in
  let campaign pool =
    Sidechannel.Leakage.tvla_campaign ?pool (Rng.create 515) masked
      ~traces_per_class:300 ~noise_sigma:0.3
  in
  (* Leak detection itself is covered by the sidechannel suite; here the
     subject is determinism, so 300 traces per class is plenty. *)
  let seq = campaign None in
  Alcotest.(check bool) "t statistic is meaningful" true (seq.Sidechannel.Tvla.max_abs_t > 0.0);
  List.iter
    (fun d ->
      Pool.with_pool ~num_domains:d (fun p ->
          let r = campaign (Some p) in
          Alcotest.(check bool)
            (Printf.sprintf "bit-identical t statistics at %d domains" d)
            true
            (r.Sidechannel.Tvla.t_per_sample = seq.Sidechannel.Tvla.t_per_sample
             && Float.equal r.Sidechannel.Tvla.max_abs_t seq.Sidechannel.Tvla.max_abs_t
             && r.Sidechannel.Tvla.leaky_samples = seq.Sidechannel.Tvla.leaky_samples)))
    pool_sizes

let test_placement_multistart_identical_across_domains () =
  let c = Gen.alu 4 in
  let place pool =
    Physical.Placement.place ~starts:4 ~moves:1500 ?pool (Rng.create 99) c
  in
  let seq = place None in
  Alcotest.(check bool) "multi-start beats or ties a single start" true
    (Physical.Placement.wirelength seq.Physical.Placement.placement
     <= Physical.Placement.wirelength
          (Physical.Placement.place ~moves:1500 (Rng.create 99) c).Physical.Placement
            .placement);
  List.iter
    (fun d ->
      Pool.with_pool ~num_domains:d (fun p ->
          let r = place (Some p) in
          Alcotest.(check int)
            (Printf.sprintf "same winning start at %d domains" d)
            seq.Physical.Placement.best_start r.Physical.Placement.best_start;
          Alcotest.(check bool)
            (Printf.sprintf "same positions at %d domains" d)
            true
            (r.Physical.Placement.placement.Physical.Placement.position
             = seq.Physical.Placement.placement.Physical.Placement.position)))
    pool_sizes

(* --- cross-domain trace capture ----------------------------------------- *)

module T = Eda_util.Telemetry

(* Deterministic clocks: the caller ticks from 0, task [i] from
   1000*(i+1) — every event timestamp is a pure function of who emitted
   it, never of scheduling. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

let task_clock i =
  let t = ref (1000.0 *. Float.of_int (i + 1)) in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

(* One traced pooled batch at [d] domains: 8 tasks, each recording a
   span, a counter and a gauge. Returns the raw merged event list. *)
let traced_batch d =
  let sink, events = T.memory_sink () in
  T.with_sink ~clock:(fake_clock ()) ~task_clock sink (fun () ->
      Pool.with_pool ~num_domains:d (fun p ->
          ignore
            (Pool.parallel_map p
               ~f:(fun _ctx i ->
                 T.with_span "task.work" ~attrs:[ ("i", T.Int i) ] (fun () ->
                     T.count "work.done" 1;
                     T.observe "work.cost" (Float.of_int i));
                 i * i)
               (Array.init 8 (fun i -> i)))));
  events ()

let canonical_lines events =
  String.concat "\n" (List.map T.event_to_line (T.Trace.canonicalize events))

let test_merged_trace_bit_identical () =
  let base = canonical_lines (traced_batch 1) in
  Alcotest.(check bool) "canonical trace is non-trivial" true (String.length base > 0);
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "canonical merged trace identical at %d domains" d)
        base
        (canonical_lines (traced_batch d)))
    [ 2; 8 ]

let test_merged_trace_structure () =
  let events = traced_batch 2 in
  match T.Trace.of_events events with
  | Error msg -> Alcotest.fail ("merged trace invalid: " ^ msg)
  | Ok trace ->
    let tasks = T.Trace.find_spans trace "pool.task" in
    Alcotest.(check int) "one pool.task span per task" 8 (List.length tasks);
    Alcotest.(check (list (option int))) "task attrs in index order"
      (List.init 8 (fun i -> Some i))
      (List.map
         (fun sp ->
           match List.assoc_opt "task" sp.T.Trace.attrs with
           | Some (T.Int i) -> Some i
           | _ -> None)
         tasks);
    List.iter
      (fun sp ->
        Alcotest.(check bool) "every task span carries a domain attr" true
          (List.mem_assoc "domain" sp.T.Trace.attrs);
        Alcotest.(check (list string)) "worker span nested under its task"
          [ "task.work" ]
          (List.map (fun s -> s.T.Trace.name) sp.T.Trace.children))
      tasks;
    (match T.Trace.find_spans trace "pool.batch" with
     | [ batch ] ->
       Alcotest.(check int) "all tasks reparented under pool.batch" 8
         (List.length
            (List.filter (fun s -> s.T.Trace.name = "pool.task") batch.T.Trace.children))
     | l -> Alcotest.failf "expected one pool.batch span, got %d" (List.length l));
    Alcotest.(check (option (float 1e-9))) "worker counters merged" (Some 8.0)
      (List.assoc_opt "work.done" trace.T.Trace.counter_totals);
    (* Worker moments merged in task order and summarized at teardown. *)
    (match List.assoc_opt "work.cost" trace.T.Trace.hists with
     | Some attrs ->
       Alcotest.(check bool) "hist n covers every task" true
         (List.assoc_opt "n" attrs = Some (T.Int 8));
       Alcotest.(check bool) "hist min observed" true
         (List.assoc_opt "min" attrs = Some (T.Float 0.0));
       Alcotest.(check bool) "hist max observed" true
         (List.assoc_opt "max" attrs = Some (T.Float 7.0))
     | None -> Alcotest.fail "worker histogram lost in merge");
    (* The per-domain timeline sees the capture spans. *)
    let timeline = T.Trace.domain_timeline trace in
    Alcotest.(check int) "timeline covers all 8 tasks" 8
      (List.fold_left (fun acc (_, tasks, _) -> acc + tasks) 0 timeline)

let test_crashed_worker_trace_well_formed () =
  (* A raising task still delivers its capture buffer: the merged trace
     stays structurally valid and the crashed pool.task span carries the
     error attribute. Task 0 is on the caller stripe, so it always runs. *)
  let sink, events = T.memory_sink () in
  let raised =
    T.with_sink ~clock:(fake_clock ()) ~task_clock sink (fun () ->
        Pool.with_pool ~num_domains:2 (fun p ->
            match
              Pool.parallel_map p
                ~f:(fun _ctx i ->
                  if i = 0 then failwith "boom";
                  i)
                (Array.init 4 (fun i -> i))
            with
            | _ -> false
            | exception Failure _ -> true))
  in
  Alcotest.(check bool) "exception re-raised through the batch" true raised;
  match T.Trace.of_events (events ()) with
  | Error msg -> Alcotest.fail ("crashed batch broke the trace: " ^ msg)
  | Ok trace ->
    let crashed =
      List.filter
        (fun sp -> List.mem_assoc "error" sp.T.Trace.end_attrs)
        (T.Trace.find_spans trace "pool.task")
    in
    (match crashed with
     | [ sp ] ->
       Alcotest.(check bool) "the crashed span is task 0" true
         (List.assoc_opt "task" sp.T.Trace.attrs = Some (T.Int 0));
       Alcotest.(check bool) "crashed span still closed" true
         (sp.T.Trace.duration <> None)
     | l -> Alcotest.failf "expected exactly one crashed task span, got %d" (List.length l));
    (match T.Trace.find_spans trace "pool.batch" with
     | [ batch ] ->
       Alcotest.(check bool) "batch span records the re-raise" true
         (List.mem_assoc "error" batch.T.Trace.end_attrs)
     | _ -> Alcotest.fail "expected one pool.batch span")

let () =
  Alcotest.run "pool"
    [ ( "rng-split",
        [ Alcotest.test_case "reproducible" `Quick test_rng_split_reproducible;
          Alcotest.test_case "disjoint" `Quick test_rng_split_disjoint;
          Alcotest.test_case "bad count" `Quick test_rng_split_bad_count ] );
      ( "pool",
        [ Alcotest.test_case "ordered map" `Quick test_map_ordered_any_size;
          Alcotest.test_case "deterministic reduce" `Quick test_reduce_deterministic;
          Alcotest.test_case "exception reraised" `Quick test_task_exception_reraised;
          Alcotest.test_case "exception schedule-independent" `Quick
            test_task_exception_schedule_independent;
          Alcotest.test_case "budget cancellation" `Quick test_budget_cancellation_partial;
          Alcotest.test_case "pre-exhausted budget" `Quick test_exhausted_budget_skips_batch;
          Alcotest.test_case "default jobs env" `Quick test_default_jobs_env ] );
      ( "tracing",
        [ Alcotest.test_case "merged trace bit-identical" `Quick
            test_merged_trace_bit_identical;
          Alcotest.test_case "merged trace structure" `Quick test_merged_trace_structure;
          Alcotest.test_case "crashed worker trace" `Quick
            test_crashed_worker_trace_well_formed ] );
      ( "engines",
        [ Alcotest.test_case "tvla identical" `Quick test_tvla_identical_across_domains;
          Alcotest.test_case "placement identical" `Quick
            test_placement_multistart_identical_across_domains ] ) ]
