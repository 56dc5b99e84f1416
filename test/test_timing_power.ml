(* Tests for static timing analysis, event-driven glitch simulation and the
   power models. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Sta = Timing.Sta
module Ev = Reference.Event_sim_ref
module Rng = Eda_util.Rng

let test_sta_single_gate () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let y = Circuit.add_gate c Gate.And [ a; b ] in
  Circuit.set_output c "y" y;
  let r = Sta.analyze c in
  Alcotest.(check (float 1e-9)) "and delay" (Gate.delay Gate.And) r.Sta.critical_path_delay;
  Alcotest.(check string) "critical endpoint" "y" r.Sta.critical_output

let test_sta_chain_adds () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let n1 = Circuit.add_gate c Gate.Not [ a ] in
  let n2 = Circuit.add_gate c Gate.Not [ n1 ] in
  let n3 = Circuit.add_gate c Gate.Not [ n2 ] in
  Circuit.set_output c "y" n3;
  let r = Sta.analyze c in
  Alcotest.(check (float 1e-9)) "3 nots" (3.0 *. Gate.delay Gate.Not) r.Sta.critical_path_delay

let test_sta_takes_max_path () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let slow = Circuit.add_gate c Gate.Xor [ a; Circuit.add_gate c Gate.Xor [ a; a ] ] in
  let fast = Circuit.add_gate c Gate.Not [ a ] in
  let y = Circuit.add_gate c Gate.And [ slow; fast ] in
  Circuit.set_output c "y" y;
  let r = Sta.analyze c in
  Alcotest.(check (float 1e-9)) "max path"
    ((2.0 *. Gate.delay Gate.Xor) +. Gate.delay Gate.And)
    r.Sta.critical_path_delay

let test_depth () =
  Alcotest.(check int) "c17 depth" 3 (Sta.depth (Gen.c17 ()));
  Alcotest.(check int) "parity16 tree depth" 4 (Sta.depth (Gen.parity_tree 16))

let test_varied_delays_deterministic () =
  let c = Gen.c17 () in
  let d1 = Sta.varied_delays (Rng.create 5) ~sigma:0.05 c in
  let d2 = Sta.varied_delays (Rng.create 5) ~sigma:0.05 c in
  Alcotest.(check (float 1e-12)) "same seed same delays" (d1 6 Gate.Nand) (d2 6 Gate.Nand);
  let r1 = Sta.analyze ~delay_of:d1 c in
  let r0 = Sta.analyze c in
  Alcotest.(check bool) "variation changes delay" true
    (Float.abs (r1.Sta.critical_path_delay -. r0.Sta.critical_path_delay) > 1e-9)

let test_event_sim_final_values_match () =
  (* After all events settle, net values equal the static evaluation. *)
  let rng = Rng.create 31 in
  for seed = 0 to 10 do
    let c = Gen.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:3 in
    let prev = Array.init 6 (fun _ -> Rng.bool rng) in
    let next = Array.init 6 (fun _ -> Rng.bool rng) in
    let transitions = Ev.collect c ~prev_inputs:prev ~next_inputs:next in
    let values = Netlist.Sim.eval_all c prev in
    List.iter (fun tr -> values.(tr.Ev.node) <- tr.Ev.value) transitions;
    Alcotest.(check bool) (Printf.sprintf "seed %d settles correctly" seed) true
      (values = Netlist.Sim.eval_all c next)
  done

let test_event_sim_no_events_when_stable () =
  let c = Gen.c17 () in
  let inputs = [| true; false; true; false; true |] in
  let transitions = Ev.collect c ~prev_inputs:inputs ~next_inputs:inputs in
  Alcotest.(check int) "no transitions" 0 (List.length transitions)

let test_event_sim_produces_glitch () =
  (* y = a XOR a' where a' = NOT(NOT(a)): skew between the two paths makes
     the XOR glitch even though its final value is constant 0. *)
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let n1 = Circuit.add_gate c Gate.Not [ a ] in
  let n2 = Circuit.add_gate c Gate.Not [ n1 ] in
  let y = Circuit.add_gate c Gate.Xor [ a; n2 ] in
  Circuit.set_output c "y" y;
  let transitions = Ev.collect c ~prev_inputs:[| false |] ~next_inputs:[| true |] in
  let glitchers = Ev.glitching_nodes c transitions in
  Alcotest.(check bool) "xor glitches" true (List.mem y glitchers);
  (* Final value of y is 0 both before and after. *)
  Alcotest.(check bool) "final y stable" false (Netlist.Sim.eval c [| true |]).(0)

let test_event_sim_times_respect_delay () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let y = Circuit.add_gate c Gate.And [ a; a ] in
  Circuit.set_output c "y" y;
  let transitions = Ev.collect c ~prev_inputs:[| false |] ~next_inputs:[| true |] in
  (match transitions with
   | [ t_in; t_gate ] ->
     Alcotest.(check (float 1e-9)) "input at 0" 0.0 t_in.Ev.time;
     Alcotest.(check (float 1e-9)) "gate after delay" (Gate.delay Gate.And) t_gate.Ev.time
   | _ -> Alcotest.fail "expected exactly two transitions")

let test_event_sim_telemetry () =
  (* One counter event per name per call — never per simulated event —
     and the storm counter fires only on a storm. *)
  let module T = Eda_util.Telemetry in
  let c = Gen.parity_tree 8 in
  let sink, events = T.memory_sink () in
  let transitions =
    T.with_sink sink (fun () ->
        List.length
          (Ev.collect c ~prev_inputs:(Array.make 8 false) ~next_inputs:(Array.make 8 true)))
  in
  let named kind name = List.filter (fun e -> e.T.kind = kind && e.T.name = name) (events ()) in
  let total name = List.fold_left (fun acc e -> acc +. e.T.value) 0.0 (named T.Count name) in
  Alcotest.(check int) "one events counter" 1 (List.length (named T.Count "event_sim.events"));
  Alcotest.(check int) "one high-water gauge" 1
    (List.length (named T.Gauge "event_sim.heap_high_water"));
  Alcotest.(check (float 0.0)) "transitions counted" (Float.of_int transitions)
    (total "event_sim.transitions");
  Alcotest.(check bool) "pops cover transitions" true
    (total "event_sim.events" >= Float.of_int transitions);
  Alcotest.(check (float 0.0)) "no storm" 0.0 (total "event_sim.storms");
  let storm = Netlist.Bench_gen.c6288_like ~width:6 () in
  let ni = Circuit.num_inputs storm in
  T.with_sink sink (fun () ->
      try ignore (Ev.collect storm ~prev_inputs:(Array.make ni false) ~next_inputs:(Array.make ni true))
      with Invalid_argument _ -> ());
  Alcotest.(check (float 0.0)) "storm counted" 1.0 (total "event_sim.storms")

let test_event_sim_rejects_bad_lengths () =
  (* Every input vector must have one entry per circuit input; a short or
     long one is rejected up front with both counts, never reported as an
     event storm (failure classifiers match that text). *)
  let c = Gen.c17 () in
  let ok = Array.make 5 false and flip = Array.make 5 true in
  let expect what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument m ->
      let has key =
        let rec go i =
          i + String.length key <= String.length m
          && (String.sub m i (String.length key) = key || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) (what ^ " names the circuit's input count") true
        (has "5 inputs");
      Alcotest.(check bool) (what ^ " is not an event storm") false (has "event storm")
  in
  List.iter
    (fun len ->
      let bad = Array.make len true in
      let run ?input_arrivals ~prev_inputs ~next_inputs () =
        ignore (Ev.collect ?input_arrivals c ~prev_inputs ~next_inputs)
      in
      let tag = Printf.sprintf " of length %d" len in
      expect ("prev_inputs" ^ tag) (run ~prev_inputs:bad ~next_inputs:flip);
      expect ("next_inputs" ^ tag) (run ~prev_inputs:ok ~next_inputs:bad);
      expect ("input_arrivals" ^ tag)
        (run ~input_arrivals:(Array.make len 0.0) ~prev_inputs:ok ~next_inputs:flip))
    [ 0; 4; 6 ];
  Alcotest.check_raises "message names both counts"
    (Invalid_argument "Event_sim.iter: next_inputs has 4 entries, the circuit has 5 inputs")
    (fun () -> ignore (Ev.collect c ~prev_inputs:ok ~next_inputs:(Array.make 4 true)));
  Alcotest.(check bool) "matching lengths still simulate" true
    (Ev.collect ~input_arrivals:(Array.make 5 0.0) c ~prev_inputs:ok ~next_inputs:flip <> []);
  (* [state] needs one entry per DFF, checked before [f] sees anything:
     a 2-bit counter enabled by [en], and c17, which has no DFFs. *)
  let seq = Circuit.create () in
  let en = Circuit.add_input ~name:"en" seq in
  let q0 = Circuit.add_dff seq ~d:en and q1 = Circuit.add_dff seq ~d:en in
  let t0 = Circuit.add_gate seq Gate.Xor [ q0; en ] in
  let c1 = Circuit.add_gate seq Gate.And [ q0; en ] in
  let t1 = Circuit.add_gate seq Gate.Xor [ q1; c1 ] in
  Circuit.connect_dff seq q0 ~d:t0;
  Circuit.connect_dff seq q1 ~d:t1;
  Circuit.set_output seq "q0" q0;
  Circuit.set_output seq "q1" q1;
  let calls = ref 0 in
  let run circuit ~inputs state () =
    Timing.Event_sim.iter ~state circuit ~prev_inputs:(Array.make inputs false)
      ~next_inputs:(Array.make inputs true) ~f:(fun _ _ _ -> incr calls)
  in
  List.iter
    (fun (circuit, inputs, state, msg) ->
      Alcotest.check_raises msg (Invalid_argument msg) (run circuit ~inputs state))
    [ (seq, 1, [||], "Event_sim.iter: state has 0 entries, the circuit has 2 DFFs");
      (seq, 1, [| true |], "Event_sim.iter: state has 1 entries, the circuit has 2 DFFs");
      (seq, 1, Array.make 3 true, "Event_sim.iter: state has 3 entries, the circuit has 2 DFFs");
      (c, 5, [| false |], "Event_sim.iter: state has 1 entries, the circuit has 0 DFFs") ];
  Alcotest.(check int) "rejected before f is called" 0 !calls;
  run seq ~inputs:1 [| true; false |] ();
  Alcotest.(check bool) "a full state still simulates" true (!calls > 0)

let test_power_trace_shape () =
  let rng = Rng.create 17 in
  let c = Gen.parity_tree 8 in
  let config = { Power.Model.time_bins = 10; bin_width_ps = 50.0; noise_sigma = 0.0 } in
  let tr =
    Power.Model.trace rng c ~config ~prev_inputs:(Array.make 8 false)
      ~next_inputs:(Array.make 8 true)
  in
  Alcotest.(check int) "bins" 10 (Array.length tr);
  Alcotest.(check bool) "energy deposited" true (Array.exists (fun e -> e > 0.0) tr);
  (* All 8 inputs toggle at t=0: bin 0 nonzero. *)
  Alcotest.(check bool) "no negative energy without noise" true
    (Array.for_all (fun e -> e >= 0.0) tr)

let test_power_noise_zero_is_deterministic () =
  let c = Gen.c17 () in
  let prev = Array.make 5 false and next = Array.make 5 true in
  let t1 =
    Power.Model.total_energy (Rng.create 1) c ~noise_sigma:0.0 ~prev_inputs:prev ~next_inputs:next
  in
  let t2 =
    Power.Model.total_energy (Rng.create 2) c ~noise_sigma:0.0 ~prev_inputs:prev ~next_inputs:next
  in
  Alcotest.(check (float 1e-9)) "deterministic" t1 t2;
  Alcotest.(check bool) "positive" true (t1 > 0.0)

let test_hd_sample_counts_switching () =
  let c = Gen.c17 () in
  let rng = Rng.create 3 in
  let inputs = Array.make 5 false in
  let same = Power.Model.hamming_distance_sample rng c ~noise_sigma:0.0 ~prev_inputs:inputs ~next_inputs:inputs in
  Alcotest.(check (float 1e-9)) "no switch no energy" 0.0 same;
  let diff =
    Power.Model.hamming_distance_sample rng c ~noise_sigma:0.0 ~prev_inputs:inputs
      ~next_inputs:(Array.make 5 true)
  in
  Alcotest.(check bool) "switching costs energy" true (diff > 0.0)

let test_hw_sample_monotone_in_ones () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let y = Circuit.add_gate c Gate.Or [ a; b ] in
  Circuit.set_output c "y" y;
  let sample = Power.Model.hamming_weight_sampler c in
  let scratch = Array.make (Circuit.node_count c) 0 in
  let hw inputs = (sample ~scratch ~lanes:1 ~inputs:(Array.map Bool.to_int inputs)).(0) in
  Alcotest.(check bool) "more ones more power" true (hw [| true; true |] > hw [| false; false |])

let test_iddq_trojan_increases_current () =
  let rng = Rng.create 7 in
  let clean = Gen.alu 4 in
  let troj = Trojan.Insert.insert rng ~trigger_width:2 ~patterns:2048 clean in
  let inputs = Array.make (Circuit.num_inputs clean) false in
  let i_clean =
    Power.Model.iddq_sample rng clean ~inputs ~noise_sigma:0.0 ~temperature_factor:1.0
  in
  let i_troj =
    Power.Model.iddq_sample rng troj.Trojan.Insert.infected ~inputs ~noise_sigma:0.0
      ~temperature_factor:1.0
  in
  Alcotest.(check bool) "extra cells leak" true (i_troj > i_clean)

let prop_event_sim_settles_to_static =
  QCheck.Test.make ~name:"event sim settles to static values" ~count:20
    QCheck.(pair (int_bound 500) (pair (int_bound 63) (int_bound 63)))
    (fun (seed, (p, q)) ->
      let c = Gen.random_dag ~seed ~inputs:6 ~gates:30 ~outputs:2 in
      let prev = Array.init 6 (fun i -> (p lsr i) land 1 = 1) in
      let next = Array.init 6 (fun i -> (q lsr i) land 1 = 1) in
      let transitions = Ev.collect c ~prev_inputs:prev ~next_inputs:next in
      let values = Netlist.Sim.eval_all c prev in
      List.iter (fun tr -> values.(tr.Ev.node) <- tr.Ev.value) transitions;
      values = Netlist.Sim.eval_all c next)

let () =
  Alcotest.run "timing_power"
    [ ("sta",
       [ Alcotest.test_case "single gate" `Quick test_sta_single_gate;
         Alcotest.test_case "chain" `Quick test_sta_chain_adds;
         Alcotest.test_case "max path" `Quick test_sta_takes_max_path;
         Alcotest.test_case "depth" `Quick test_depth;
         Alcotest.test_case "varied delays" `Quick test_varied_delays_deterministic ]);
      ("event_sim",
       [ Alcotest.test_case "settles to static" `Quick test_event_sim_final_values_match;
         Alcotest.test_case "stable input no events" `Quick test_event_sim_no_events_when_stable;
         Alcotest.test_case "produces glitches" `Quick test_event_sim_produces_glitch;
         Alcotest.test_case "respects delays" `Quick test_event_sim_times_respect_delay;
         Alcotest.test_case "telemetry once per call" `Quick test_event_sim_telemetry;
         Alcotest.test_case "rejects bad lengths" `Quick test_event_sim_rejects_bad_lengths ]);
      ("power",
       [ Alcotest.test_case "trace shape" `Quick test_power_trace_shape;
         Alcotest.test_case "deterministic without noise" `Quick test_power_noise_zero_is_deterministic;
         Alcotest.test_case "hd sample" `Quick test_hd_sample_counts_switching;
         Alcotest.test_case "hw sample" `Quick test_hw_sample_monotone_in_ones;
         Alcotest.test_case "iddq trojan" `Quick test_iddq_trojan_increases_current ]);
      ("properties",
       List.map Seeded.to_alcotest [ prop_event_sim_settles_to_static ]) ]
