(* Tests for placement and split manufacturing. *)

module Circuit = Netlist.Circuit
module Gen = Netlist.Generators
module Place = Physical.Placement
module Split = Splitmfg.Split
module Rng = Eda_util.Rng

let test_initial_placement_valid () =
  let rng = Rng.create 1 in
  let c = Gen.alu 4 in
  (* [place ~moves:0] is exactly the random initial placement. *)
  let p = (Place.place rng ~moves:0 c).Place.placement in
  let n = Circuit.node_count c in
  (* All positions distinct and on the grid. *)
  let seen = Hashtbl.create n in
  Array.iter
    (fun (x, y) ->
      Alcotest.(check bool) "on grid" true (x >= 0 && x < p.Place.cols && y >= 0 && y < p.Place.rows);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen (x, y));
      Hashtbl.replace seen (x, y) ())
    p.Place.position

let test_annealing_reduces_wirelength () =
  (* Same seed, so both runs start from the same initial placement. *)
  let c = Gen.alu 4 in
  let p0 = (Place.place (Rng.create 2) ~moves:0 c).Place.placement in
  let wl0 = Place.wirelength p0 in
  let p1 = (Place.place (Rng.create 2) ~moves:15000 c).Place.placement in
  let wl1 = Place.wirelength p1 in
  Alcotest.(check bool) (Printf.sprintf "wl %d -> %d" wl0 wl1) true (wl1 < wl0)

let test_annealing_keeps_validity () =
  let rng = Rng.create 3 in
  let c = Gen.c17 () in
  let p = (Place.place rng ~moves:5000 c).Place.placement in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun pos ->
      Alcotest.(check bool) "distinct after anneal" false (Hashtbl.mem seen pos);
      Hashtbl.replace seen pos ())
    p.Place.position

let test_perturbation_trades_wirelength_for_privacy () =
  let rng = Rng.create 4 in
  let c = Gen.alu 4 in
  let p = (Place.place rng ~moves:15000 c).Place.placement in
  let q = Place.perturb rng ~lambda:0.5 ~moves:15000 p in
  Alcotest.(check bool) "wirelength cost" true (Place.wirelength q > Place.wirelength p)

let test_split_partitions_all_connections () =
  let rng = Rng.create 5 in
  let c = Gen.c17 () in
  let p = (Place.place rng ~moves:3000 c).Place.placement in
  let s = Split.split_by_length ~feol_threshold:1 p in
  let total = List.length (Split.all_connections c) in
  Alcotest.(check int) "partition" total
    (List.length s.Split.visible + List.length s.Split.hidden);
  List.iter
    (fun conn ->
      Alcotest.(check bool) "visible short" true
        (Place.distance p conn.Split.from_node conn.Split.to_node <= 1))
    s.Split.visible

let test_lifting_monotone () =
  let rng = Rng.create 6 in
  let c = Gen.alu 4 in
  let p = (Place.place rng ~moves:8000 c).Place.placement in
  let s = Split.split_by_length ~feol_threshold:2 p in
  let l30 = Split.lift_wires ~fraction:0.3 s in
  let l100 = Split.lift_wires ~fraction:1.0 s in
  Alcotest.(check bool) "lifting hides more" true
    (List.length l30.Split.hidden > List.length s.Split.hidden);
  Alcotest.(check int) "full lift hides everything" 0 (List.length l100.Split.visible)

let test_attack_beats_random_on_ppa_placement () =
  let rng = Rng.create 7 in
  let c = Gen.alu 4 in
  let p = (Place.place rng ~moves:20000 c).Place.placement in
  let s = Split.lift_wires ~fraction:1.0 (Split.split_by_length ~feol_threshold:2 p) in
  let ccr = Split.proximity_attack s in
  let baseline = Split.random_guess_ccr s in
  Alcotest.(check bool)
    (Printf.sprintf "ccr %.3f > 2x random %.3f" ccr baseline)
    true
    (ccr > 2.0 *. baseline)

let test_defenses_reduce_recovery () =
  let rng = Rng.create 8 in
  let c = Gen.alu 4 in
  let p = (Place.place rng ~moves:20000 c).Place.placement in
  let naive = Split.split_by_length ~feol_threshold:2 p in
  let lifted = Split.lift_wires ~fraction:1.0 naive in
  let perturbed = Place.perturb rng ~lambda:0.5 ~moves:20000 p in
  let both = Split.lift_wires ~fraction:1.0 (Split.split_by_length ~feol_threshold:2 perturbed) in
  let r0 = Split.netlist_recovery_rate naive in
  let r1 = Split.netlist_recovery_rate lifted in
  let r2 = Split.netlist_recovery_rate both in
  Alcotest.(check bool) (Printf.sprintf "lifting helps (%.2f -> %.2f)" r0 r1) true (r1 < r0);
  Alcotest.(check bool) (Printf.sprintf "perturbation helps (%.2f -> %.2f)" r1 r2) true (r2 <= r1)

let test_hidden_wirelength_cost () =
  let rng = Rng.create 9 in
  let c = Gen.c17 () in
  let p = (Place.place rng ~moves:3000 c).Place.placement in
  let s = Split.split_by_length ~feol_threshold:1 p in
  let lifted = Split.lift_wires ~fraction:0.5 s in
  Alcotest.(check bool) "lifting adds BEOL wirelength" true
    (Split.hidden_wirelength lifted >= Split.hidden_wirelength s)

let test_place_empty_circuit () =
  let o = Place.place ~moves:10 (Rng.create 1) (Circuit.create ()) in
  Alcotest.(check int) "no moves on no nodes" 0 o.Place.moves_performed;
  Alcotest.(check int) "no positions" 0 (Array.length o.Place.placement.Place.position);
  Alcotest.(check int) "no wirelength" 0 (Place.wirelength o.Place.placement)

let test_anneal_allocation_per_move () =
  (* The move kernel works on flat arrays with cached per-net HPWL: a
     long anneal allocates next to nothing beyond the set-up that a
     zero-move run also pays. *)
  let c = Gen.random_dag ~seed:11 ~inputs:16 ~gates:2000 ~outputs:8 in
  let words moves =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Place.place ~moves (Rng.create 5) c));
    Gc.minor_words () -. w0
  in
  let moves = 200_000 in
  let per_move = (words moves -. words 0) /. Float.of_int moves in
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per move" per_move) true
    (per_move <= 4.0)

let test_lift_rejects_bad_fraction () =
  let c = Gen.alu 4 in
  let p = (Place.place (Rng.create 6) ~moves:1000 c).Place.placement in
  let s = Split.split_by_length ~feol_threshold:2 p in
  List.iter
    (fun fraction ->
      match Split.lift_wires ~fraction s with
      | _ -> Alcotest.failf "lift_wires accepted fraction %g" fraction
      | exception Invalid_argument _ -> ())
    [ -0.5; 1.5; Float.nan; Float.infinity ];
  Alcotest.(check int) "fraction 0 lifts nothing"
    (List.length s.Split.visible)
    (List.length (Split.lift_wires ~fraction:0.0 s).Split.visible)

(* A split over hand-placed nodes of c17 (11 nodes); the attack only reads
   positions and the hidden connections. *)
let hand_split positions hidden =
  let c = Gen.c17 () in
  let placement = { Place.circuit = c; cols = 4; rows = 4; position = positions } in
  { Split.placement;
    visible = [];
    hidden = List.map (fun (f, t) -> { Split.from_node = f; to_node = t; to_pin = 0 }) hidden }

let check_ccr name expected s =
  Alcotest.(check (float 0.0)) name expected (Split.proximity_attack s);
  Alcotest.(check (float 0.0)) (name ^ " (reference)") expected
    (Reference.Placement_ref.proximity_attack s)

let test_attack_equidistant_tie () =
  (* Sink 0 is one step from candidates 3 and 5: the lowest id (3) wins,
     so the true driver 5 is missed; sink 7 is nearest to its driver 3. *)
  let pos = Array.make 11 (9, 9) in
  pos.(0) <- (0, 0);
  pos.(3) <- (1, 0);
  pos.(5) <- (0, 1);
  pos.(7) <- (2, 0);
  check_ccr "tie to the lowest id" 0.5 (hand_split pos [ (5, 0); (3, 7) ]);
  (* Four candidates on the corners of a 9x9 box, one per bucket; sink 6
     in the middle is 8 from each. Its own bucket holds candidate 4, the
     lowest id (1) sits in the far one, and 1 is its true driver. Sinks
     7, 8 and 9 sit next to their drivers 2, 3 and 4. *)
  let pos = Array.make 11 (20, 20) in
  pos.(4) <- (0, 0);
  pos.(2) <- (8, 0);
  pos.(3) <- (0, 8);
  pos.(1) <- (8, 8);
  pos.(6) <- (4, 4);
  pos.(7) <- (8, 1);
  pos.(8) <- (0, 7);
  pos.(9) <- (1, 0);
  check_ccr "tie across buckets" 1.0
    (hand_split pos [ (1, 6); (2, 7); (3, 8); (4, 9) ])

let test_attack_shared_sites () =
  (* Candidates 1, 2 and 4 share one site; sink 6 lies off the grid, at
     the same distance from all three. A sink never matches itself, and a
     sink whose only candidate is itself matches nothing. *)
  let pos = Array.make 11 (0, 0) in
  pos.(1) <- (3, 3);
  pos.(2) <- (3, 3);
  pos.(4) <- (3, 3);
  pos.(6) <- (-5, 100);
  check_ccr "shared site, off-grid sink" (2.0 /. 3.0)
    (hand_split pos [ (1, 2); (4, 6); (2, 1) ]);
  check_ccr "only candidate is the sink" 0.0 (hand_split pos [ (3, 3) ])

let test_telemetry_attrs () =
  (* The annealer's span carries its net and pin counts, the attack's its
     problem size, and the buckets the attack visited are a deterministic
     count. *)
  let module T = Eda_util.Telemetry in
  let c = Gen.alu 4 in
  let traced f =
    let sink, events = T.memory_sink () in
    T.with_sink sink (fun () ->
        let v = f () in
        (v, events ()))
  in
  let attrs_of name events =
    List.find_map
      (fun e -> if e.T.kind = T.Span_start && e.T.name = name then Some e.T.attrs else None)
      events
  in
  let attr name key events = Option.bind (attrs_of name events) (List.assoc_opt key) in
  let p, events = traced (fun () -> (Place.place (Rng.create 7) ~moves:5000 c).Place.placement) in
  let fanins = List.init (Circuit.node_count c) (fun i -> Array.to_list (Circuit.fanins c i)) in
  let nets = List.length (List.sort_uniq compare (List.concat fanins)) in
  Alcotest.(check bool) "anneal span counts nets" true
    (attr "placement.anneal" "nets" events = Some (T.Int nets));
  Alcotest.(check bool) "anneal span counts pins" true
    (attr "placement.anneal" "pins" events
     = Some (T.Int (nets + List.length (List.concat fanins))));
  let s = Split.lift_wires ~fraction:1.0 (Split.split_by_length ~feol_threshold:2 p) in
  let attack () =
    let (), events = traced (fun () -> ignore (Split.proximity_attack s)) in
    match T.Trace.of_events events with
    | Ok trace ->
      let scanned = List.assoc_opt "splitmfg.buckets_scanned" trace.T.Trace.counter_totals in
      (Float.to_int (Option.value scanned ~default:0.0), events)
    | Error msg -> Alcotest.fail msg
  in
  let scanned, events = attack () in
  let hidden = List.length s.Split.hidden in
  Alcotest.(check bool) "attack span counts hidden sinks" true
    (attr "splitmfg.proximity_attack" "hidden" events = Some (T.Int hidden));
  Alcotest.(check bool) "attack span counts candidates" true
    (Option.is_some (attr "splitmfg.proximity_attack" "candidates" events));
  Alcotest.(check bool) "at least one bucket per hidden sink" true (scanned >= hidden);
  Alcotest.(check int) "deterministic bucket count" scanned (fst (attack ()))

let prop_split_preserves_connection_count =
  QCheck.Test.make ~name:"split + lift never loses connections" ~count:10
    QCheck.(pair (int_bound 300) (int_bound 100))
    (fun (seed, pct) ->
      let rng = Rng.create seed in
      let c = Gen.random_dag ~seed ~inputs:5 ~gates:25 ~outputs:2 in
      let p = (Place.place rng ~moves:1000 c).Place.placement in
      let s = Split.split_by_length ~feol_threshold:1 p in
      let l = Split.lift_wires ~fraction:(Float.of_int pct /. 100.0) s in
      List.length (Split.all_connections c)
      = List.length l.Split.visible + List.length l.Split.hidden)

let () =
  Alcotest.run "physical_split"
    [ ("placement",
       [ Alcotest.test_case "initial valid" `Quick test_initial_placement_valid;
         Alcotest.test_case "annealing reduces wirelength" `Quick test_annealing_reduces_wirelength;
         Alcotest.test_case "annealing keeps validity" `Quick test_annealing_keeps_validity;
         Alcotest.test_case "perturbation cost" `Quick test_perturbation_trades_wirelength_for_privacy;
         Alcotest.test_case "empty circuit" `Quick test_place_empty_circuit;
         Alcotest.test_case "allocation per move" `Quick test_anneal_allocation_per_move ]);
      ("split",
       [ Alcotest.test_case "partition complete" `Quick test_split_partitions_all_connections;
         Alcotest.test_case "lifting monotone" `Quick test_lifting_monotone;
         Alcotest.test_case "attack beats random" `Quick test_attack_beats_random_on_ppa_placement;
         Alcotest.test_case "defenses reduce recovery" `Slow test_defenses_reduce_recovery;
         Alcotest.test_case "wirelength cost" `Quick test_hidden_wirelength_cost;
         Alcotest.test_case "lift rejects bad fraction" `Quick test_lift_rejects_bad_fraction;
         Alcotest.test_case "attack equidistant tie" `Quick test_attack_equidistant_tie;
         Alcotest.test_case "attack shared sites" `Quick test_attack_shared_sites;
         Alcotest.test_case "placement and attack telemetry" `Quick test_telemetry_attrs ]);
      ("properties",
       List.map Seeded.to_alcotest [ prop_split_preserves_connection_count ]) ]
