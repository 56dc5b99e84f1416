(* Cross-engine consistency: the toolkit contains three independent
   equivalence/evaluation engines — exhaustive simulation, BDDs, and the
   CDCL SAT solver. Any disagreement among them is a bug in one of the
   substrates, so random designs are pushed through all three. Also
   includes cross-checks between independent implementations of the same
   quantity (QMC cover vs truth table vs synthesized netlist; QIF model
   counting vs BDD model counting; STA vs event-simulation settle time). *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Tt = Logic.Truth_table
module Bdd = Logic.Bdd
module Rng = Eda_util.Rng

(* Build a BDD for output [k] of a combinational circuit. *)
let bdd_of_output mgr c ~output =
  let n = Circuit.node_count c in
  let node_bdd = Array.make n Bdd.False in
  let input_index = Hashtbl.create 16 in
  Array.iteri (fun k id -> Hashtbl.replace input_index id k) (Circuit.inputs c);
  for i = 0 to n - 1 do
    let nd = Circuit.node c i in
    let f k = node_bdd.(nd.Circuit.fanins.(k)) in
    node_bdd.(i) <-
      (match nd.Circuit.kind with
       | Gate.Input -> Bdd.bvar mgr (Hashtbl.find input_index i)
       | Gate.Const false -> Bdd.False
       | Gate.Const true -> Bdd.True
       | Gate.Buf -> f 0
       | Gate.Not -> Bdd.neg mgr (f 0)
       | Gate.And -> Bdd.band mgr (f 0) (f 1)
       | Gate.Nand -> Bdd.neg mgr (Bdd.band mgr (f 0) (f 1))
       | Gate.Or -> Bdd.bor mgr (f 0) (f 1)
       | Gate.Nor -> Bdd.neg mgr (Bdd.bor mgr (f 0) (f 1))
       | Gate.Xor -> Bdd.bxor mgr (f 0) (f 1)
       | Gate.Xnor -> Bdd.neg mgr (Bdd.bxor mgr (f 0) (f 1))
       | Gate.Mux ->
         (* s ? b : a *)
         Bdd.bor mgr
           (Bdd.band mgr (f 0) (f 2))
           (Bdd.band mgr (Bdd.neg mgr (f 0)) (f 1))
       | Gate.Dff -> invalid_arg "bdd_of_output: sequential circuit")
  done;
  node_bdd.((Circuit.output_ids c).(output))

let test_bdd_matches_simulation () =
  for seed = 0 to 15 do
    let c = Gen.random_dag ~seed ~inputs:6 ~gates:35 ~outputs:2 in
    let mgr = Bdd.manager () in
    for out = 0 to 1 do
      let bdd = bdd_of_output mgr c ~output:out in
      for m = 0 to 63 do
        let inputs = Array.init 6 (fun i -> (m lsr i) land 1 = 1) in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d out %d m %d" seed out m)
          (Netlist.Sim.eval c inputs).(out)
          (Bdd.eval bdd (fun v -> inputs.(v)))
      done
    done
  done

let test_three_engines_agree_on_equivalence () =
  (* For random pairs: sim-exhaustive, BDD-canonical and SAT-miter must
     return the same verdict. *)
  for trial = 0 to 11 do
    let a = Gen.random_dag ~seed:trial ~inputs:5 ~gates:25 ~outputs:1 in
    let b = Gen.random_dag ~seed:(trial + 100) ~inputs:5 ~gates:25 ~outputs:1 in
    let pair = if trial mod 2 = 0 then (a, a) else (a, b) in
    let x, y = pair in
    let sim = Netlist.Sim.equivalent_exhaustive x y in
    let sat = Sat.Cnf.check_equivalence x y = None in
    let mgr = Bdd.manager () in
    let bdd = Bdd.equal (bdd_of_output mgr x ~output:0) (bdd_of_output mgr y ~output:0) in
    Alcotest.(check bool) (Printf.sprintf "trial %d sim=sat" trial) sim sat;
    Alcotest.(check bool) (Printf.sprintf "trial %d sim=bdd" trial) sim bdd
  done

let test_synthesis_pipeline_all_engines () =
  (* The full optimizer must be equivalence-preserving under all engines. *)
  for seed = 20 to 26 do
    let c = Gen.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:1 in
    let opt = Synth.Pipeline.run_recipe "optimize" c in
    Alcotest.(check bool) "sat agrees" true (Sat.Cnf.check_equivalence c opt = None);
    let mgr = Bdd.manager () in
    Alcotest.(check bool) "bdd agrees" true
      (Bdd.equal (bdd_of_output mgr c ~output:0) (bdd_of_output mgr opt ~output:0))
  done

let test_qmc_vs_bdd_model_count () =
  (* The QMC cover, the truth table and the BDD must agree on the number
     of satisfying assignments. *)
  let rng = Rng.create 7 in
  for _ = 1 to 30 do
    let bits = Rng.int rng 65536 in
    let tt = Tt.create 4 (fun m -> (bits lsr m) land 1 = 1) in
    let mgr = Bdd.manager () in
    let bdd = Bdd.of_truth_table mgr tt in
    Alcotest.(check (float 1e-9)) "tt vs bdd count"
      (Float.of_int (Tt.count_ones tt))
      (Bdd.count_models bdd ~nvars:4);
    let cover = Logic.Qmc.minimize tt in
    let covered =
      List.length (List.filter (fun m -> List.exists (fun c -> Logic.Cube.covers c m) cover)
                     (List.init 16 (fun m -> m)))
    in
    Alcotest.(check int) "cover count" (Tt.count_ones tt) covered
  done

let test_qif_vs_bdd_count () =
  (* Shannon-leakage partition sizes from simulation enumeration must match
     BDD model counts of the output cofactors. *)
  let c = Gen.parity_tree 5 in
  let mgr = Bdd.manager () in
  let bdd = bdd_of_output mgr c ~output:0 in
  let ones = Bdd.count_models bdd ~nvars:5 in
  let partition =
    Iflow.Qif.output_partition c ~secret:[ 0; 1; 2; 3; 4 ] ~public_values:(Array.make 5 false)
  in
  let from_qif =
    (* parity: two classes of 16 each. *)
    List.sort compare partition
  in
  Alcotest.(check (list int)) "parity split" [ 16; 16 ] from_qif;
  Alcotest.(check (float 1e-9)) "bdd ones" 16.0 ones

let test_sta_bounds_event_sim () =
  (* No event in the transport-delay simulation can occur after the STA
     critical-path arrival (same delay model). *)
  let rng = Rng.create 9 in
  for seed = 30 to 40 do
    let c = Gen.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:3 in
    let report = Timing.Sta.analyze c in
    let max_arrival = Array.fold_left Float.max 0.0 report.Timing.Sta.arrival in
    let prev = Array.init 6 (fun _ -> Rng.bool rng) in
    let next = Array.init 6 (fun _ -> Rng.bool rng) in
    Timing.Event_sim.iter c ~prev_inputs:prev ~next_inputs:next ~f:(fun time _ _ ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d event at %.0f <= STA %.0f" seed time max_arrival)
          true
          (time <= max_arrival +. 1e-9))
  done

let test_word_sim_matches_scalar_on_all_slots () =
  (* Circuits with every combinational kind, Mux, Buf and Const among
     them, so every arm of the word kernel meets the reference. *)
  let rng = Rng.create 11 in
  for seed = 50 to 55 do
    let c = All_kinds.circuit ~seed ~inputs:8 ~gates:50 ~outputs:3 () in
    (* 63 random patterns packed in words. *)
    let patterns = Array.init 63 (fun _ -> Array.init 8 (fun _ -> Rng.bool rng)) in
    let words =
      Array.init 8 (fun i ->
          let w = ref 0 in
          for s = 62 downto 0 do
            w := (!w lsl 1) lor (if patterns.(s).(i) then 1 else 0)
          done;
          !w)
    in
    let values = Netlist.Sim.eval_all_word c words in
    let word_outs = Array.map (fun o -> values.(o)) (Circuit.output_ids c) in
    Array.iteri
      (fun s pattern ->
        let scalar = Reference.Sim_ref.eval c pattern in
        Array.iteri
          (fun k w ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d slot %d out %d" seed s k)
              scalar.(k)
              ((w lsr s) land 1 = 1))
          word_outs)
      patterns
  done

let prop_solver_models_satisfy_circuit_constraints =
  QCheck.Test.make ~name:"SAT models respect circuit semantics" ~count:15
    QCheck.(int_bound 400)
    (fun seed ->
      let c = Gen.random_dag ~seed ~inputs:6 ~gates:30 ~outputs:2 in
      let env = Sat.Cnf.encode c in
      (* Force output 0 true if satisfiable; the model must then simulate
         to outputs consistent with every model variable. *)
      match Sat.Cnf.satisfiable_output c ~output:0 with
      | None -> true
      | Some witness ->
        ignore env;
        (Netlist.Sim.eval c witness).(0))

let () =
  Alcotest.run "cross_engine"
    [ ("engines",
       [ Alcotest.test_case "bdd vs simulation" `Quick test_bdd_matches_simulation;
         Alcotest.test_case "three-engine equivalence" `Quick test_three_engines_agree_on_equivalence;
         Alcotest.test_case "synthesis under all engines" `Quick test_synthesis_pipeline_all_engines ]);
      ("counting",
       [ Alcotest.test_case "qmc vs bdd vs tt" `Quick test_qmc_vs_bdd_model_count;
         Alcotest.test_case "qif vs bdd" `Quick test_qif_vs_bdd_count ]);
      ("timing",
       [ Alcotest.test_case "sta bounds event sim" `Quick test_sta_bounds_event_sim ]);
      ("simulation",
       [ Alcotest.test_case "word sim all slots" `Quick test_word_sim_matches_scalar_on_all_slots ]);
      ("properties",
       List.map Seeded.to_alcotest [ prop_solver_models_satisfy_circuit_constraints ]) ]
