(* Tests for synthesis passes: function preservation, actual optimization,
   protection barriers, basis conversion, XOR re-association. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Gen = Netlist.Generators
module Sim = Netlist.Sim
module Rng = Eda_util.Rng

let gates c = (Circuit.stats c).Circuit.gates

let optimize c = Synth.Pipeline.run_recipe "optimize" c

let optimize_secure ~protect c = Synth.Pipeline.run_recipe ~protect "optimize_secure" c

(* Basis membership, asked of the [to_and_xor_not] pass's own check. *)
let in_basis c =
  match (Synth.Pass.get "to_and_xor_not").Synth.Pass.check with
  | Some check -> check Synth.Pass.default_ctx c = Ok ()
  | None -> Alcotest.fail "to_and_xor_not has no basis check"

let build_with_redundancy () =
  (* Circuit with constants, double negation, duplicate gates. *)
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let one = Circuit.add_const c true in
  let a_and_1 = Circuit.add_gate c Gate.And [ a; one ] in  (* = a *)
  let nn = Circuit.add_gate c Gate.Not [ Circuit.add_gate c Gate.Not [ b ] ] in  (* = b *)
  let x1 = Circuit.add_gate c Gate.Xor [ a_and_1; nn ] in
  let x2 = Circuit.add_gate c Gate.Xor [ a; b ] in  (* duplicate of x1 *)
  let y = Circuit.add_gate c Gate.Or [ x1; x2 ] in  (* = x1 *)
  Circuit.set_output c "y" y;
  c

let test_constprop_simplifies () =
  let c = build_with_redundancy () in
  let opt = Synth.Pass.apply "constant_propagation" c in
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c opt);
  Alcotest.(check bool) "smaller" true (gates opt < gates c)

let test_constprop_folds_constants () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let zero = Circuit.add_const c false in
  let g = Circuit.add_gate c Gate.And [ a; zero ] in
  let h = Circuit.add_gate c Gate.Or [ g; a ] in  (* = a *)
  Circuit.set_output c "y" h;
  let opt = Synth.Pass.apply "constant_propagation" c in
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c opt);
  Alcotest.(check int) "all logic folded" 0 (gates opt)

let test_constprop_xor_rules () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let x = Circuit.add_gate c Gate.Xor [ a; a ] in  (* = 0 *)
  let one = Circuit.add_const c true in
  let y = Circuit.add_gate c Gate.Xnor [ x; one ] in  (* = x = 0... xnor(0,1)=0 *)
  Circuit.set_output c "y" y;
  let opt = Synth.Pass.apply "constant_propagation" c in
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c opt);
  Alcotest.(check int) "fully constant" 0 (gates opt)

let test_strash_merges_duplicates () =
  let c = build_with_redundancy () in
  let opt = Synth.Pass.apply "strash" c in
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c opt)

let test_strash_commutative () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let g1 = Circuit.add_gate c Gate.And [ a; b ] in
  let g2 = Circuit.add_gate c Gate.And [ b; a ] in
  let y = Circuit.add_gate c Gate.Xor [ g1; g2 ] in  (* = 0 after merge *)
  Circuit.set_output c "y" y;
  let opt = Synth.Pass.apply "strash" c in
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c opt);
  (* After strash the two ANDs merge; constprop then kills the XOR. *)
  let opt2 = Synth.Pass.apply "constant_propagation" opt in
  Alcotest.(check int) "xor(x,x) collapsed" 0 (gates opt2)

let test_optimize_random_dags () =
  for seed = 0 to 14 do
    let c = Gen.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:3 in
    let opt = optimize c in
    Alcotest.(check bool) (Printf.sprintf "seed %d equivalent" seed) true
      (Sim.equivalent_exhaustive c opt);
    Alcotest.(check bool) (Printf.sprintf "seed %d not larger" seed) true
      (gates opt <= gates c)
  done

let test_basis_conversion () =
  for seed = 20 to 30 do
    let c = Gen.random_dag ~seed ~inputs:5 ~gates:30 ~outputs:2 in
    let axn = Synth.Pass.apply "to_and_xor_not" c in
    Alcotest.(check bool) (Printf.sprintf "seed %d in basis" seed) true (in_basis axn);
    Alcotest.(check bool) (Printf.sprintf "seed %d equivalent" seed) true
      (Sim.equivalent_exhaustive c axn)
  done

let test_basis_mux () =
  let c = Gen.mux_tree 2 in
  let axn = Synth.Pass.apply "to_and_xor_not" c in
  Alcotest.(check bool) "in basis" true (in_basis axn);
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c axn)

let test_xor_reassoc_preserves_function () =
  for seed = 40 to 50 do
    let c = Gen.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:3 in
    let r = Synth.Xor_reassoc.run c in
    Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (Sim.equivalent_exhaustive c r)
  done

let test_xor_reassoc_regroups () =
  (* Chain (((p1 ^ r) ^ p2) ^ p3) with p_i sharing input a: the pass must
     regroup the products adjacently, changing the intermediate wires. *)
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b1 = Circuit.add_input ~name:"b1" c in
  let b2 = Circuit.add_input ~name:"b2" c in
  let b3 = Circuit.add_input ~name:"b3" c in
  let r = Circuit.add_input ~name:"r" c in
  let p1 = Circuit.add_gate c Gate.And [ a; b1 ] in
  let p2 = Circuit.add_gate c Gate.And [ a; b2 ] in
  let p3 = Circuit.add_gate c Gate.And [ a; b3 ] in
  let t1 = Circuit.add_gate c Gate.Xor [ p1; r ] in
  let t2 = Circuit.add_gate c Gate.Xor [ t1; p2 ] in
  let y = Circuit.add_gate c Gate.Xor [ t2; p3 ] in
  Circuit.set_output c "y" y;
  let reassoc = Synth.Xor_reassoc.run c in
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c reassoc);
  (* The first XOR of the rebuilt chain must combine two AND leaves (the
     factoring-friendly grouping), not an AND with the random input. *)
  let first_xor =
    let found = ref None in
    for i = 0 to Circuit.node_count reassoc - 1 do
      if !found = None && Circuit.kind reassoc i = Gate.Xor then found := Some i
    done;
    Option.get !found
  in
  let fanin_kinds =
    Array.map (fun f -> Circuit.kind reassoc f) (Circuit.fanins reassoc first_xor)
  in
  Alcotest.(check bool) "first xor combines two products" true
    (Array.for_all (fun k -> k = Gate.And) fanin_kinds)

let test_xor_reassoc_protection () =
  (* With every net protected, the circuit structure is unchanged. *)
  let masked = Synth.Masking.transform (Sidechannel.Leakage.private_and_source ()) in
  let before = Circuit.node_count masked.Synth.Masking.circuit in
  let after =
    Synth.Xor_reassoc.run ~protect:Synth.Masking.protected_name masked.Synth.Masking.circuit
  in
  (* Protected XOR chains are kept verbatim: same node count post sweep. *)
  Alcotest.(check int) "structure preserved" before (Circuit.node_count after)

let test_balanced_strategy_reduces_depth () =
  let c = Circuit.create () in
  let xs = List.init 16 (fun i -> Circuit.add_input ~name:(Printf.sprintf "x%d" i) c) in
  let y = Circuit.reduce_chain c Gate.Xor xs in
  Circuit.set_output c "y" y;
  let before_depth = Timing.Sta.depth c in
  let balanced = Synth.Xor_reassoc.run ~strategy:Synth.Xor_reassoc.Balanced c in
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c balanced);
  Alcotest.(check bool) "depth reduced" true (Timing.Sta.depth balanced < before_depth);
  Alcotest.(check int) "log depth" 4 (Timing.Sta.depth balanced)

let test_ppa_model () =
  (* Every flow stage reports the cell area and STA delay of the design
     as it leaves the stage; only synthesis changes the design. *)
  let module Flow = Secure_eda.Flow in
  match Flow.run (Rng.create 1) (Gen.alu 4) with
  | Error e -> Alcotest.fail (Eda_util.Eda_error.to_string e)
  | Ok r ->
    let area = (Circuit.stats r.Flow.final).Circuit.area in
    let delay = (Timing.Sta.analyze r.Flow.final).Timing.Sta.critical_path_delay in
    Alcotest.(check bool) "area positive" true (area > 0.0);
    Alcotest.(check bool) "delay positive" true (delay > 0.0);
    List.iter
      (fun (sr : Flow.stage_report) ->
        let name = Flow.stage_name sr.stage in
        Alcotest.(check (float 0.0)) (name ^ " area") area sr.area;
        Alcotest.(check (float 0.0)) (name ^ " delay") delay sr.delay_ps)
      r.Flow.stages

let test_optimize_secure_preserves_function () =
  (* With no caller fence, the recipe's own gadget fence keeps every
     masked gadget verbatim, while the classical recipe and plain XOR
     re-association both restructure the same netlist. *)
  let fp = Netlist.Bench_gen.fingerprint in
  List.iter
    (fun shares ->
      let tag = Printf.sprintf "%d shares: " shares in
      let masked = Synth.Masking.transform ~shares (Sidechannel.Leakage.private_and_source ()) in
      let c = masked.Synth.Masking.circuit in
      let opt = Synth.Pipeline.run_recipe "optimize_secure" c in
      Alcotest.(check bool) (tag ^ "equivalent") true (Sim.equivalent_exhaustive c opt);
      Alcotest.(check string) (tag ^ "optimize_secure keeps the gadgets") (fp c) (fp opt);
      Alcotest.(check bool) (tag ^ "optimize restructures") true (fp (optimize c) <> fp c);
      Alcotest.(check bool) (tag ^ "xor_reassoc restructures") true
        (fp (Synth.Xor_reassoc.run c) <> fp c))
    [ 2; 3; 4 ]

(* --- pass manager / pipeline ------------------------------------------- *)

module Masking = Synth.Masking
module Pipeline = Synth.Pipeline
module Bench_gen = Netlist.Bench_gen

(* The hardcoded sequences the recipes replaced, kept step for step from
   the pre-pass-manager flow for the differential test below; each step
   is one pass applied by hand. *)
module Legacy = struct
  let optimize ?(reassoc = true) c =
    let step c =
      let c = Synth.Pass.apply "constant_propagation" c in
      let c = Synth.Pass.apply "strash" c in
      if reassoc then Synth.Pass.apply "xor_reassoc" c else c
    in
    let rec loop c rounds =
      if rounds = 0 then c
      else begin
        let c' = step c in
        if (Circuit.stats c').Circuit.gates >= (Circuit.stats c).Circuit.gates then c'
        else loop c' (rounds - 1)
      end
    in
    loop c 4

  let optimize_secure ~protect c =
    let c = Synth.Pass.apply ~protect "constant_propagation" c in
    let c = Synth.Pass.apply ~protect "strash" c in
    Synth.Pass.apply ~protect "xor_reassoc" c
end

let fp = Bench_gen.fingerprint

let differential_workloads () =
  [ ("c432", Bench_gen.c432_like ~seed:3 ~scale:1 ());
    ("c880", Bench_gen.c880_like ~seed:7 ~width:8 ());
    ("layered", Bench_gen.layered ~seed:11 ~inputs:12 ~layers:6 ~width:24 ()) ]

let test_pipeline_matches_legacy () =
  List.iter
    (fun (nm, c) ->
      List.iter
        (fun reassoc ->
          let tag = Printf.sprintf "%s reassoc=%b" nm reassoc in
          Alcotest.(check string) tag
            (fp (Legacy.optimize ~reassoc c))
            (fp
               (Pipeline.run_recipe ~params:[ ("reassoc", string_of_bool reassoc) ] "optimize"
                  c)))
        [ true; false ])
    (differential_workloads ())

let test_pipeline_matches_legacy_secure () =
  let masked = Masking.transform (Sidechannel.Leakage.private_and_source ()) in
  let c = masked.Masking.circuit in
  let protect = Masking.protected_name in
  Alcotest.(check string) "secure flow bit-identical"
    (fp (Legacy.optimize_secure ~protect c))
    (fp (optimize_secure ~protect c))

let test_fixed_point_bounded () =
  (* The optimize recipe is Fixed_point{max_rounds=4} over three passes:
     the runner can execute at most 12 passes, and the observe sequence
     numbers every one of them. *)
  List.iter
    (fun (nm, c) ->
      let count = ref 0 and last = ref 0 in
      ignore
        (Pipeline.run
           ~observe:(fun ~seq ~pass:_ _ ->
             incr count;
             last := seq)
           (Pipeline.get "optimize") c);
      Alcotest.(check bool) (nm ^ " ran at least one round") true (!count >= 3);
      Alcotest.(check bool) (nm ^ " bounded by 4 rounds x 3 passes") true (!count <= 12);
      Alcotest.(check int) (nm ^ " seq is dense") !count !last)
    (differential_workloads ())

let test_observed_ir_lint_clean () =
  (* Every intermediate circuit --print-ir-after could dump is lint-clean. *)
  let c = Bench_gen.c880_like ~seed:2 ~width:8 () in
  let seen = ref 0 in
  ignore
    (Pipeline.run
       ~observe:(fun ~seq ~pass ir ->
         incr seen;
         match Netlist.Lint.errors ir with
         | [] -> ()
         | issue :: _ ->
           Alcotest.failf "IR after %s (step %d): %s" pass seq (Netlist.Lint.describe issue))
       (Pipeline.get "optimize") c);
  Alcotest.(check bool) "observed the intermediate circuits" true (!seen >= 3)

let test_budget_stops_pipeline () =
  let c = Bench_gen.c432_like ~seed:5 ~scale:1 () in
  let budget = Eda_util.Budget.create ~steps:2 () in
  let count = ref 0 in
  ignore
    (Pipeline.run ~budget ~observe:(fun ~seq:_ ~pass:_ _ -> incr count)
       (Pipeline.get "optimize") c);
  Alcotest.(check int) "stopped after two passes" 2 !count

let test_pass_registry_errors () =
  Alcotest.(check bool) "find on unknown name" true (Synth.Pass.find "no_such_pass" = None);
  (try
     ignore (Synth.Pass.get "no_such_pass");
     Alcotest.fail "get should raise on unknown pass"
   with Invalid_argument _ -> ());
  (try
     Synth.Pass.register (Synth.Pass.simple ~name:"strash" ~doc:"duplicate" Fun.id);
     Alcotest.fail "register should raise on duplicate name"
   with Invalid_argument _ -> ());
  (try
     ignore (Pipeline.get "no_such_recipe");
     Alcotest.fail "get should raise on unknown recipe"
   with Invalid_argument _ -> ());
  let failing =
    Synth.Pass.make ~name:"always_fails" ~doc:"test-only"
      ~check:(fun _ _ -> Error "nope")
      (fun _ c -> c)
  in
  match Synth.Pass.run Synth.Pass.default_ctx failing (Gen.c17 ()) with
  | _ -> Alcotest.fail "expected Check_failed"
  | exception Synth.Pass.Check_failed { pass; msg } ->
    Alcotest.(check string) "pass name" "always_fails" pass;
    Alcotest.(check string) "check message" "nope" msg

(* --- mask insertion ----------------------------------------------------- *)

let test_mask_insertion_deterministic () =
  (* Pure function of (circuit, params): bit-identical across repeat runs. *)
  let c = Gen.ripple_adder 4 in
  let run () = Synth.Pass.apply ~params:[ ("shares", "3"); ("seed", "9") ] "mask_insertion" c in
  let base = fp (run ()) in
  Alcotest.(check string) "repeat run" base (fp (run ()));
  let other = fp (Synth.Pass.apply ~params:[ ("shares", "3"); ("seed", "10") ] "mask_insertion" c) in
  Alcotest.(check bool) "seed changes the randomness wiring" true (base <> other)

let region_host () =
  (* d --------------.
     a -&- x(core) -xor- y(core) -not- z      outputs y, z *)
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let d = Circuit.add_input ~name:"d" c in
  let x = Circuit.add_gate c Gate.And [ a; b ] in
  let y = Circuit.add_gate c Gate.Xor [ x; d ] in
  let z = Circuit.add_gate c Gate.Not [ y ] in
  Circuit.set_output c "y" y;
  Circuit.set_output c "z" z;
  Circuit.annotate_region c ~region:"core" [ x; y ];
  c

let outputs_by_name c vec =
  let outs = Netlist.Sim.eval c vec in
  List.mapi (fun k (nm, _) -> (nm, outs.(k))) (Array.to_list (Circuit.outputs c))

let test_mask_region_preserves_function () =
  List.iter
    (fun style ->
      List.iter
        (fun shares ->
          let c = region_host () in
          let m = Masking.mask_region ~shares ~style ~seed:3 c ~region:"core" in
          (match Netlist.Lint.errors m with
           | [] -> ()
           | issue :: _ -> Alcotest.failf "masked host lint: %s" (Netlist.Lint.describe issue));
          let rng = Rng.create (97 + shares) in
          for v = 0 to 7 do
            let values =
              [ ("a", v land 1 > 0); ("b", v land 2 > 0); ("d", v land 4 > 0) ]
            in
            let expect =
              outputs_by_name c
                (Array.map (fun id -> List.assoc (Circuit.name c id) values) (Circuit.inputs c))
            in
            (* Several fresh draws of the gadget randomness each. *)
            for _ = 1 to 4 do
              let vec =
                Array.map
                  (fun id ->
                    let nm = Circuit.name m id in
                    if Masking.protected_name nm then Rng.bool rng else List.assoc nm values)
                  (Circuit.inputs m)
              in
              List.iter
                (fun (nm, bit) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s shares=%d v=%d out %s" (Masking.string_of_style style)
                       shares v nm)
                    bit
                    (List.assoc nm (outputs_by_name m vec)))
                expect
            done
          done)
        [ 2; 3 ])
    [ Masking.Isw; Masking.Dom ]

let test_mask_region_gadget_counts () =
  (* The region has one AND: ISW at s shares adds C(s,2) fresh random
     inputs for it, plus (s-1) encoder randoms per boundary wire (a, b, d)
     to share the region inputs. *)
  List.iter
    (fun shares ->
      let c = region_host () in
      let m = Masking.mask_region ~shares ~style:Masking.Isw ~seed:1 c ~region:"core" in
      let randoms =
        Array.to_list (Circuit.inputs m)
        |> List.filter (fun id -> Masking.protected_name (Circuit.name m id))
      in
      let expected = (shares * (shares - 1) / 2) + (3 * (shares - 1)) in
      Alcotest.(check int)
        (Printf.sprintf "randomness inputs at %d shares" shares)
        expected (List.length randoms))
    [ 2; 3; 8 ]

let prop_optimize_never_changes_function =
  QCheck.Test.make ~name:"optimize preserves function" ~count:12
    QCheck.(int_bound 900)
    (fun seed ->
      let c = Gen.random_dag ~seed ~inputs:5 ~gates:35 ~outputs:2 in
      Sim.equivalent_exhaustive c (optimize c))

let prop_basis_preserves_function =
  QCheck.Test.make ~name:"basis conversion preserves function" ~count:12
    QCheck.(int_bound 900)
    (fun seed ->
      let c = Gen.random_dag ~seed ~inputs:5 ~gates:35 ~outputs:2 in
      Sim.equivalent_exhaustive c (Synth.Pass.apply "to_and_xor_not" c))

let () =
  Alcotest.run "synth"
    [ ("rewrite",
       [ Alcotest.test_case "constprop simplifies" `Quick test_constprop_simplifies;
         Alcotest.test_case "constprop folds constants" `Quick test_constprop_folds_constants;
         Alcotest.test_case "constprop xor rules" `Quick test_constprop_xor_rules;
         Alcotest.test_case "strash merges duplicates" `Quick test_strash_merges_duplicates;
         Alcotest.test_case "strash commutative" `Quick test_strash_commutative;
         Alcotest.test_case "optimize random dags" `Quick test_optimize_random_dags ]);
      ("basis",
       [ Alcotest.test_case "random dags" `Quick test_basis_conversion;
         Alcotest.test_case "mux trees" `Quick test_basis_mux ]);
      ("xor_reassoc",
       [ Alcotest.test_case "preserves function" `Quick test_xor_reassoc_preserves_function;
         Alcotest.test_case "regroups shared products" `Quick test_xor_reassoc_regroups;
         Alcotest.test_case "respects protection" `Quick test_xor_reassoc_protection;
         Alcotest.test_case "balanced reduces depth" `Quick test_balanced_strategy_reduces_depth ]);
      ("flow",
       [ Alcotest.test_case "ppa model" `Quick test_ppa_model;
         Alcotest.test_case "secure flow preserves function" `Quick test_optimize_secure_preserves_function ]);
      ("pipeline",
       [ Alcotest.test_case "matches legacy optimize" `Quick test_pipeline_matches_legacy;
         Alcotest.test_case "matches legacy optimize_secure" `Quick test_pipeline_matches_legacy_secure;
         Alcotest.test_case "fixed point bounded" `Quick test_fixed_point_bounded;
         Alcotest.test_case "observed IR lint-clean" `Quick test_observed_ir_lint_clean;
         Alcotest.test_case "budget stops pipeline" `Quick test_budget_stops_pipeline;
         Alcotest.test_case "registry errors" `Quick test_pass_registry_errors ]);
      ("masking",
       [ Alcotest.test_case "deterministic across pools" `Quick test_mask_insertion_deterministic;
         Alcotest.test_case "region preserves function" `Quick test_mask_region_preserves_function;
         Alcotest.test_case "region randomness budget" `Quick test_mask_region_gadget_counts ]);
      ("properties",
       List.map Seeded.to_alcotest
         [ prop_optimize_never_changes_function; prop_basis_preserves_function ]) ]
