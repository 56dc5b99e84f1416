(* Tests for truth tables, cubes, Quine-McCluskey and BDDs. *)

module Tt = Logic.Truth_table
module Cube = Logic.Cube
module Qmc = Logic.Qmc
module Bdd = Logic.Bdd

let tt = Alcotest.testable (fun fmt t -> Format.pp_print_string fmt (Tt.to_string t)) Tt.equal

let test_tt_basic () =
  let a = Tt.var 2 0 and b = Tt.var 2 1 in
  Alcotest.(check string) "var 0" "0101" (Tt.to_string a);
  Alcotest.(check string) "var 1" "0011" (Tt.to_string b);
  Alcotest.(check string) "and" "0001" (Tt.to_string (Tt.land_ a b));
  Alcotest.(check string) "or" "0111" (Tt.to_string (Tt.lor_ a b));
  Alcotest.(check string) "xor" "0110" (Tt.to_string (Tt.lxor_ a b));
  Alcotest.(check string) "not" "1010" (Tt.to_string (Tt.lnot a))

let test_tt_eval_bits () =
  let f = Tt.lxor_ (Tt.var 3 0) (Tt.var 3 2) in
  Alcotest.(check bool) "101 -> 0" false (Tt.eval_bits f [| true; false; true |]);
  Alcotest.(check bool) "100 -> 1" true (Tt.eval_bits f [| true; false; false |])

let test_tt_cofactor_depends () =
  let a = Tt.var 2 0 and b = Tt.var 2 1 in
  let f = Tt.land_ a b in
  Alcotest.check tt "cofactor a=1 is b" (Tt.cofactor f 0 true) b;
  Alcotest.(check bool) "depends on a" true (Tt.depends_on f 0);
  let g = Tt.lor_ a (Tt.lnot a) in
  Alcotest.(check bool) "tautology ignores a" false (Tt.depends_on g 0);
  Alcotest.(check (list int)) "support" [ 0; 1 ] (Tt.support f)

let test_tt_count () =
  let f = Tt.lxor_ (Tt.var 4 0) (Tt.var 4 1) in
  Alcotest.(check int) "xor balanced" 8 (Tt.count_ones f)

let test_cube_cover () =
  let c = Cube.of_minterm ~arity:3 0b101 in
  Alcotest.(check bool) "covers own minterm" true (Cube.covers c 0b101);
  Alcotest.(check bool) "not others" false (Cube.covers c 0b100);
  Alcotest.(check int) "volume" 1 (Cube.volume c)

let test_cube_combine () =
  let a = Cube.of_minterm ~arity:3 0b101 in
  let b = Cube.of_minterm ~arity:3 0b100 in
  (match Cube.combine a b with
   | Some c ->
     Alcotest.(check bool) "covers both" true (Cube.covers c 0b101 && Cube.covers c 0b100);
     Alcotest.(check int) "volume 2" 2 (Cube.volume c)
   | None -> Alcotest.fail "should combine");
  let d = Cube.of_minterm ~arity:3 0b010 in
  Alcotest.(check bool) "distance 2+ fails" true (Cube.combine a d = None)

let test_qmc_xor_is_irreducible () =
  (* XOR has no combinable minterms: cover is exactly the two minterms. *)
  let f = Tt.lxor_ (Tt.var 2 0) (Tt.var 2 1) in
  let cover = Qmc.minimize f in
  Alcotest.(check int) "cube count" 2 (List.length cover);
  Alcotest.(check bool) "implements" true (Qmc.cover_implements cover f)

let test_qmc_classic () =
  (* Classic example: f = sum m(0,1,2,5,6,7) over 3 vars minimizes to
     4-6 literals. *)
  let minterms = [ 0; 1; 2; 5; 6; 7 ] in
  let f = Tt.create 3 (fun m -> List.mem m minterms) in
  let cover = Qmc.minimize f in
  Alcotest.(check bool) "implements" true (Qmc.cover_implements cover f);
  Alcotest.(check bool) "cost reduced" true (Qmc.cover_cost cover <= 8)

let test_qmc_constant () =
  let f = Tt.constant 3 true in
  let cover = Qmc.minimize f in
  Alcotest.(check bool) "implements" true (Qmc.cover_implements cover f);
  Alcotest.(check int) "single empty cube" 0 (Qmc.cover_cost cover);
  Alcotest.(check (list string)) "false is empty cover" []
    (List.map Cube.to_string (Qmc.minimize (Tt.constant 3 false)))

let test_bdd_basic () =
  let mgr = Bdd.manager () in
  let a = Bdd.bvar mgr 0 and b = Bdd.bvar mgr 1 in
  let f = Bdd.band mgr a b in
  Alcotest.(check bool) "11" true (Bdd.eval f (fun _ -> true));
  Alcotest.(check bool) "10" false (Bdd.eval f (fun v -> v = 0));
  Alcotest.(check bool) "hash consing" true (Bdd.equal f (Bdd.band mgr a b))

let test_bdd_de_morgan () =
  let mgr = Bdd.manager () in
  let a = Bdd.bvar mgr 0 and b = Bdd.bvar mgr 1 in
  let lhs = Bdd.neg mgr (Bdd.band mgr a b) in
  let rhs = Bdd.bor mgr (Bdd.neg mgr a) (Bdd.neg mgr b) in
  Alcotest.(check bool) "de morgan" true (Bdd.equal lhs rhs)

let test_bdd_xor_cancel () =
  let mgr = Bdd.manager () in
  let a = Bdd.bvar mgr 0 in
  Alcotest.(check bool) "a xor a = 0" true (Bdd.is_contradiction (Bdd.bxor mgr a a));
  Alcotest.(check bool) "a or !a = 1" true (Bdd.is_tautology (Bdd.bor mgr a (Bdd.neg mgr a)))

let test_bdd_count_models () =
  let mgr = Bdd.manager () in
  let a = Bdd.bvar mgr 0 and b = Bdd.bvar mgr 1 and c = Bdd.bvar mgr 2 in
  let f = Bdd.bor mgr (Bdd.band mgr a b) c in
  (* a&b | c over 3 vars: c=1 gives 4, c=0 & a&b gives 1 -> 5 models. *)
  Alcotest.(check (float 1e-9)) "models" 5.0 (Bdd.count_models f ~nvars:3)

let test_bdd_of_truth_table () =
  let mgr = Bdd.manager () in
  let f = Tt.lxor_ (Tt.var 3 0) (Tt.land_ (Tt.var 3 1) (Tt.var 3 2)) in
  let bdd = Bdd.of_truth_table mgr f in
  for m = 0 to 7 do
    let assignment v = (m lsr v) land 1 = 1 in
    Alcotest.(check bool) (Printf.sprintf "minterm %d" m) (Tt.eval f m) (Bdd.eval bdd assignment)
  done;
  Alcotest.(check (float 1e-9)) "model count matches" (Float.of_int (Tt.count_ones f))
    (Bdd.count_models bdd ~nvars:3)

(* Properties: QMC covers random functions correctly; BDD ops agree with
   truth tables. *)
let gen_tt3 = QCheck.map (fun bits -> Tt.create 3 (fun m -> (bits lsr m) land 1 = 1)) (QCheck.int_bound 255)

let prop_qmc_correct =
  QCheck.Test.make ~name:"qmc implements arbitrary 3-var function" ~count:100 gen_tt3
    (fun f -> Qmc.cover_implements (Qmc.minimize f) f)

let prop_bdd_matches_tt =
  QCheck.Test.make ~name:"bdd of_truth_table agrees" ~count:100 gen_tt3
    (fun f ->
      let mgr = Bdd.manager () in
      let bdd = Bdd.of_truth_table mgr f in
      List.for_all
        (fun m -> Tt.eval f m = Bdd.eval bdd (fun v -> (m lsr v) land 1 = 1))
        (List.init 8 (fun m -> m)))

let prop_qmc_cost_not_worse_than_minterms =
  QCheck.Test.make ~name:"qmc never worse than raw minterm cover" ~count:100 gen_tt3
    (fun f ->
      let cover = Qmc.minimize f in
      Qmc.cover_cost cover <= 3 * Tt.count_ones f)

let () =
  Alcotest.run "logic"
    [ ("truth_table",
       [ Alcotest.test_case "basic ops" `Quick test_tt_basic;
         Alcotest.test_case "eval_bits" `Quick test_tt_eval_bits;
         Alcotest.test_case "cofactor/depends" `Quick test_tt_cofactor_depends;
         Alcotest.test_case "count_ones" `Quick test_tt_count ]);
      ("cube",
       [ Alcotest.test_case "cover" `Quick test_cube_cover;
         Alcotest.test_case "combine" `Quick test_cube_combine ]);
      ("qmc",
       [ Alcotest.test_case "xor irreducible" `Quick test_qmc_xor_is_irreducible;
         Alcotest.test_case "classic example" `Quick test_qmc_classic;
         Alcotest.test_case "constants" `Quick test_qmc_constant ]);
      ("bdd",
       [ Alcotest.test_case "basic" `Quick test_bdd_basic;
         Alcotest.test_case "de morgan" `Quick test_bdd_de_morgan;
         Alcotest.test_case "xor cancel" `Quick test_bdd_xor_cancel;
         Alcotest.test_case "count models" `Quick test_bdd_count_models;
         Alcotest.test_case "of truth table" `Quick test_bdd_of_truth_table ]);
      ("properties",
       List.map Seeded.to_alcotest
         [ prop_qmc_correct; prop_bdd_matches_tt; prop_qmc_cost_not_worse_than_minterms ]) ]
