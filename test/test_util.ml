(* Tests for the eda_util substrate: PRNG determinism and distribution
   sanity, statistics against hand-computed values. *)

module Rng = Eda_util.Rng
module Stats = Eda_util.Stats

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

(* The boxed-Int64 xoshiro256** formulation the half-word implementation
   replaced; kept verbatim as the differential oracle. Every derived draw
   ([bool], [int], [float], [bits63]) is defined in terms of [next_int64],
   so matching it across many steps pins the whole stream. *)
module Rng_boxed = struct
  type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let create seed =
    let state = ref (Int64.of_int seed) in
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let next_int64 t =
    let open Int64 in
    let result = mul (rotl (mul t.s1 5L) 7) 9L in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result
end

let test_rng_matches_boxed_reference () =
  List.iter
    (fun seed ->
      let fast = Rng.create seed and boxed = Rng_boxed.create seed in
      for i = 1 to 10_000 do
        Alcotest.(check int64)
          (Printf.sprintf "seed %d draw %d" seed i)
          (Rng_boxed.next_int64 boxed) (Rng.next_int64 fast)
      done)
    [ 0; 1; 42; -7; max_int; min_int ];
  (* bits63 must be the native-int truncation of the same stream. *)
  let a = Rng.create 1234 and b = Rng.create 1234 in
  for i = 1 to 10_000 do
    Alcotest.(check int)
      (Printf.sprintf "bits63 draw %d" i)
      (Int64.to_int (Rng.next_int64 a))
      (Rng.bits63 b)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_unit_interval () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 11 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian rng) in
  let mu = Stats.mean xs and sd = Stats.std xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mu < 0.05);
  Alcotest.(check bool) "std near 1" true (Float.abs (sd -. 1.0) < 0.05)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 5 in
  let s = Rng.sample rng 10 30 in
  let uniq = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length uniq);
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 30)) uniq

let test_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  (* Sample variance with n-1 denominator: sum sq dev = 32, / 7. *)
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.variance xs)

let test_pearson_perfect () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0 |] in
  Alcotest.(check (float 1e-9)) "r = 1" 1.0 (Stats.pearson xs ys);
  let neg = Array.map (fun y -> -.y) ys in
  Alcotest.(check (float 1e-9)) "r = -1" (-1.0) (Stats.pearson xs neg)

let test_pearson_independent_small () =
  let rng = Rng.create 19 in
  let xs = Array.init 5000 (fun _ -> Rng.gaussian rng) in
  let ys = Array.init 5000 (fun _ -> Rng.gaussian rng) in
  Alcotest.(check bool) "|r| small" true (Float.abs (Stats.pearson xs ys) < 0.05)

let test_hamming () =
  Alcotest.(check int) "hw 0xF" 4 (Stats.hamming_weight 0xF);
  Alcotest.(check int) "hw 8-bit view" 1 (Stats.hamming_weight ~bits:4 0x10001);
  Alcotest.(check int) "hd" 2 (Stats.hamming_distance 0b1010 0b1001)

(* The SWAR popcount against the obvious bit-at-a-time loop, across all 63
   bit positions and random words (including negative ones: bit 62 set). *)
let test_popcount_matches_loop () =
  let slow x =
    let c = ref 0 in
    for i = 0 to 62 do
      c := !c + ((x lsr i) land 1)
    done;
    !c
  in
  for i = 0 to 62 do
    Alcotest.(check int) "single bit" 1 (Stats.popcount (1 lsl i))
  done;
  Alcotest.(check int) "zero" 0 (Stats.popcount 0);
  Alcotest.(check int) "all ones" 63 (Stats.popcount (-1));
  let rng = Rng.create 77 in
  for _ = 1 to 10_000 do
    let x = Rng.bits63 rng in
    Alcotest.(check int) "random word" (slow x) (Stats.popcount x)
  done

let test_entropy () =
  Alcotest.(check (float 1e-9)) "uniform 4" 2.0 (Stats.entropy_of_counts [| 5; 5; 5; 5 |]);
  Alcotest.(check (float 1e-9)) "point mass" 0.0 (Stats.entropy_of_counts [| 10; 0; 0 |])

let test_histogram () =
  let h = Stats.histogram ~nbins:4 ~lo:0.0 ~hi:4.0 [| 0.5; 1.5; 1.7; 3.2; 9.9; -3.0 |] in
  Alcotest.(check (array int)) "bins" [| 2; 2; 0; 2 |] h

let test_argmax_maxabs () =
  Alcotest.(check int) "argmax" 2 (Stats.argmax [| 1.0; 3.0; 7.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "max_abs" 7.5 (Stats.max_abs [| 1.0; -7.5; 3.0 |])

(* Property tests. *)
let prop_hamming_triangle =
  QCheck.Test.make ~name:"hamming distance triangle inequality" ~count:200
    QCheck.(triple (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c) ->
      Stats.hamming_distance ~bits:8 a c
      <= Stats.hamming_distance ~bits:8 a b + Stats.hamming_distance ~bits:8 b c)

let () =
  Alcotest.run "util"
    [ ("rng",
       [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
         Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
         Alcotest.test_case "matches boxed reference" `Quick test_rng_matches_boxed_reference;
         Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
         Alcotest.test_case "float unit interval" `Quick test_rng_float_unit_interval;
         Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
         Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
         Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct ]);
      ("stats",
       [ Alcotest.test_case "mean/variance" `Quick test_mean_variance;
         Alcotest.test_case "pearson perfect" `Quick test_pearson_perfect;
         Alcotest.test_case "pearson independent" `Quick test_pearson_independent_small;
         Alcotest.test_case "hamming" `Quick test_hamming;
         Alcotest.test_case "popcount vs loop" `Quick test_popcount_matches_loop;
         Alcotest.test_case "entropy" `Quick test_entropy;
         Alcotest.test_case "histogram" `Quick test_histogram;
         Alcotest.test_case "argmax/max_abs" `Quick test_argmax_maxabs ]);
      ("properties",
       List.map Seeded.to_alcotest
         [ prop_hamming_triangle ]) ]
