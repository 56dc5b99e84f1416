(* The paper's Fig. 2, as a user would reproduce it: mask a gate with ISW
   private circuits, synthesize it two ways, and watch the classical flow
   destroy the side-channel guarantee while preserving functionality.

   dune exec examples/private_circuit.exe *)

module L = Sidechannel.Leakage
module Tvla = Sidechannel.Tvla

let () =
  let rng = Eda_util.Rng.create 42 in

  (* 1. The sensitive operation: c = a AND b (a, b secret). *)
  print_endline "masking c = a AND b with 3-share ISW private circuits...";
  let masked = Synth.Masking.transform ~shares:3 (L.private_and_source ()) in
  Printf.printf "  shares per secret: %d, fresh random bits: %d, gates: %d\n"
    masked.Synth.Masking.shares
    (Array.length masked.Synth.Masking.random_inputs)
    (Netlist.Circuit.stats masked.Synth.Masking.circuit).Netlist.Circuit.gates;

  (* 2. Synthesize twice. *)
  let aware = L.synthesize_masked L.Security_aware in
  let unaware = L.synthesize_masked L.Security_unaware in
  print_endline "synthesized with (a) order barriers honoured, (b) classical XOR re-association";

  (* 3. Both are functionally perfect... *)
  let check masked =
    List.for_all
      (fun (a, b) ->
        Sidechannel.Isw.eval rng masked ~values:[ ("a", a); ("b", b) ] = [ ("y", a && b) ])
      [ (false, false); (false, true); (true, false); (true, true) ]
  in
  Printf.printf "functional check: aware %b, unaware %b\n" (check aware) (check unaware);

  (* 4. ... but only one is secure. Fixed-vs-random TVLA: *)
  let assess name masked =
    let r = L.tvla_campaign rng masked ~traces_per_class:5000 ~noise_sigma:0.3 in
    Printf.printf "  %-22s max|t| = %6.2f  -> %s\n" name r.Tvla.max_abs_t
      (if Tvla.leaks r then "LEAKS (fails TVLA)" else "passes TVLA");
    r
  in
  print_endline "TVLA leakage assessment (5000 traces per class, |t| threshold 4.5):";
  let _ = assess "security-aware" aware in
  let ru = assess "security-unaware" unaware in

  (* 5. Where is the leak? The factored wire of Fig. 2. *)
  let wire, t = L.leakiest_wire rng unaware ~samples:5000 in
  Printf.printf "the synthesized wire %s carries a3*(b1^b2^b3)-class values: |t| = %.1f\n" wire t;

  (* 6. How many traces would an attacker need? *)
  let n =
    Sidechannel.Metrics.traces_to_threshold ~observed_t:ru.Tvla.max_abs_t ~observed_n:5000
  in
  Printf.printf "extrapolated traces to TVLA threshold for the unaware netlist: ~%.0f\n" n;

  print_endline "\nmoral (the paper's): logic synthesis must compile security constraints,";
  print_endline "not just functions — otherwise a legal optimization is an attack."
