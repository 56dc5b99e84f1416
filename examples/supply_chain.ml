(* The anti-piracy supply chain, end to end: an IP vendor prepares a design
   for an untrusted foundry with the full Table II piracy stack — locking,
   watermarking, metering, split manufacturing and PUF identities — and we
   play every adversary against every defense.

   dune exec examples/supply_chain.exe *)

let line title = Printf.printf "\n== %s ==\n" title

let () =
  let rng = Eda_util.Rng.create 20200309 in
  let design = Netlist.Generators.alu 4 in

  line "vendor: prepare the design for the untrusted foundry";
  (* 1. Functional watermark for ownership litigation. *)
  let mark = Locking.Watermark.embed_functional rng ~bits:20 design in
  Printf.printf "  embedded a 20-bit functional watermark (false-claim p = %.1e)\n"
    (Locking.Watermark.false_claim_probability ~bits:20);
  (* 2. Active metering so overproduced chips stay dead. *)
  let metered = Locking.Metering.meter rng ~state_bits:10 mark.Locking.Watermark.f_circuit in
  Printf.printf "  added a 10-bit metering FSM: chips power up locked\n";
  (* 3. Split manufacturing for the layout itself. *)
  let placement =
    (Physical.Placement.place rng ~moves:10000 metered.Locking.Metering.circuit)
      .Physical.Placement.placement
  in
  let split =
    Splitmfg.Split.lift_wires ~fraction:1.0
      (Splitmfg.Split.split_by_length ~feol_threshold:2 placement)
  in
  Printf.printf "  split manufacturing: %d connections hidden in trusted BEOL\n"
    (List.length split.Splitmfg.Split.hidden);

  line "foundry adversary 1: reconstruct the netlist from FEOL";
  Printf.printf "  proximity attack netlist recovery: %.0f%% (random guessing: %.1f%%)\n"
    (100.0 *. Splitmfg.Split.netlist_recovery_rate split)
    (100.0 *. Splitmfg.Split.random_guess_ccr split);

  line "foundry adversary 2: overproduce and sell unactivated chips";
  let chip_id = Array.init 10 (fun _ -> Eda_util.Rng.bool rng) in
  let dead = Locking.Metering.drive_unlock metered ~power_up_id:chip_id [] in
  Printf.printf "  gray-market chip without activation: unlocked = %b (outputs gated)\n"
    (Locking.Metering.is_unlocked metered dead);
  let guessed = ref 0 in
  for _ = 1 to 500 do
    let seq = List.init 20 (fun _ -> Eda_util.Rng.bool rng) in
    if Locking.Metering.is_unlocked metered
         (Locking.Metering.drive_unlock metered ~power_up_id:chip_id seq)
    then incr guessed
  done;
  Printf.printf "  brute-force activation attempts: %d/500 succeed\n" !guessed;

  line "vendor: activate a legitimate chip";
  (match
     Locking.Metering.unlock_sequence ~keys:metered.Locking.Metering.transition_keys
       ~max_steps:40 chip_id
   with
   | Some seq ->
     let state = Locking.Metering.drive_unlock metered ~power_up_id:chip_id seq in
     Printf.printf "  owner-computed %d-step sequence: unlocked = %b\n" (List.length seq)
       (Locking.Metering.is_unlocked metered state)
   | None -> print_endline "  (no sequence found — unexpected)");

  line "counterfeiter: clone chips and re-brand them";
  (* PUF identities make every genuine die enrollable and clones detectable. *)
  let genuine = Puf.Arbiter.manufacture rng ~stages:64 () in
  let clone = Puf.Arbiter.manufacture rng ~stages:64 () in
  let challenges = Array.init 64 (fun _ -> Puf.Arbiter.random_challenge rng genuine) in
  let enrolled = Array.map (fun ch -> Puf.Arbiter.response rng genuine ch) challenges in
  let match_rate p =
    let hits = ref 0 in
    Array.iteri
      (fun k ch -> if Puf.Arbiter.response rng p ch = enrolled.(k) then incr hits)
      challenges;
    Float.of_int !hits /. 64.0
  in
  Printf.printf "  genuine die re-authentication: %.0f%% CRP match\n" (100.0 *. match_rate genuine);
  Printf.printf "  cloned die authentication   : %.0f%% CRP match (chance level)\n"
    (100.0 *. match_rate clone);

  line "pirate: strip the metering FSM and resynthesize the stolen netlist";
  (* Even if the pirate recovers and cleans the raw function, the
     functional watermark survives resynthesis and proves ownership. *)
  let stolen = Synth.Pipeline.run_recipe "optimize" mark.Locking.Watermark.f_circuit in
  Printf.printf "  watermark readout on the resynthesized pirate netlist: %d/20 bits\n"
    (Locking.Watermark.verify_functional mark stolen);
  Printf.printf "  watermark readout on an independent design           : %d/20 bits\n"
    (Locking.Watermark.verify_functional mark design);

  print_endline "\nsummary: each adversary is stopped by a different Table II scheme —";
  print_endline "and only their composition covers the whole supply chain (Sec. IV)."
