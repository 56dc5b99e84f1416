(* Command-line front end for the toolkit. Operates on netlists in the
   .bench-style text format (see Netlist.Io).

     secure_eda_cli gen --design alu4 -o alu.bench
     secure_eda_cli stats alu.bench
     secure_eda_cli lint alu.bench
     secure_eda_cli synth alu.bench -o alu_opt.bench
     secure_eda_cli synth alu.bench --recipe secure_synthesis -o masked.bench
     secure_eda_cli synth --list-recipes
     secure_eda_cli lock alu.bench --key-bits 16 -o locked.bench
     secure_eda_cli sat-attack locked.bench --oracle alu.bench --conflicts 50000
     secure_eda_cli atpg alu.bench --conflicts 20000
     secure_eda_cli trojan alu.bench --trigger-width 3
     secure_eda_cli tvla-fig2
     secure_eda_cli table2

   User-reachable failures (unreadable/malformed netlists, unknown design
   or library names) print a one-line diagnostic on stderr and exit
   non-zero; backtraces are reserved for actual bugs. *)

open Cmdliner
module Budget = Eda_util.Budget
module Eda_error = Eda_util.Eda_error
module Telemetry = Eda_util.Telemetry

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("secure_eda_cli: " ^ s); exit 2) fmt

let read_circuit path =
  match Netlist.Io.read_file_result path with
  | Ok c -> c
  | Error e -> die "%s: %s" path (Eda_error.to_string e)

let seed_arg =
  let doc = "PRNG seed (all randomness in the toolkit is seeded)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let output_arg =
  let doc = "Output netlist file." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)

(* Shared resource-budget flags: a conflict cap and/or a wall-clock cap.
   Absent means unlimited (classic behavior). *)
let conflicts_arg =
  let doc = "Abort solver work after this many conflicts (budgeted run)." in
  Arg.(value & opt (some int) None & info [ "conflicts" ] ~doc)

let seconds_arg =
  let doc = "Abort after this many seconds of engine time (budgeted run)." in
  Arg.(value & opt (some float) None & info [ "seconds" ] ~doc)

let budget_of conflicts seconds =
  match conflicts, seconds with
  | None, None -> None
  | steps, seconds -> Some (Budget.create ?steps ?seconds ())

(* Shared parallelism flag: the commands with a pool-aware engine
   ([tvla-fig2], [jobs]) accept -j N and run it on a domain pool. The
   default honours SECURE_EDA_JOBS (else 1). *)
let jobs_arg =
  let doc =
    "Worker domains for the parallel engines (default: $(b,SECURE_EDA_JOBS) or 1)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let with_jobs jobs f =
  let n = match jobs with Some n -> n | None -> Eda_util.Pool.default_jobs () in
  if n <= 1 then f None
  else Eda_util.Pool.with_pool ~num_domains:n (fun p -> f (Some p))

(* Shared telemetry flag: when present, every span/counter the command's
   engines emit is exported as JSONL, one event per line, readable back
   with [secure_eda_cli report]. *)
let trace_arg =
  let doc = "Export a JSONL telemetry trace of this run to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let oc = try open_out path with Sys_error msg -> die "%s: %s" path msg in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (* gc:true — traced CLI runs also record per-span allocation deltas *)
      (fun () -> Telemetry.with_sink ~gc:true (Telemetry.jsonl_sink oc) f)

let pp_solver_stats (s : Sat.Solver.stats) =
  Printf.printf "solver: %d conflicts, %d decisions, %d propagations, %d learnt, %d restarts\n"
    s.Sat.Solver.conflicts s.Sat.Solver.decisions s.Sat.Solver.propagations
    s.Sat.Solver.learnt s.Sat.Solver.restarts

let bits_to_string bits =
  String.concat "" (List.map (fun b -> if b then "1" else "0") (Array.to_list bits))

let write_or_print circuit = function
  | Some path ->
    Netlist.Io.write_file path circuit;
    Printf.printf "written %s (%d gates)\n" path (Netlist.Circuit.stats circuit).Netlist.Circuit.gates
  | None -> print_string (Netlist.Io.to_string circuit)

(* --- gen -------------------------------------------------------------- *)

let designs =
  [ ("c17", fun _ -> Netlist.Generators.c17 ());
    ("adder4", fun _ -> Netlist.Generators.ripple_adder 4);
    ("adder8", fun _ -> Netlist.Generators.ripple_adder 8);
    ("alu4", fun _ -> Netlist.Generators.alu 4);
    ("comparator8", fun _ -> Netlist.Generators.comparator 8);
    ("parity16", fun _ -> Netlist.Generators.parity_tree 16);
    ("aes_sbox", fun _ -> Crypto.Sbox_circuit.aes_sbox ());
    ("aes_round", fun _ -> Crypto.Sbox_circuit.aes_round_datapath ());
    ("present_sbox", fun _ -> Crypto.Sbox_circuit.present_sbox ());
    ("present_round", fun _ -> Crypto.Sbox_circuit.present_round ());
    ("aes_mixcolumn", fun _ -> Crypto.Sbox_circuit.aes_mixcolumn ());
    ("kogge_stone8", fun _ -> Netlist.Generators.kogge_stone_adder 8);
    ("multiplier4", fun _ -> Netlist.Generators.array_multiplier 4);
    ("random", fun seed -> Netlist.Generators.random_dag ~seed ~inputs:8 ~gates:80 ~outputs:4) ]

let gen_cmd =
  let design =
    let doc =
      Printf.sprintf "Design to generate: %s."
        (String.concat ", " (List.map fst designs))
    in
    Arg.(value & opt string "c17" & info [ "design" ] ~doc)
  in
  let run design seed output =
    match List.assoc_opt design designs with
    | Some f -> write_or_print (f seed) output
    | None ->
      die "unknown design %s (available: %s)" design
        (String.concat ", " (List.map fst designs))
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a reference netlist")
    Term.(const run $ design $ seed_arg $ output_arg)

(* --- stats / lint ------------------------------------------------------ *)

let netlist_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST" ~doc:"Input netlist file")

let stats_cmd =
  let run path =
    let c = read_circuit path in
    let s = Netlist.Circuit.stats c in
    let timing = Timing.Sta.analyze c in
    Printf.printf "inputs %d  outputs %d  flip-flops %d\n" s.Netlist.Circuit.inputs
      s.Netlist.Circuit.outputs s.Netlist.Circuit.flip_flops;
    Printf.printf "gates %d  area %.1f  critical path %.1f ps (via %s)\n" s.Netlist.Circuit.gates
      s.Netlist.Circuit.area timing.Timing.Sta.critical_path_delay
      timing.Timing.Sta.critical_output;
    List.iter (fun (k, n) -> Printf.printf "  %-8s %d\n" k n) s.Netlist.Circuit.by_kind
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print netlist statistics and timing")
    Term.(const run $ netlist_arg)

let lint_cmd =
  let run path =
    (* Bypass the lint built into read_circuit so every issue, not just
       the first blocking one, gets printed. *)
    let text = try Ok (In_channel.with_open_text path In_channel.input_all)
      with Sys_error msg -> Error msg
    in
    match text with
    | Error msg -> die "%s: %s" path msg
    | Ok text ->
      (match try Ok (Netlist.Io.of_string text) with
       | Netlist.Io.Parse_error msg -> Error msg
       with
       | Error msg -> die "%s: parse error: %s" path msg
       | Ok c ->
         let issues = Netlist.Lint.check c in
         List.iter (fun i -> print_endline (Netlist.Lint.describe i)) issues;
         let errors = List.length (Netlist.Lint.errors c) in
         Printf.printf "%d issue(s), %d error(s)\n" (List.length issues) errors;
         if errors > 0 then exit 1)
  in
  Cmd.v (Cmd.info "lint" ~doc:"Validate a netlist and print every lint issue")
    Term.(const run $ netlist_arg)

(* --- synth ------------------------------------------------------------ *)

let synth_cmd =
  let recipe =
    Arg.(value & opt string "optimize"
         & info [ "recipe" ] ~docv:"NAME" ~doc:"Recipe to run (see $(b,--list-recipes)).")
  in
  let list_recipes =
    Arg.(value & flag
         & info [ "list-recipes" ] ~doc:"List registered recipes and passes, then exit.")
  in
  let print_ir_after =
    Arg.(value & opt (some string) None
         & info [ "print-ir-after" ] ~docv:"PASS"
             ~doc:"Dump the lint-checked intermediate netlist after every execution of PASS.")
  in
  let params =
    Arg.(value & opt_all (pair ~sep:'=' string string) []
         & info [ "param"; "p" ] ~docv:"KEY=VALUE"
             ~doc:"Recipe parameter, repeatable (e.g. $(b,--param shares=3)).")
  in
  let max_passes =
    Arg.(value & opt (some int) None
         & info [ "max-passes" ]
             ~doc:"Stop the recipe after this many pass executions (budgeted run).")
  in
  let list_and_exit () =
    print_endline "recipes:";
    List.iter
      (fun (r : Synth.Pipeline.t) -> Printf.printf "  %-22s %s\n" r.Synth.Pipeline.name r.Synth.Pipeline.doc)
      (Synth.Pipeline.all ());
    print_endline "passes:";
    List.iter
      (fun (p : Synth.Pass.t) -> Printf.printf "  %-22s %s\n" p.Synth.Pass.name p.Synth.Pass.doc)
      (Synth.Pass.all ());
    exit 0
  in
  let run path recipe list_recipes params print_ir_after max_passes seconds output trace =
    Sidechannel.Secure_synth.register ();
    if list_recipes then list_and_exit ();
    let r =
      match Synth.Pipeline.find recipe with
      | Some r -> r
      | None ->
        die "unknown recipe %s (available: %s)" recipe
          (String.concat ", " (Synth.Pipeline.names ()))
    in
    let path = match path with
      | Some p -> p
      | None -> die "a NETLIST argument is required (except with --list-recipes)"
    in
    let c = read_circuit path in
    let observe =
      match print_ir_after with
      | None -> None
      | Some target ->
        let used = Synth.Pipeline.passes_used r in
        if not (List.mem target used) then
          die "--print-ir-after %s: recipe %s only runs: %s" target recipe
            (String.concat ", " used);
        let stem = Filename.remove_extension (Option.value output ~default:path) in
        Some
          (fun ~seq ~pass ir ->
            if pass = target then begin
              (match Netlist.Lint.errors ir with
               | [] -> ()
               | issue :: _ ->
                 die "IR after %s (step %d) fails lint: %s" pass seq (Netlist.Lint.describe issue));
              let file = Printf.sprintf "%s.after-%02d-%s.bench" stem seq pass in
              Netlist.Io.write_file file ir;
              Printf.eprintf "ir: wrote %s\n" file
            end)
    in
    let budget = budget_of max_passes seconds in
    let optimized =
      try
        with_trace trace (fun () -> Synth.Pipeline.run_recipe ?budget ?observe ~params recipe c)
      with
      | Synth.Pass.Check_failed { pass; msg } -> die "pass %s failed its check: %s" pass msg
      | Invalid_argument msg -> die "%s" msg
    in
    let before = (Netlist.Circuit.stats c).Netlist.Circuit.gates in
    let after = (Netlist.Circuit.stats optimized).Netlist.Circuit.gates in
    Printf.eprintf "synthesis: %d -> %d gates (recipe %s)\n" before after recipe;
    write_or_print optimized output
  in
  let netlist_opt =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"NETLIST" ~doc:"Input netlist file")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Run a synthesis recipe (classical, security-aware or masking; see --list-recipes)")
    Term.(const run $ netlist_opt $ recipe $ list_recipes $ params $ print_ir_after
          $ max_passes $ seconds_arg $ output_arg $ trace_arg)

(* --- lock / sat-attack ------------------------------------------------ *)

let lock_cmd =
  let key_bits =
    Arg.(value & opt int 16 & info [ "key-bits" ] ~doc:"Number of key gates to insert")
  in
  let run path key_bits seed output =
    let c = read_circuit path in
    let rng = Eda_util.Rng.create seed in
    let locked =
      try Locking.Lock.epic rng ~key_bits c with Invalid_argument msg -> die "%s: %s" path msg
    in
    Printf.eprintf "correct key: %s\n" (bits_to_string locked.Locking.Lock.correct_key);
    Printf.eprintf "verification: %s\n"
      (match Locking.Lock.verify_correct locked ~original:c with
       | None -> "locked == original under correct key"
       | Some _ -> "MISMATCH");
    write_or_print locked.Locking.Lock.circuit output
  in
  Cmd.v (Cmd.info "lock" ~doc:"EPIC-lock a netlist (key inputs key0..keyN)")
    Term.(const run $ netlist_arg $ key_bits $ seed_arg $ output_arg)

let sat_attack_cmd =
  let oracle =
    Arg.(required & opt (some file) None & info [ "oracle" ] ~doc:"Original (activated-chip) netlist")
  in
  let max_iterations =
    Arg.(value & opt int 256 & info [ "max-iterations" ] ~doc:"DIP query cap")
  in
  let run locked_path oracle_path max_iterations conflicts seconds trace =
    let locked_circuit = read_circuit locked_path in
    let original = read_circuit oracle_path in
    (* Reconstruct the locked view: key inputs are the key* named ones. *)
    let key_inputs, data_inputs =
      Array.to_list (Netlist.Circuit.inputs locked_circuit)
      |> List.partition (fun id ->
             let nm = Netlist.Circuit.name locked_circuit id in
             String.length nm >= 3 && String.sub nm 0 3 = "key")
    in
    if key_inputs = [] then die "%s: no key inputs (names starting with \"key\")" locked_path;
    (* The oracle answers DIPs on the locked netlist's data inputs, in
       order, and is compared output by output. A sequential netlist is
       left to the attack, which refuses it naming its DFF count. *)
    let names c ids = List.map (Netlist.Circuit.name c) ids in
    let output_names c = Array.to_list (Array.map fst (Netlist.Circuit.outputs c)) in
    let interface ins outs =
      Printf.sprintf "%d inputs (%s), %d outputs (%s)" (List.length ins) (String.concat " " ins)
        (List.length outs) (String.concat " " outs)
    in
    let locked_ins = names locked_circuit data_inputs
    and locked_outs = output_names locked_circuit in
    let oracle_ins = names original (Array.to_list (Netlist.Circuit.inputs original))
    and oracle_outs = output_names original in
    if Netlist.Circuit.num_dffs locked_circuit = 0
       && (locked_ins <> oracle_ins || locked_outs <> oracle_outs)
    then
      die "%s: oracle %s does not match the locked netlist: locked data interface %s, oracle %s"
        locked_path oracle_path (interface locked_ins locked_outs)
        (interface oracle_ins oracle_outs);
    let locked =
      { Locking.Lock.circuit = locked_circuit;
        key_inputs = Array.of_list key_inputs;
        data_inputs = Array.of_list data_inputs;
        correct_key = Array.make (List.length key_inputs) false }
    in
    let budget = budget_of conflicts seconds in
    match
      with_trace trace (fun () ->
          Locking.Sat_attack.run_checked ~max_iterations ?budget
            ~oracle:(Locking.Sat_attack.oracle_of_circuit original) locked)
    with
    | Error e -> die "%s: %s" locked_path (Eda_error.to_string e)
    | Ok result ->
      let module A = Locking.Sat_attack in
      Printf.printf "status: %s after %d DIPs\n"
        (A.describe_status result.A.status) result.A.iterations;
      pp_solver_stats result.A.solver_stats;
      (match result.A.key, result.A.status with
       | Some key, A.Converged ->
         Printf.printf "key recovered: %s\n" (bits_to_string key);
         let ok =
           Sat.Cnf.check_equivalence original (Locking.Lock.apply_key locked ~key) = None
         in
         Printf.printf "functionally correct: %b\n" ok
       | Some key, _ ->
         Printf.printf "best-effort key (unproven): %s\n" (bits_to_string key)
       | None, _ -> Printf.printf "no key recovered\n")
  in
  Cmd.v (Cmd.info "sat-attack" ~doc:"Oracle-guided SAT attack on a locked netlist")
    Term.(
      const run $ netlist_arg $ oracle $ max_iterations $ conflicts_arg $ seconds_arg
      $ trace_arg)

(* --- atpg ------------------------------------------------------------- *)

let atpg_cmd =
  let patterns_flag =
    Arg.(value & flag & info [ "patterns" ] ~doc:"Print the generated patterns")
  in
  let run path conflicts seconds print_patterns trace =
    let c = read_circuit path in
    let budget = budget_of conflicts seconds in
    match with_trace trace (fun () -> Dft.Atpg.run_checked ?budget c) with
    | Error e -> die "%s: %s" path (Eda_error.to_string e)
    | Ok r ->
      Printf.printf "patterns %d, stuck-at coverage %.1f%%, untestable faults %d\n"
        (List.length r.Dft.Atpg.patterns) (100.0 *. r.Dft.Atpg.coverage)
        (List.length r.Dft.Atpg.untestable);
      (match r.Dft.Atpg.exhausted with
       | Some e ->
         Printf.printf "budget exhausted (%s): %d/%d faults unprocessed; coverage is partial\n"
           (Budget.describe_exhaustion e) r.Dft.Atpg.faults_remaining r.Dft.Atpg.faults_total
       | None -> ());
      pp_solver_stats r.Dft.Atpg.solver_stats;
      if print_patterns then
        List.iteri
          (fun k p -> Printf.printf "  pat%-3d %s\n" k (bits_to_string p))
          r.Dft.Atpg.patterns
  in
  Cmd.v (Cmd.info "atpg" ~doc:"SAT-based test pattern generation (stuck-at)")
    Term.(
      const run $ netlist_arg $ conflicts_arg $ seconds_arg $ patterns_flag $ trace_arg)

(* --- trojan ------------------------------------------------------------ *)

let trojan_cmd =
  let width = Arg.(value & opt int 3 & info [ "trigger-width" ] ~doc:"Trigger conditions") in
  let run path width seed output =
    let c = read_circuit path in
    let rng = Eda_util.Rng.create seed in
    let troj = Trojan.Insert.insert rng ~trigger_width:width ~patterns:4096 c in
    Printf.eprintf "trigger probability: %.5f; victim output: %d\n"
      (Trojan.Insert.trigger_probability rng troj ~patterns:50000)
      troj.Trojan.Insert.victim_output;
    write_or_print troj.Trojan.Insert.infected output
  in
  Cmd.v (Cmd.info "trojan" ~doc:"Insert a rare-trigger Trojan (for detection research)")
    Term.(const run $ netlist_arg $ width $ seed_arg $ output_arg)

(* --- techmap / redundancy / watermark ----------------------------------- *)

let techmap_cmd =
  let target =
    let doc = "Target library: nand-inv or camo (NAND/NOR/XNOR)." in
    Arg.(value & opt string "nand-inv" & info [ "target" ] ~doc)
  in
  let run path target output =
    let c = read_circuit path in
    let target_t =
      match target with
      | "nand-inv" -> Synth.Techmap.Nand_inv
      | "camo" -> Synth.Techmap.Nand_nor_xnor
      | other -> die "unknown target %s (available: nand-inv, camo)" other
    in
    let mapped = Synth.Pass.apply ~params:[ ("target", target) ] "techmap" c in
    Printf.eprintf "mapped: area %.1f -> %.1f, conforms = %b\n"
      (Netlist.Circuit.stats c).Netlist.Circuit.area
      (Netlist.Circuit.stats mapped).Netlist.Circuit.area
      (Synth.Techmap.conforms target_t mapped);
    write_or_print mapped output
  in
  Cmd.v (Cmd.info "techmap" ~doc:"Map a netlist to a restricted cell library")
    Term.(const run $ netlist_arg $ target $ output_arg)

let redundancy_cmd =
  let run path output =
    let c = read_circuit path in
    let cleaned =
      try Dft.Atpg.remove_redundancy c with Invalid_argument msg -> die "%s: %s" path msg
    in
    Printf.eprintf "redundancy removal: %d -> %d gates\n"
      (Netlist.Circuit.stats c).Netlist.Circuit.gates
      (Netlist.Circuit.stats cleaned).Netlist.Circuit.gates;
    write_or_print cleaned output
  in
  Cmd.v (Cmd.info "redundancy" ~doc:"Remove ATPG-untestable (redundant) logic")
    Term.(const run $ netlist_arg $ output_arg)

let watermark_cmd =
  let bits = Arg.(value & opt int 16 & info [ "bits" ] ~doc:"Signature width") in
  let run path bits seed output =
    let c = read_circuit path in
    let rng = Eda_util.Rng.create seed in
    let mark = Locking.Watermark.embed_functional rng ~bits c in
    Printf.eprintf "embedded %d-bit functional watermark (false-claim p = %.2e)\n" bits
      (Locking.Watermark.false_claim_probability ~bits);
    Printf.eprintf "self-verification: %d/%d bits\n"
      (Locking.Watermark.verify_functional mark mark.Locking.Watermark.f_circuit)
      bits;
    write_or_print mark.Locking.Watermark.f_circuit output
  in
  Cmd.v (Cmd.info "watermark" ~doc:"Embed a functional (resynthesis-proof) watermark")
    Term.(const run $ netlist_arg $ bits $ seed_arg $ output_arg)

(* --- tvla-fig2 / table2 / flow ----------------------------------------- *)

let tvla_fig2_cmd =
  let traces = Arg.(value & opt int 4000 & info [ "traces" ] ~doc:"Traces per class") in
  let run seed traces jobs trace =
    let rng = Eda_util.Rng.create seed in
    let module L = Sidechannel.Leakage in
    let aware = L.synthesize_masked L.Security_aware in
    let unaware = L.synthesize_masked L.Security_unaware in
    (* The seeded campaign gives the same max|t| at any -j value. *)
    let ra, ru =
      with_trace trace (fun () ->
          with_jobs jobs (fun pool ->
              ( L.tvla_campaign ?pool rng aware ~traces_per_class:traces
                  ~noise_sigma:0.3,
                L.tvla_campaign ?pool rng unaware ~traces_per_class:traces
                  ~noise_sigma:0.3 )))
    in
    Printf.printf "security-aware  : max|t| = %.2f (%s)\n" ra.Sidechannel.Tvla.max_abs_t
      (if Sidechannel.Tvla.leaks ra then "LEAKS" else "passes");
    Printf.printf "security-unaware: max|t| = %.2f (%s)\n" ru.Sidechannel.Tvla.max_abs_t
      (if Sidechannel.Tvla.leaks ru then "LEAKS" else "passes")
  in
  Cmd.v (Cmd.info "tvla-fig2" ~doc:"Reproduce the paper's Fig. 2 TVLA contrast")
    Term.(const run $ seed_arg $ traces $ jobs_arg $ trace_arg)

let table2_cmd =
  let run seed =
    let rng = Eda_util.Rng.create seed in
    List.iter
      (fun cell ->
        let module R = Secure_eda.Scheme_registry in
        Printf.printf "%-26s | %-26s | %s\n"
          (R.stage_name cell.R.stage)
          (Secure_eda.Threat_model.name cell.R.threat)
          (cell.R.run rng))
      Secure_eda.Scheme_registry.table
  in
  Cmd.v (Cmd.info "table2" ~doc:"Run every Table II scheme on its reference workload")
    Term.(const run $ seed_arg)

let flow_cmd =
  let checkpoint_arg =
    let doc =
      "Persist the flow checkpoint to $(docv) after every completed stage (atomic \
       write); if $(docv) already holds a valid checkpoint of this netlist, resume \
       from it. A corrupt, stale or foreign checkpoint is refused."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let run path seed conflicts seconds checkpoint trace =
    let c = read_circuit path in
    let rng = Eda_util.Rng.create seed in
    let budget = budget_of conflicts seconds in
    match with_trace trace (fun () -> Secure_eda.Flow.run rng ?budget ?checkpoint c) with
    | Error e -> die "%s: %s" path (Eda_error.to_string e)
    | Ok report ->
      if report.Secure_eda.Flow.resumed > 0 then
        Printf.eprintf "resuming: %d stage(s) already done\n" report.Secure_eda.Flow.resumed;
      List.iter
        (fun sr ->
          Printf.printf "%-28s area %8.1f  delay %8.1f ps  %s%s\n"
            (Secure_eda.Flow.stage_name sr.Secure_eda.Flow.stage)
            sr.Secure_eda.Flow.area sr.Secure_eda.Flow.delay_ps sr.Secure_eda.Flow.note
            (match sr.Secure_eda.Flow.degraded with
             | Some why -> "  [degraded: " ^ why ^ "]"
             | None -> ""))
        report.Secure_eda.Flow.stages;
      if report.Secure_eda.Flow.degraded_stages > 0 then
        Printf.printf "%d stage(s) degraded\n" report.Secure_eda.Flow.degraded_stages
  in
  Cmd.v (Cmd.info "flow" ~doc:"Run the budgeted EDA flow (Fig. 1) with degradation notes")
    Term.(
      const run $ netlist_arg $ seed_arg $ conflicts_arg $ seconds_arg $ checkpoint_arg
      $ trace_arg)

(* --- jobs -------------------------------------------------------------- *)

(* Batch driver over the supervised job engine: a jobs file names one
   engine invocation per line, the supervisor runs them with retries,
   backoff, load shedding and quarantine, and the exit status reflects
   whether anything ended permanently failed. *)

let job_engines = [ "lint"; "synth"; "atpg"; "flow" ]

let job_work ~engine ~input ~seed ~name ~checkpoint_dir =
  let ( let* ) = Eda_error.( let* ) in
  let parse () = Netlist.Io.read_file_result input in
  match engine with
  | "lint" ->
    fun (_ : Budget.t) ->
      let* c = parse () in
      Ok (Printf.sprintf "clean (%d gates)" (Netlist.Circuit.stats c).Netlist.Circuit.gates)
  | "synth" ->
    fun (_ : Budget.t) ->
      let* c = parse () in
      let* optimized =
        Eda_error.guard ~engine:"synth" (fun () -> Synth.Pipeline.run_recipe "optimize" c)
      in
      Ok
        (Printf.sprintf "%d -> %d gates"
           (Netlist.Circuit.stats c).Netlist.Circuit.gates
           (Netlist.Circuit.stats optimized).Netlist.Circuit.gates)
  | "atpg" ->
    fun budget ->
      let* c = parse () in
      let* r = Dft.Atpg.run_checked ~budget c in
      (match r.Dft.Atpg.exhausted with
       | Some reason when r.Dft.Atpg.coverage = 0.0 ->
         (* Nothing useful came out of the slice: report it as exhaustion
            so the supervisor retries with a fresh attempt budget. *)
         Error
           (Eda_error.Budget_exhausted
              { engine = "atpg";
                reason;
                progress =
                  Printf.sprintf "0/%d faults covered" r.Dft.Atpg.faults_total })
       | _ ->
         Ok
           (Printf.sprintf "coverage %.1f%%%s" (100.0 *. r.Dft.Atpg.coverage)
              (if r.Dft.Atpg.exhausted <> None then " (partial)" else "")))
  | "flow" ->
    let ckpt = Option.map (fun dir -> Filename.concat dir (name ^ ".json")) checkpoint_dir in
    fun budget ->
      let* c = parse () in
      (* A fresh rng per attempt: retries replay the same schedule. *)
      let rng = Eda_util.Rng.create seed in
      let* report = Secure_eda.Flow.run rng ~budget ?checkpoint:ckpt c in
      Ok
        (Printf.sprintf "%d stage(s), %d degraded%s"
           (List.length report.Secure_eda.Flow.stages)
           report.Secure_eda.Flow.degraded_stages
           (if report.Secure_eda.Flow.resumed > 0 then
              Printf.sprintf " (resumed past %d)" report.Secure_eda.Flow.resumed
            else ""))
  | other ->
    fun (_ : Budget.t) ->
      Error
        (Eda_error.Invalid_input
           { what = "job engine";
             msg =
               Printf.sprintf "%s (available: %s)" other (String.concat ", " job_engines) })

(* Jobs file: one job per line, [name engine netlist]; blank lines and
   [#] comments are skipped. *)
let parse_jobs_file path ~policy ~seed ~checkpoint_dir =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> die "%s: %s" path msg
  in
  String.split_on_char '\n' text
  |> List.mapi (fun lineno line -> (lineno + 1, String.trim line))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (lineno, line) ->
         match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
         | [ name; engine; input ] ->
           Service.Job.create ~klass:engine ~policy ~name
             (job_work ~engine ~input ~seed ~name ~checkpoint_dir)
         | _ ->
           die "%s:%d: expected \"name engine netlist\", got %S" path lineno line)

let jobs_cmd =
  let jobs_file =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"JOBFILE"
          ~doc:"Jobs file: one $(b,name engine netlist) triple per line (engines: \
                lint, synth, atpg, flow); $(b,#) starts a comment.")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retries per job after the first attempt (transient failures only).")
  in
  let job_seconds_arg =
    Arg.(
      value & opt (some float) None
      & info [ "job-seconds" ] ~docv:"S" ~doc:"Wall-clock allowance per attempt.")
  in
  let job_conflicts_arg =
    Arg.(
      value & opt (some int) None
      & info [ "job-conflicts" ] ~docv:"N" ~doc:"Step allowance per attempt.")
  in
  let queue_depth_arg =
    Arg.(
      value & opt (some int) None
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission cap: jobs beyond the first $(docv) are shed up front.")
  in
  let quarantine_arg =
    Arg.(
      value & opt int 3
      & info [ "quarantine-after" ] ~docv:"N"
          ~doc:"Consecutive failures that quarantine a job class.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:"Flow jobs checkpoint to $(docv)/$(i,name).json after every stage and \
                resume from it when present.")
  in
  let run jobs_file retries job_conflicts job_seconds conflicts seconds queue_depth
      quarantine_after checkpoint_dir seed jobs trace =
    (match checkpoint_dir with
     | Some dir when not (Sys.file_exists dir) ->
       (try Sys.mkdir dir 0o755 with Sys_error msg -> die "%s: %s" dir msg)
     | _ -> ());
    let policy =
      { Service.Job.default_policy with
        Service.Job.max_retries = max 0 retries;
        attempt_steps = job_conflicts;
        attempt_seconds = job_seconds }
    in
    let job_list = parse_jobs_file jobs_file ~policy ~seed ~checkpoint_dir in
    let budget = budget_of conflicts seconds in
    let config =
      { Service.Supervisor.default_config with
        Service.Supervisor.max_queue_depth = queue_depth;
        quarantine_after }
    in
    let rng = Eda_util.Rng.create seed in
    let report =
      with_trace trace (fun () ->
          with_jobs jobs (fun pool ->
              Service.Supervisor.run ?pool ?budget ~config rng job_list))
    in
    List.iter
      (fun o ->
        let module S = Service.Supervisor in
        Printf.printf "%-20s %-8s %s%s\n" o.S.job.Service.Job.name
          (S.state_code o.S.state)
          (S.describe_state o.S.state)
          (if o.S.attempts > 1 then Printf.sprintf "  [%d attempts]" o.S.attempts else ""))
      report.Service.Supervisor.outcomes;
    let module S = Service.Supervisor in
    Printf.printf "jobs: %d ok, %d failed, %d shed, %d quarantined (%d retries, %d waves)\n"
      report.S.succeeded report.S.failed report.S.shed report.S.quarantined
      report.S.retries report.S.waves;
    if S.permanently_failed report > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "jobs"
       ~doc:
         "Run a batch of engine jobs under the supervisor: crash isolation, retries \
          with backoff, load shedding, quarantine; exits non-zero iff a job ends \
          permanently failed")
    Term.(
      const run $ jobs_file $ retries_arg $ job_conflicts_arg $ job_seconds_arg
      $ conflicts_arg $ seconds_arg $ queue_depth_arg $ quarantine_arg
      $ checkpoint_dir_arg $ seed_arg $ jobs_arg $ trace_arg)

(* --- report ------------------------------------------------------------ *)

let report_cmd =
  let module Trace = Telemetry.Trace in
  let trace_file =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"JSONL trace file")
  in
  let flame_arg =
    let doc = "Print folded stacks (path;to;span <self µs>) instead of the profile." in
    Arg.(value & flag & info [ "flame" ] ~doc)
  in
  let critical_arg =
    let doc = "Print the critical path through the span tree instead of the profile." in
    Arg.(value & flag & info [ "critical-path" ] ~doc)
  in
  let diff_arg =
    let doc =
      "Diff $(docv) (baseline) against TRACE: per-span duration totals, counter \
       totals and final gauges. Exits 1 when any metric regresses past --threshold."
    in
    Arg.(value & opt (some file) None & info [ "diff" ] ~docv:"BASE" ~doc)
  in
  let threshold_arg =
    let doc = "Relative tolerance for --diff verdicts (0.25 = 25%)." in
    Arg.(value & opt float 0.25 & info [ "threshold" ] ~docv:"FRAC" ~doc)
  in
  let min_duration_arg =
    let doc =
      "Ignore span metrics whose larger duration total is below $(docv) seconds in \
       --diff (filters microsecond jitter)."
    in
    Arg.(value & opt float 0.0 & info [ "min-duration" ] ~docv:"SECONDS" ~doc)
  in
  let load path =
    match Trace.of_file path with
    | Error msg -> die "%s: malformed trace: %s" path msg
    | Ok trace -> trace
  in
  let run path flame critical diff threshold min_duration =
    let trace = load path in
    match diff with
    | Some base_path ->
      let base = load base_path in
      let d = Trace.diff_traces ~threshold ~min_duration ~base trace in
      Format.printf "%a@." Trace.pp_diff d;
      if d.Trace.regressions > 0 then exit 1
    | None ->
      if flame then Format.printf "%a@?" Trace.pp_flame trace
      else if critical then Format.printf "%a@." Trace.pp_critical_path trace
      else
        Format.printf "%a%a@." Trace.pp_profile trace Trace.pp_domains trace
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Profile a JSONL telemetry trace (span tree, wall time, counters, per-domain \
          busy time); --flame for folded stacks, --critical-path for the longest \
          chain, --diff BASE for a regression gate (exit 1 past --threshold)")
    Term.(
      const run $ trace_file $ flame_arg $ critical_arg $ diff_arg $ threshold_arg
      $ min_duration_arg)

let () =
  let doc = "security-centric EDA toolkit (DATE 2020 reproduction)" in
  let info = Cmd.info "secure_eda_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ gen_cmd; stats_cmd; lint_cmd; synth_cmd; lock_cmd; sat_attack_cmd; atpg_cmd;
            trojan_cmd; techmap_cmd; redundancy_cmd; watermark_cmd;
            tvla_fig2_cmd; table2_cmd; flow_cmd; jobs_cmd; report_cmd ]))
