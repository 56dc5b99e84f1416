(* Fixed-work benchmark harness for the three workloads described in
   README.md. Two subcommands:

     main.exe gen WORKLOAD SEED DIR
       write the seeded corpus (one .bench file per design plus
       manifest.tsv) and print the corpus fingerprints as JSON;

     main.exe run WORKLOAD DIR TRACE
       read the corpus back (the timed set-up), process every design one
       after another, check every output outside the timed region and
       print the metrics as JSON. With TRACE = 1 a second, traced pass
       over the same designs follows and per-layer numbers are added.

   Every budget is a step budget, never a time budget, so for one seed
   every quality number and program counter repeats exactly and only
   host time varies. No pool is used: single-domain runs keep the peak
   heap repeatable. *)

module Circuit = Netlist.Circuit
module Bench_gen = Netlist.Bench_gen
module Rng = Eda_util.Rng
module Budget = Eda_util.Budget
module T = Eda_util.Telemetry
module Json = T.Json
module Flow = Secure_eda.Flow

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Workloads and their fixed sizes ------------------------------------ *)

type workload = Signoff_flow | Masked_signoff | Supply_chain_attack

let workload_of_string = function
  | "signoff_flow" -> Signoff_flow
  | "masked_signoff" -> Masked_signoff
  | "supply_chain_attack" -> Supply_chain_attack
  | s -> fail "unknown workload %S" s

(* At least 100 designs, so that ten samples lie beyond design_p90_s. *)
let designs = 100

(* signoff_flow: the Testing stage is capped at this many budget steps
   (one per fault plus one per solver conflict). *)
let atpg_step_cap = 500
let signoff_gates = (300, 1200)

(* masked_signoff: traces per class of the recipe's own HW-model TVLA gate
   and of the glitch-aware campaign after it. *)
let recipe_traces_per_class = 600
let glitch_traces_per_class = 10
let masked_gates = (16, 32)

(* supply_chain_attack: placements are the majority, so the latency
   percentiles fall on designs whose work the seed does not change (fixed
   size ladder, fixed moves per node) rather than on SAT attacks, whose
   cost is heavy-tailed in the locked structure. *)
let split_designs = 60
let lock_gates = (60, 160)
let split_gates = (600, 2000)
let split_moves_per_node = 30
let key_bits = 8
let attack_step_cap = 50_000
let split_feol_threshold = 2

(* Rung [i] of a size ladder: a fixed permutation of [designs] evenly
   spaced sizes, the same for every seed, so a seed changes structure
   but not the size mix. *)
let ladder (lo, hi) ~count i = lo + ((hi - lo) * ((i * 61) mod count) / max 1 (count - 1))

let families = Array.of_list Bench_gen.all_families

let design_seed ~seed i = (seed * 1009) + i

(* --- Corpus: generation and manifest ------------------------------------ *)

(* One manifest line per design: file, family, kind, then two
   kind-specific fields (masked: shares, style; locked: original file,
   correct key; split: annealing moves, FEOL threshold). *)
type entry = {
  file : string;
  family : string;
  kind : string;
  p1 : string;
  p2 : string;
}

let write_bench dir name c =
  Netlist.Io.write_file (Filename.concat dir name) c;
  Bench_gen.fingerprint c

let gen workload ~seed dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let entries = ref [] and fps = ref [] in
  let add ?(p1 = "-") ?(p2 = "-") ~family ~kind i c =
    let file = Printf.sprintf "%03d-%s.bench" i family in
    fps := write_bench dir file c :: !fps;
    entries := { file; family; kind; p1; p2 } :: !entries
  in
  for i = 0 to designs - 1 do
    let ds = design_seed ~seed i in
    let fam = families.(i mod Array.length families) in
    let family = Bench_gen.family_name fam in
    match workload with
    | Signoff_flow ->
      let target_gates = ladder signoff_gates ~count:designs i in
      add ~family ~kind:"flow" i (Bench_gen.sized ~seed:ds fam ~target_gates)
    | Masked_signoff ->
      (* Families rotate with period 6; shares and style change on the
         next periods, so every family meets every masking variant. *)
      let shares = string_of_int (2 + ((i / 6) mod 2)) in
      let style = if (i / 12) mod 2 = 0 then "isw" else "dom" in
      let c, family =
        if i = 0 then Crypto.Sbox_circuit.aes_round_datapath (), "aes_sbox"
        else if i < 5 then Crypto.Sbox_circuit.present_round_datapath (), "present_sbox"
        else
          let target_gates = ladder masked_gates ~count:designs i in
          let c =
            match fam with
            | Bench_gen.Mixed ->
              (* [sized] would mix in a c432 quarter at that family's
                 ~200-gate minimum; two small components keep the masked
                 netlist small. *)
              Bench_gen.mix ~seed:ds
                [ ("lay", Bench_gen.sized ~seed:(ds + 1) Bench_gen.Layered ~target_gates);
                  ("alu", Bench_gen.sized ~seed:(ds + 2) Bench_gen.C880 ~target_gates) ]
                ()
            | _ -> Bench_gen.sized ~seed:ds fam ~target_gates
          in
          (c, family)
      in
      add ~family ~kind:"masked" ~p1:shares ~p2:style i c
    | Supply_chain_attack ->
      if i < designs - split_designs then begin
        let original = Bench_gen.sized ~seed:ds fam ~target_gates:(ladder lock_gates ~count:designs i) in
        let orig_file = Printf.sprintf "%03d-%s-original.bench" i family in
        fps := write_bench dir orig_file original :: !fps;
        let locked = Locking.Lock.epic (Rng.create ds) ~key_bits original in
        let key =
          String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") locked.Locking.Lock.correct_key))
        in
        add ~family ~kind:"locked" ~p1:orig_file ~p2:key i locked.Locking.Lock.circuit
      end
      else begin
        let j = i - (designs - split_designs) in
        let target_gates = ladder split_gates ~count:split_designs j in
        let c = Bench_gen.sized ~seed:ds fam ~target_gates in
        add ~family ~kind:"split" ~p1:(string_of_int (split_moves_per_node * Circuit.node_count c))
          ~p2:(string_of_int split_feol_threshold) i c
      end
  done;
  let entries = List.rev !entries in
  Out_channel.with_open_bin (Filename.concat dir "manifest.tsv") (fun oc ->
      List.iter
        (fun e -> Printf.fprintf oc "%s\t%s\t%s\t%s\t%s\n" e.file e.family e.kind e.p1 e.p2)
        entries);
  let mix = Hashtbl.create 8 in
  List.iter
    (fun e -> Hashtbl.replace mix e.family (1 + Option.value ~default:0 (Hashtbl.find_opt mix e.family)))
    entries;
  let mix = List.sort compare (Hashtbl.fold (fun k v acc -> (k, Json.JInt v) :: acc) mix []) in
  print_endline
    (Json.to_string
       (Json.JObj
          [ ("designs", Json.JInt (List.length entries));
            ("family_mix", Json.JObj mix);
            ("fingerprints", Json.JList (List.rev_map (fun f -> Json.JStr f) !fps)) ]))

let read_manifest dir =
  let path = Filename.concat dir "manifest.tsv" in
  if not (Sys.file_exists path) then fail "no corpus manifest at %s" path;
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ file; family; kind; p1; p2 ] -> { file; family; kind; p1; p2 }
         | _ -> fail "malformed manifest line %S" line)

(* --- Set-up: read and lint every corpus file ---------------------------- *)

type design = {
  entry : entry;
  circuit : Circuit.t;
  original : Circuit.t option;  (* locked designs: the oracle's netlist *)
}

let bytes_read = ref 0

let load dir file =
  let text =
    try In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all
    with Sys_error msg -> fail "%s" msg
  in
  bytes_read := !bytes_read + String.length text;
  let c =
    T.with_span "netlist.read" (fun () ->
        match Netlist.Io.of_string text with
        | c -> c
        | exception Netlist.Io.Parse_error msg -> fail "%s: %s" file msg)
  in
  T.with_span "netlist.lint" (fun () ->
      match Netlist.Lint.errors c with
      | [] -> c
      | i :: _ -> fail "%s: lint error: %s" file i.Netlist.Lint.msg)

let setup dir entries =
  bytes_read := 0;
  let designs =
    List.map
      (fun entry ->
        let original = if entry.kind = "locked" then Some (load dir entry.p1) else None in
        { entry; circuit = load dir entry.file; original })
      entries
  in
  Sidechannel.Secure_synth.register ();
  designs

(* --- Per-design processing ---------------------------------------------- *)

(* What one design produced: its timed latency, why it failed (if it
   did), and every quality number and program counter it reported, which
   must repeat exactly at a fixed seed. *)
type outcome = {
  latency : float;
  failure : string option;
  quality : (string * float) list;
  notes : string list;
}

(* Output checks and bookkeeping run outside the timed region and
   outside the trace. *)
let untraced f = T.with_sink T.null f

(* Words allocated and major collections inside timed regions. *)
let alloc_words = ref 0.0
let major_collections = ref 0

(* The timed region of one design, under its bench.design span; the
   caller assesses the result afterwards, [untraced]. *)
let timed d f =
  T.with_span "bench.design" ~attrs:[ ("file", T.Str d.entry.file); ("family", T.Str d.entry.family) ]
  @@ fun () ->
  let majors = (Gc.quick_stat ()).Gc.major_collections and alloc = T.alloc_snapshot () in
  let t0 = Unix.gettimeofday () in
  let r = try Ok (f ()) with e -> Error e in
  let latency = Unix.gettimeofday () -. t0 in
  alloc_words := !alloc_words +. (T.alloc_since alloc).T.alloc_words;
  major_collections := !major_collections + (Gc.quick_stat ()).Gc.major_collections - majors;
  (latency, r)

let classify_exn = function
  | Invalid_argument msg when contains msg "event storm" -> "event_storm"
  | Synth.Pass.Check_failed _ -> "stage_failed"
  | _ -> "exception"

let exn_outcome latency e =
  { latency; failure = Some (classify_exn e); quality = []; notes = [ Printexc.to_string e ] }

let gates c = (Circuit.stats c).Circuit.gates

let check_rng d = Rng.create (0x636b + Hashtbl.hash d.entry.file)

let process_flow ~pseed d =
  let rng = Rng.create pseed in
  let stage_steps = function Flow.Testing -> Some atpg_step_cap | _ -> None in
  let latency, r = timed d (fun () -> T.with_span "core.flow" (fun () -> Flow.run rng ~stage_steps d.circuit)) in
  untraced @@ fun () ->
  match r with
  | Error e -> exn_outcome latency e
  | Ok (Error e) ->
    { latency; failure = Some "stage_failed"; quality = []; notes = [ Eda_util.Eda_error.to_string e ] }
  | Ok (Ok report) ->
    let failure =
      List.fold_left
        (fun acc (r : Flow.stage_report) ->
          match acc, r.degraded with
          | Some _, _ | None, None -> acc
          | None, Some why when r.stage = Flow.Testing && String.starts_with ~prefix:"partial ATPG" why -> None
          | None, Some why -> Some (if contains why "event storm" then "event_storm" else "stage_failed"))
        None report.stages
    in
    let final = report.final in
    let failure =
      match failure with
      | Some _ -> failure
      | None ->
        if Netlist.Sim.equivalent_random (check_rng d) ~patterns:1024 d.circuit final then None
        else Some "check_failed"
    in
    let quality =
      List.concat_map
        (fun (r : Flow.stage_report) ->
          let name = Flow.stage_name r.stage in
          [ (name ^ ":area", r.area); (name ^ ":delay_ps", r.delay_ps) ]
          @ (match r.wirelength with
             | Some wl -> [ ("wirelength", float_of_int wl); ("hpwl_per_cell", float_of_int wl /. float_of_int (max 1 (gates final))) ]
             | None -> [])
          @ match r.fault_coverage with Some fc -> [ ("fault_coverage", fc) ] | None -> [])
        report.stages
      @ [ ("faults_total", float_of_int (List.length (Fault.Model.all_stuck_at_faults final))) ]
    in
    let notes =
      List.map
        (fun (r : Flow.stage_report) ->
          r.note ^ match r.degraded with Some why -> " [" ^ why ^ "]" | None -> "")
        report.stages
    in
    { latency; failure; quality; notes }

(* Fixed-vs-random glitch-aware campaign on a masked netlist: secrets are
   re-shared per trace, masking randomness is fresh per trace, and each
   trace is the event-driven power trace of the precharge-to-evaluate
   transition. *)
let glitch_campaign rng masked =
  let iface = Synth.Masking.interface_of masked in
  let ni = Circuit.num_inputs masked in
  let pos = Hashtbl.create ni in
  Array.iteri (fun p id -> Hashtbl.replace pos id p) (Circuit.inputs masked);
  let pos id = Hashtbl.find pos id in
  let prev_inputs = Array.make ni false in
  let config = Power.Model.default_config in
  let collect stream cls =
    let next_inputs = Array.make ni false in
    List.iter
      (fun (_, ids) ->
        let v = match cls with `Fixed -> true | `Random -> Rng.bool stream in
        if Array.length ids = 1 then next_inputs.(pos ids.(0)) <- v
        else
          Array.iteri
            (fun s b -> next_inputs.(pos ids.(s)) <- b)
            (Sidechannel.Isw.encode stream ~shares:(Array.length ids) v))
      iface.Synth.Masking.secrets;
    Array.iter (fun id -> next_inputs.(pos id) <- Rng.bool stream) iface.Synth.Masking.randoms;
    T.with_span "power.trace" (fun () ->
        Power.Model.trace stream masked ~config ~prev_inputs ~next_inputs)
  in
  Sidechannel.Tvla.campaign_seeded rng ~traces_per_class:glitch_traces_per_class ~collect

(* The masked netlist computes the original function: on random inputs,
   with every input freshly shared and fresh masking randomness, the
   output shares XOR back to the unmasked outputs. *)
let shares_xor_back rng ~original masked ~patterns =
  let iface = Synth.Masking.interface_of masked in
  let mpos = Hashtbl.create 64 in
  Array.iteri (fun p id -> Hashtbl.replace mpos id p) (Circuit.inputs masked);
  let secret name = List.assoc_opt name iface.Synth.Masking.secrets in
  let moutputs = Circuit.outputs masked in
  let share_positions name =
    let rec go k acc =
      let nm = Printf.sprintf "%s_s%d" name k in
      match Array.find_index (fun (n, _) -> n = nm) moutputs with
      | Some p -> go (k + 1) (p :: acc)
      | None -> List.rev acc
    in
    match go 0 [] with
    | [] -> Option.to_list (Array.find_index (fun (n, _) -> n = name) moutputs)
    | ps -> ps
  in
  let oshares = Array.map (fun (name, _) -> share_positions name) (Circuit.outputs original) in
  let oinputs = Array.map (Circuit.name original) (Circuit.inputs original) in
  Array.for_all (fun ps -> ps <> []) oshares
  && Array.for_all (fun nm -> secret nm <> None) oinputs
  && List.for_all
       (fun _ ->
         let values = Array.map (fun _ -> Rng.bool rng) oinputs in
         let mvec = Array.make (Circuit.num_inputs masked) false in
         Array.iteri
           (fun k nm ->
             let ids = Option.get (secret nm) in
             let sh =
               if Array.length ids = 1 then [| values.(k) |]
               else Sidechannel.Isw.encode rng ~shares:(Array.length ids) values.(k)
             in
             Array.iteri (fun s id -> mvec.(Hashtbl.find mpos id) <- sh.(s)) ids)
           oinputs;
         Array.iter (fun id -> mvec.(Hashtbl.find mpos id) <- Rng.bool rng) iface.Synth.Masking.randoms;
         let expect = Netlist.Sim.eval original values in
         let got = Netlist.Sim.eval masked mvec in
         Array.for_all2
           (fun e ps -> e = List.fold_left (fun acc p -> acc <> got.(p)) false ps)
           expect oshares)
       (List.init patterns Fun.id)

let process_masked ~pseed d =
  let params =
    [ ("shares", d.entry.p1);
      ("style", d.entry.p2);
      ("seed", string_of_int pseed);
      ("traces", string_of_int recipe_traces_per_class) ]
  in
  let masked = ref None in
  let latency, r =
    timed d (fun () ->
        let m =
          T.with_span "synth.recipe" (fun () ->
              Synth.Pipeline.run_recipe ~params "secure_synthesis" d.circuit)
        in
        masked := Some m;
        T.with_span "sidechannel.glitch_tvla" (fun () ->
            glitch_campaign (Rng.create pseed) m))
  in
  untraced @@ fun () ->
  let overhead m = ("mask_cell_overhead", float_of_int (gates m) /. float_of_int (max 1 (gates d.circuit))) in
  match r, !masked with
  | Error e, None -> exn_outcome latency e
  | Error e, Some m -> { (exn_outcome latency e) with quality = [ overhead m ] }
  | Ok result, m ->
    let m = Option.get m in
    let ok = shares_xor_back (check_rng d) ~original:d.circuit m ~patterns:64 in
    { latency;
      failure = (if ok then None else Some "check_failed");
      quality =
        [ overhead m;
          ("glitch_max_t", result.Sidechannel.Tvla.max_abs_t);
          ("traces", float_of_int (2 * result.Sidechannel.Tvla.traces_per_class)) ];
      notes = [] }

let locked_of d =
  let key = d.entry.p2 in
  let n = String.length key in
  let inputs = Circuit.inputs d.circuit in
  Array.iteri
    (fun k id ->
      if k < n && Circuit.name d.circuit id <> Printf.sprintf "key%d" k then
        fail "%s: input %d is not key%d" d.entry.file k k)
    inputs;
  { Locking.Lock.circuit = d.circuit;
    key_inputs = Array.sub inputs 0 n;
    data_inputs = Array.sub inputs n (Array.length inputs - n);
    correct_key = Array.init n (fun k -> key.[k] = '1') }

let legal (p : Physical.Placement.t) =
  let n = Circuit.node_count p.circuit in
  let seen = Hashtbl.create n in
  Array.length p.position = n
  && Array.for_all
       (fun ((x, y) as xy) ->
         let fresh = not (Hashtbl.mem seen xy) in
         Hashtbl.replace seen xy ();
         fresh && x >= 0 && x < p.cols && y >= 0 && y < p.rows)
       p.position

let process_supply ~pseed d =
  match d.entry.kind, d.original with
  | "locked", Some original ->
    let locked = locked_of d in
    let oracle = Locking.Sat_attack.oracle_of_circuit original in
    let result =
      timed d (fun () ->
          T.with_span "locking.attack" (fun () ->
              Locking.Sat_attack.run ~budget:(Budget.create ~steps:attack_step_cap ()) ~oracle locked))
    in
    untraced (fun () ->
     match result with
     | latency, Error e -> exn_outcome latency e
     | latency, Ok r ->
       let st = r.Locking.Sat_attack.solver_stats in
       let failure =
         match r.Locking.Sat_attack.status with
         | Locking.Sat_attack.Converged ->
           if Locking.Sat_attack.recovered_key_correct locked ~original r then None
           else Some "check_failed"
         | _ -> Some "stage_failed"
       in
       { latency;
         failure;
         quality =
           [ ("dips", float_of_int r.Locking.Sat_attack.iterations);
             ("conflicts", float_of_int st.Sat.Solver.conflicts);
             ("propagations", float_of_int st.Sat.Solver.propagations) ];
         notes = [ Locking.Sat_attack.describe_status r.Locking.Sat_attack.status ] })
  | "split", _ ->
    let moves = int_of_string d.entry.p1 and feol_threshold = int_of_string d.entry.p2 in
    let rng = Rng.create pseed in
    let result =
       timed d (fun () ->
           let o = T.with_span "physical.place" (fun () -> Physical.Placement.place rng ~moves d.circuit) in
           let p = o.Physical.Placement.placement in
           T.with_span "splitmfg.attack" (fun () ->
               (* Every wire lifted to the BEOL: the attacker sees only
                  the placement, the proximity attack's target setting. *)
               let s =
                 Splitmfg.Split.lift_wires ~fraction:1.0
                   (Splitmfg.Split.split_by_length ~feol_threshold p)
               in
               (o, s, Splitmfg.Split.proximity_attack s)))
    in
    untraced (fun () ->
     match result with
     | latency, Error e -> exn_outcome latency e
     | latency, Ok (o, s, ccr) ->
       let p = o.Physical.Placement.placement in
       let wl = Physical.Placement.wirelength p in
       { latency;
         failure = (if legal p then None else Some "check_failed");
         quality =
           [ ("moves", float_of_int o.Physical.Placement.moves_performed);
             ("wirelength", float_of_int wl);
             ("hpwl_per_cell", float_of_int wl /. float_of_int (max 1 (gates d.circuit)));
             ("hidden", float_of_int (List.length s.Splitmfg.Split.hidden));
             ("ccr", ccr) ];
         notes = [] })
  | kind, _ -> fail "%s: unexpected design kind %s" d.entry.file kind

(* A design's processing randomness (placement, stimuli, masking
   randomness, TVLA streams) is seeded from its structural fingerprint:
   a design processes the same way in any corpus, and the seedless
   families (c6288_like, csa_mult, the S-box datapaths) cost the same at
   every corpus seed. *)
let process workload d =
  let pseed = Hashtbl.hash (Bench_gen.fingerprint d.circuit) in
  match workload with
  | Signoff_flow -> process_flow ~pseed d
  | Masked_signoff -> process_masked ~pseed d
  | Supply_chain_attack -> process_supply ~pseed d

(* --- Statistics --------------------------------------------------------- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let mean = function [] -> nan | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let quality_values name outcomes = List.filter_map (fun o -> List.assoc_opt name o.quality) outcomes

let mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6

(* --- Per-layer accounting from the traced pass -------------------------- *)

(* Each span name belongs to one layer; a layer's self time is the summed
   self time of its spans inside the bench.design spans. What no layer
   claims (the harness's own bench.design self time) is the unattributed
   remainder. *)
let layer_of (s : T.Trace.span) =
  let n = s.T.Trace.name in
  let has p = String.starts_with ~prefix:p n in
  if n = "flow.stage"
     && List.assoc_opt "stage" s.T.Trace.attrs = Some (T.Str (Flow.stage_name Flow.Timing_power_verification))
  then Some "timing"
  else if has "flow." || n = "core.flow" then Some "core"
  else if n = "synth.pass.mask_insertion" then Some "synth.mask_insertion"
  else if n = "synth.pass.tvla_check" then Some "synth.tvla_check"
  else if has "synth." then Some "synth.optimize"
  else if has "placement." || n = "physical.place" then Some "physical"
  else if n = "power.trace" then Some "power"
  else if has "tvla." || n = "sidechannel.glitch_tvla" then Some "sidechannel"
  else if n = "sat.solve" then Some "sat.solve"
  else if n = "cnf.encode" then Some "sat.encode"
  else if has "atpg." then Some "dft"
  else if has "sat_attack." || n = "locking.attack" then Some "locking"
  else if has "splitmfg." then Some "splitmfg"
  else None

(* Every layer [layer_of] can return, with the metric its self time is
   reported under. *)
let layer_self_metrics =
  [ ("core", "core.flow_self_s");
    ("timing", "timing.verify_stage_s");
    ("synth.optimize", "synth.optimize_s");
    ("synth.mask_insertion", "synth.mask_insertion_s");
    ("synth.tvla_check", "synth.tvla_check_s");
    ("physical", "physical.place_s");
    ("power", "power.trace_s");
    ("sidechannel", "sidechannel.tvla_self_s");
    ("sat.solve", "sat.solve_s");
    ("sat.encode", "sat.encode_s");
    ("dft", "dft.atpg_self_s");
    ("locking", "locking.attack_s");
    ("splitmfg", "splitmfg.attack_s") ]

let layer_metrics trace =
  let self = Hashtbl.create 16 in
  let counters = Hashtbl.create 32 in
  let faults_remaining = ref 0 and traces = ref 0 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  let rec walk (s : T.Trace.span) =
    let layer = Option.value ~default:"unattributed" (layer_of s) in
    add self layer (T.Trace.self_time s);
    List.iter (fun (k, v) -> add counters k v) s.T.Trace.counters;
    List.iter
      (fun (name, attrs) ->
        if name = "atpg.exhausted" then
          match List.assoc_opt "faults_remaining" attrs with
          | Some (T.Int n) -> faults_remaining := !faults_remaining + n
          | _ -> ())
      s.T.Trace.notes;
    if s.T.Trace.name = "power.trace" then incr traces;
    List.iter walk s.T.Trace.children
  in
  let designs = T.Trace.find_spans trace "bench.design" in
  List.iter walk designs;
  let wall = List.fold_left (fun acc s -> acc +. T.Trace.duration s) 0.0 designs in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let span_total name = List.fold_left (fun acc s -> acc +. T.Trace.duration s) 0.0 (T.Trace.find_spans trace name) in
  let per_s n d = if d > 0.0 then n /. d else 0.0 in
  let counter_list = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []) in
  let moves = get counters "placement.moves_accepted" +. get counters "placement.moves_rejected" in
  let conflicts = get counters "sat.conflicts" in
  let sat_s = get self "sat.solve" in
  ( List.map (fun (l, metric) -> (metric, get self l)) layer_self_metrics
    @ [ ("netlist.read_s", span_total "netlist.read");
        ("netlist.lint_s", span_total "netlist.lint");
        ("synth.gates_removed", get counters "synth.gates_removed");
        ("synth.gates_added", get counters "synth.gates_added");
        ("physical.moves", moves);
        ("physical.moves_per_s", per_s moves (get self "physical"));
        ("power.traces", float_of_int !traces);
        ("power.traces_per_s", per_s (float_of_int !traces) (get self "power"));
        ("sat.conflicts", conflicts);
        ("sat.propagations", get counters "sat.propagations");
        ("sat.us_per_conflict", per_s (1e6 *. sat_s) conflicts);
        ("dft.faults_remaining", float_of_int !faults_remaining);
        ("dft.covered_by_simulation", get counters "atpg.covered_by_simulation");
        ("locking.dips", get counters "sat_attack.dips");
        ("trace.wall_s", wall);
        ("trace.unattributed_s", get self "unattributed") ],
    counter_list )

(* --- The run ------------------------------------------------------------ *)

(* Set-up is timed once before the measured pass and again before every
   [setup_every]-th design, outside the timed regions: the reported
   median then samples the host across the whole run instead of one
   moment of it. *)
let setup_every = 10

(* Each design starts on a collected heap, outside the timed region, so
   neither its latency nor the peak heap depends on the garbage the
   previous design left. *)
let pass ?(before = fun (_ : int) -> ()) workload designs =
  List.mapi
    (fun k d ->
      before k;
      Gc.full_major ();
      process workload d)
    designs

let failure_counts outcomes =
  List.map
    (fun cause -> (cause, List.length (List.filter (fun o -> o.failure = Some cause) outcomes)))
    [ "event_storm"; "stage_failed"; "check_failed"; "exception" ]

let record outcomes designs =
  Json.JList
    (List.map2
       (fun o d ->
         Json.JObj
           [ ("file", Json.JStr d.entry.file);
             ("fingerprint", Json.JStr (Bench_gen.fingerprint d.circuit));
             ("failure", match o.failure with Some f -> Json.JStr f | None -> Json.Null);
             ("quality", Json.JObj (List.map (fun (k, v) -> (k, Json.JStr (Printf.sprintf "%.17g" v))) o.quality));
             ("notes", Json.JList (List.map (fun s -> Json.JStr s) o.notes)) ])
       outcomes designs)

let num v = Json.JFloat v

let run workload dir ~trace =
  let entries = read_manifest dir in
  let setup_times = ref [] in
  let timed_setup () =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let ds = setup dir entries in
    setup_times := (Unix.gettimeofday () -. t0) :: !setup_times;
    ds
  in
  let designs = timed_setup () in
  let corpus_bytes = !bytes_read in
  let before k = if k > 0 && k mod setup_every = 0 then ignore (timed_setup ()) in
  let outcomes = pass ~before workload designs in
  let setup_s = quantile 0.5 !setup_times in
  let alloc_mb = mb !alloc_words and majors = !major_collections in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let latencies = List.map (fun o -> o.latency) outcomes in
  let measured = List.fold_left ( +. ) 0.0 latencies in
  let attempted = List.length outcomes in
  let failures = failure_counts outcomes in
  let failed = List.length (List.filter (fun o -> o.failure <> None) outcomes) in
  let applicable name = function
    | [] -> (name, 1.0, false)
    | xs -> (name, mean xs, true)
  in
  let qualities =
    [ applicable "fault_coverage" (if workload = Signoff_flow then quality_values "fault_coverage" outcomes else []);
      applicable "hpwl_per_cell" (if workload = Masked_signoff then [] else quality_values "hpwl_per_cell" outcomes);
      applicable "mask_cell_overhead" (quality_values "mask_cell_overhead" outcomes) ]
  in
  let end_to_end =
    [ ("setup_s", setup_s);
      ("designs_per_min", 60.0 *. float_of_int attempted /. measured);
      ("design_p50_s", quantile 0.5 latencies);
      ("design_p90_s", quantile 0.9 latencies);
      ("op_success_ratio", float_of_int (attempted - failed) /. float_of_int attempted);
      ("peak_heap_mb", mb (float_of_int top_heap)) ]
    @ List.map (fun (n, v, _) -> (n, v)) qualities
  in
  let traced =
    if not trace then []
    else begin
      let sink, events = T.memory_sink () in
      let outcomes' =
        T.with_sink sink (fun () ->
            ignore (setup dir entries);
            pass workload designs)
      in
      let quality_of os = List.map (fun o -> (o.failure, o.quality, o.notes)) os in
      if quality_of outcomes' <> quality_of outcomes then
        fail "traced pass disagrees with the untraced pass at the same seed (harness bug)";
      let trace =
        match T.Trace.of_events (events ()) with Ok t -> t | Error msg -> fail "trace: %s" msg
      in
      let layers, counters = layer_metrics trace in
      let wall = List.assoc "trace.wall_s" layers in
      let read_s = List.assoc "netlist.read_s" layers in
      let quality_sum name = List.fold_left ( +. ) 0.0 (quality_values name outcomes) in
      [ ("per_layer",
         Json.JObj
           (List.map (fun (k, v) -> (k, num v)) layers
            @ [ ("netlist.read_mb_per_s", num (float_of_int corpus_bytes /. 1e6 /. read_s));
                ("core.stage_failures",
                 num
                   (if workload = Signoff_flow then
                      float_of_int (List.assoc "event_storm" failures + List.assoc "stage_failed" failures)
                    else 0.0));
                ("timing.event_storms", num (float_of_int (List.assoc "event_storm" failures)));
                ("failures.stage_failed", num (float_of_int (List.assoc "stage_failed" failures)));
                ("failures.check_failed", num (float_of_int (List.assoc "check_failed" failures)));
                ("failures.exception", num (float_of_int (List.assoc "exception" failures)));
                ("sidechannel.glitch_max_t",
                 num (List.fold_left Float.max 0.0 (quality_values "glitch_max_t" outcomes)));
                ("dft.faults_total", num (quality_sum "faults_total"));
                ("splitmfg.hidden_connections", num (quality_sum "hidden"));
                ("splitmfg.ccr", num (match quality_values "ccr" outcomes with [] -> 0.0 | xs -> mean xs));
                ("gc.alloc_mb", num alloc_mb);
                ("gc.major_collections", num (float_of_int majors));
                ("trace.overhead_ratio", num (wall /. measured)) ]));
        ("counters", Json.JObj (List.map (fun (k, v) -> (k, Json.JStr (Printf.sprintf "%.17g" v))) counters)) ]
    end
  in
  print_endline
    (Json.to_string
       (Json.JObj
          ([ ("attempted", Json.JInt attempted);
             ("failed", Json.JInt failed);
             ("failures", Json.JObj (List.map (fun (k, v) -> (k, Json.JInt v)) failures));
             ("end_to_end", Json.JObj (List.map (fun (k, v) -> (k, num v)) end_to_end));
             ("not_applicable",
              Json.JList (List.filter_map (fun (n, _, ok) -> if ok then None else Some (Json.JStr n)) qualities));
             ("measured_s", num measured);
             ("latencies", Json.JList (List.map num latencies));
             ("corpus_bytes", Json.JInt corpus_bytes);
             ("record", record outcomes designs) ]
          @ traced)))

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; w; seed; dir ] -> gen (workload_of_string w) ~seed:(int_of_string seed) dir
  | [ _; "run"; w; dir; trace ] -> run (workload_of_string w) dir ~trace:(trace = "1")
  | _ -> fail "usage: main.exe gen WORKLOAD SEED DIR | run WORKLOAD DIR TRACE"
