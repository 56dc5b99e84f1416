(** The end-to-end EDA flow of Fig. 1: synthesize -> place -> verify
    timing/power -> generate tests, behind one budgeted, checkpointable
    entry point ({!run}). Without [protect] the flow is fully
    security-oblivious, exactly the classical PPA flow the paper
    critiques (synthesis runs the [optimize] recipe); a given [protect]
    threads protection barriers through synthesis ([optimize_secure]). *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng

type stage = Logic_synthesis | Physical_synthesis | Timing_power_verification | Testing

let stage_name = function
  | Logic_synthesis -> "logic synthesis"
  | Physical_synthesis -> "physical synthesis (place)"
  | Timing_power_verification -> "timing/power verification"
  | Testing -> "testing (ATPG)"

let all_stages = [ Logic_synthesis; Physical_synthesis; Timing_power_verification; Testing ]

type stage_report = {
  stage : stage;
  area : float;
  delay_ps : float;
  wirelength : int option;  (* after placement *)
  fault_coverage : float option;  (* after ATPG *)
  note : string;
  degraded : string option;
      (* why the stage could not fully conclude (budget exhausted, engine
         failure, ...); [None] means it completed as specified *)
}

module Budget = Eda_util.Budget
module Eda_error = Eda_util.Eda_error

(** Resume token: everything the flow has concluded so far. Serializable
    state is deliberately small — the design it was made from, the
    completed stage reports and the circuit they apply to. *)
type checkpoint = {
  source : string;  (* FNV-1a hash of the input design's bench text *)
  done_stages : stage_report list;  (* in flow order *)
  circuit : Circuit.t;  (* design state after the last completed stage *)
}

(* --- On-disk checkpoints ------------------------------------------------ *)

(* A checkpoint file is one JSON object:

     {"format":"secure-eda/flow-checkpoint","version":2,
      "hash":"<content_hash of the serialized payload>",
      "payload":{"source":"<content_hash of the input's bench text>",
                 "circuit":"<bench text>","stages":[...]}}

   Writes are atomic (temp file in the same directory, then rename), so
   a run killed mid-write can never leave a half checkpoint behind: the
   previous complete file survives. Reads validate format, version and
   content hash and reject anything corrupt or stale with a structured
   error — resuming from a bad file is a refusal, never a crash. The
   source hash ties a checkpoint to its design: resuming it for any
   other input is refused the same way. *)

module Json = Eda_util.Telemetry.Json

let checkpoint_format = "secure-eda/flow-checkpoint"

let checkpoint_version = 2

let stage_id = function
  | Logic_synthesis -> "logic-synthesis"
  | Physical_synthesis -> "physical-synthesis"
  | Timing_power_verification -> "timing-power-verification"
  | Testing -> "testing"

let stage_of_id = function
  | "logic-synthesis" -> Some Logic_synthesis
  | "physical-synthesis" -> Some Physical_synthesis
  | "timing-power-verification" -> Some Timing_power_verification
  | "testing" -> Some Testing
  | _ -> None

(* FNV-1a, 64-bit: tiny, dependency-free, and plenty to detect the
   truncation/bit-flip corruption this guards against (not an integrity
   MAC — the threat is accident, not an adversary with write access). *)
let content_hash s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let json_opt inject = function None -> Json.Null | Some v -> inject v

let stage_report_to_json r =
  Json.JObj
    [ ("stage", Json.JStr (stage_id r.stage));
      ("area", Json.JFloat r.area);
      ("delay_ps", Json.JFloat r.delay_ps);
      ("wirelength", json_opt (fun n -> Json.JInt n) r.wirelength);
      ("fault_coverage", json_opt (fun v -> Json.JFloat v) r.fault_coverage);
      ("note", Json.JStr r.note);
      ("degraded", json_opt (fun s -> Json.JStr s) r.degraded) ]

let invalid fmt =
  Printf.ksprintf
    (fun msg -> Error (Eda_error.Invalid_input { what = "checkpoint"; msg }))
    fmt

let stage_report_of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Json.JObj fields ->
    let find k = List.assoc_opt k fields in
    let* stage =
      match find "stage" with
      | Some (Json.JStr s) ->
        (match stage_of_id s with
         | Some st -> Ok st
         | None -> invalid "unknown stage id %S" s)
      | _ -> invalid "stage entry missing its \"stage\" id"
    in
    let number k =
      match find k with
      | Some (Json.JFloat v) -> Ok v
      | Some (Json.JInt n) -> Ok (Float.of_int n)
      | _ -> invalid "stage entry field %S must be a number" k
    in
    let* area = number "area" in
    let* delay_ps = number "delay_ps" in
    let* wirelength =
      match find "wirelength" with
      | Some (Json.JInt n) -> Ok (Some n)
      | Some Json.Null | None -> Ok None
      | Some _ -> invalid "stage entry field \"wirelength\" must be an integer or null"
    in
    let* fault_coverage =
      match find "fault_coverage" with
      | Some (Json.JFloat v) -> Ok (Some v)
      | Some (Json.JInt n) -> Ok (Some (Float.of_int n))
      | Some Json.Null | None -> Ok None
      | Some _ -> invalid "stage entry field \"fault_coverage\" must be a number or null"
    in
    let* note =
      match find "note" with
      | Some (Json.JStr s) -> Ok s
      | _ -> invalid "stage entry field \"note\" must be a string"
    in
    let* degraded =
      match find "degraded" with
      | Some (Json.JStr s) -> Ok (Some s)
      | Some Json.Null | None -> Ok None
      | Some _ -> invalid "stage entry field \"degraded\" must be a string or null"
    in
    Ok { stage; area; delay_ps; wirelength; fault_coverage; note; degraded }
  | _ -> invalid "stage entry is not an object"

let payload_to_json cp =
  Json.JObj
    [ ("source", Json.JStr cp.source);
      ("circuit", Json.JStr (Netlist.Io.to_string cp.circuit));
      ("stages", Json.JList (List.map stage_report_to_json cp.done_stages)) ]

let checkpoint_to_string cp =
  let payload = payload_to_json cp in
  Json.to_string
    (Json.JObj
       [ ("format", Json.JStr checkpoint_format);
         ("version", Json.JInt checkpoint_version);
         ("hash", Json.JStr (content_hash (Json.to_string payload)));
         ("payload", payload) ])

let payload_of_json j =
  let ( let* ) = Result.bind in
  match j with
  | Json.JObj fields ->
    let find k = List.assoc_opt k fields in
    let* source =
      match find "source" with
      | Some (Json.JStr h) -> Ok h
      | _ -> invalid "payload missing its \"source\" hash"
    in
    let* circuit =
      match find "circuit" with
      | Some (Json.JStr text) ->
        (match Netlist.Io.of_string_result text with
         | Ok c -> Ok c
         | Error e -> invalid "embedded circuit rejected: %s" (Eda_error.to_string e))
      | _ -> invalid "payload missing its \"circuit\" text"
    in
    let* done_stages =
      match find "stages" with
      | Some (Json.JList entries) ->
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            let* r = stage_report_of_json entry in
            Ok (r :: acc))
          (Ok []) entries
        |> Result.map List.rev
      | _ -> invalid "payload missing its \"stages\" list"
    in
    Ok { source; circuit; done_stages }
  | _ -> invalid "payload is not an object"

let checkpoint_of_string text =
  match Json.parse text with
  | Error msg -> invalid "not valid JSON (%s) — corrupt or truncated file" msg
  | Ok (Json.JObj fields) ->
    let find k = List.assoc_opt k fields in
    (match find "format" with
     | Some (Json.JStr f) when f = checkpoint_format ->
       (match find "version" with
        | Some (Json.JInt v) when v = checkpoint_version ->
          (match find "hash", find "payload" with
           | Some (Json.JStr h), Some payload ->
             let actual = content_hash (Json.to_string payload) in
             if actual <> h then
               invalid "content hash mismatch (stored %s, computed %s) — corrupt file" h
                 actual
             else payload_of_json payload
           | _ -> invalid "missing \"hash\" or \"payload\" field")
        | Some (Json.JInt v) ->
          invalid "unsupported version %d (this build reads v%d) — stale checkpoint" v
            checkpoint_version
        | _ -> invalid "missing \"version\" field")
     | Some (Json.JStr f) -> invalid "not a flow checkpoint (format %S)" f
     | _ -> invalid "missing \"format\" marker")
  | Ok _ -> invalid "top level is not a JSON object"

let save path cp =
  let text = checkpoint_to_string cp in
  let tmp = path ^ ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error msg ->
    Error (Eda_error.Engine_failure { engine = "checkpoint write"; msg })

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> checkpoint_of_string text
  | exception Sys_error msg -> invalid "%s" msg

type report = {
  stages : stage_report list;  (* completed-before-resume + this run *)
  final : Circuit.t;
  degraded_stages : int;  (* count of stages with a degradation note *)
  resumed : int;  (* stages restored from the checkpoint, not re-run *)
}

(** The end-to-end flow, one entry point: never raises on user-reachable
    failures, budgets every engine, and reports degradation honestly per
    stage instead of silently truncating — security metrics are step
    functions, so "Unknown/partial" must stay distinct from a measured
    value.

    - the input is linted before anything runs; a structurally invalid
      netlist (or an unusable checkpoint) is the only [Error] case;
    - [budget] bounds the whole flow; every stage draws a sub-budget from
      it ([stage_steps] optionally caps individual stages);
    - a stage that exhausts its budget or fails internally is recorded
      with [degraded = Some reason] and the design passes through
      unchanged, so later stages still run;
    - [checkpoint] names a file: when it exists and validates, the run
      resumes from it, skipping completed stages; after every stage the
      checkpoint is persisted there (atomic temp+rename), so a killed
      run resumes from its last finished stage. The source hash is only
      computed when [checkpoint] is given.

    Telemetry: one [flow.run] span over the run, one [flow.stage] span
    per stage (attr [stage]); a degradation is exported as a
    [flow.degraded] note on its stage span, and each stage gauges
    [flow.budget_utilization] from its sub-budget so partial results can
    be read as budget pressure. *)
let run rng ?protect ?budget ?(stage_steps = fun (_ : stage) -> None) ?checkpoint circuit =
  let ( let* ) = Result.bind in
  let root = match budget with Some b -> b | None -> Budget.unlimited () in
  (* the checkpoint file and the hash of the design it belongs to *)
  let target = Option.map (fun path -> (path, content_hash (Netlist.Io.to_string circuit))) checkpoint in
  let* start_circuit, done_reports =
    match target with
    | Some (path, source) when Sys.file_exists path ->
      let* cp = load path in
      if cp.source = source then Ok (cp.circuit, cp.done_stages)
      else
        invalid "%s was made from design %s, not from this input (design %s)" path cp.source
          source
    | _ -> Ok (circuit, [])
  in
  let* _ = Netlist.Lint.validate start_circuit in
  let module T = Eda_util.Telemetry in
  let completed = List.map (fun r -> r.stage) done_reports in
  let todo = List.filter (fun s -> not (List.mem s completed)) all_stages in
  T.with_span "flow.run"
    ~attrs:
      [ ("stages", T.Int (List.length todo)); ("resumed", T.Bool (done_reports <> [])) ]
  @@ fun () ->
  let reports = ref (List.rev done_reports) in
  let current = ref start_circuit in
  let report stage ?wirelength ?fault_coverage ?degraded note =
    (match degraded with
     | Some why ->
       T.note "flow.degraded"
         ~attrs:[ ("stage", T.Str (stage_name stage)); ("reason", T.Str why) ]
     | None -> ());
    (* PPA of the design as the stage leaves it: cell area, STA delay *)
    let area = (Circuit.stats !current).Circuit.area in
    let delay_ps = (Timing.Sta.analyze !current).Timing.Sta.critical_path_delay in
    reports := { stage; area; delay_ps; wirelength; fault_coverage; note; degraded } :: !reports
  in
  let run_stage stage =
    T.with_span "flow.stage" ~attrs:[ ("stage", T.Str (stage_name stage)) ]
    @@ fun () ->
    let sub = Budget.sub ?steps:(stage_steps stage) root in
    let finish () =
      match Budget.utilization sub with
      | Some u -> T.gauge "flow.budget_utilization" u
      | None -> ()
    in
    match Budget.status sub with
    | Some e ->
      report stage
        ~degraded:(Printf.sprintf "skipped: %s" (Budget.describe_exhaustion e))
        "stage skipped";
      finish ()
    | None ->
      let attempt () =
        match stage with
        | Logic_synthesis ->
          let recipe = if protect = None then "optimize" else "optimize_secure" in
          current := Synth.Pipeline.run_recipe ?protect recipe !current;
          report stage "constant-prop + strash + xor-reassoc"
        | Physical_synthesis ->
          let moves = 4000 in
          let o = Physical.Placement.place rng ~moves ~budget:sub !current in
          let placement = o.Physical.Placement.placement in
          let performed = o.Physical.Placement.moves_performed in
          let degraded =
            if performed < moves then
              Some
                (Printf.sprintf "annealing stopped after %d/%d moves (%s)" performed moves
                   (match Budget.status sub with
                    | Some e -> Budget.describe_exhaustion e
                    | None -> "budget"))
            else None
          in
          report stage
            ~wirelength:(Physical.Placement.wirelength placement)
            ?degraded "simulated-annealing placement"
        | Timing_power_verification ->
          let ni = Circuit.num_inputs !current in
          let prev = Array.make ni false in
          let next = Array.init ni (fun _ -> Rng.bool rng) in
          (* a glitching net is one with more than one transition *)
          let toggles = Array.make (Circuit.node_count !current) 0 in
          let transitions = ref 0 in
          Timing.Event_sim.iter !current ~prev_inputs:prev ~next_inputs:next
            ~f:(fun _ node _ ->
              incr transitions;
              toggles.(node) <- toggles.(node) + 1);
          let glitches = Array.fold_left (fun n k -> if k > 1 then n + 1 else n) 0 toggles in
          report stage
            (Printf.sprintf "event-sim: %d transitions, %d glitching nets" !transitions
               glitches)
        | Testing ->
          let r = Dft.Atpg.run ~budget:sub !current in
          let degraded =
            match r.Dft.Atpg.exhausted with
            | Some e ->
              Some
                (Printf.sprintf "partial ATPG: %s, %d/%d faults unprocessed"
                   (Budget.describe_exhaustion e) r.Dft.Atpg.faults_remaining
                   r.Dft.Atpg.faults_total)
            | None -> None
          in
          report stage ~fault_coverage:r.Dft.Atpg.coverage ?degraded
            (Printf.sprintf "%d patterns" (List.length r.Dft.Atpg.patterns))
      in
      (match Eda_error.guard ~engine:(stage_name stage) attempt with
       | Ok () -> ()
       | Error e ->
         (* The stage blew up; the design passes through unchanged and
            the flow keeps going with an honest note. *)
         report stage ~degraded:(Eda_error.to_string e) "stage failed");
      finish ()
  in
  let persist () =
    match target with
    | None -> ()
    | Some (path, source) ->
      (match save path { source; done_stages = List.rev !reports; circuit = !current } with
       | Ok () -> ()
       | Error e ->
         (* A failing save must not fail the flow; surface it on the
            trace so the operator can see the resume point is stale. *)
         T.note "flow.checkpoint_error" ~attrs:[ ("reason", T.Str (Eda_error.to_string e)) ])
  in
  List.iter
    (fun stage ->
      run_stage stage;
      persist ())
    todo;
  let stages_list = List.rev !reports in
  let degraded_stages =
    List.length (List.filter (fun r -> r.degraded <> None) stages_list)
  in
  Ok
    { stages = stages_list;
      final = !current;
      degraded_stages;
      resumed = List.length done_reports }
