(** The end-to-end EDA flow of Fig. 1 (synthesis -> placement ->
    timing/power verification -> testing) behind one entry point with
    optional capabilities: [?budget] bounds every stage, [?pool] is
    accepted for the uniform engine signature (no stage runs in parallel
    at present), [?resume] continues a checkpointed run, telemetry is
    ambient. With [protect] unset the flow is the
    security-oblivious classical PPA flow the paper critiques. *)

type stage = Logic_synthesis | Physical_synthesis | Timing_power_verification | Testing

val stage_name : stage -> string

(** The four stages in flow order. *)
val all_stages : stage list

type stage_report = {
  stage : stage;
  area : float;
  delay_ps : float;
  wirelength : int option;  (** after placement *)
  fault_coverage : float option;  (** after ATPG *)
  note : string;
  degraded : string option;
      (** why the stage could not fully conclude (budget exhausted,
          engine failure, ...); [None] means it completed as specified *)
}

(** Resume token: completed stage reports plus the circuit they apply
    to. *)
type checkpoint = {
  done_stages : stage_report list;  (** in flow order *)
  circuit : Netlist.Circuit.t;
}

(** A checkpoint from which nothing has run yet. *)
val checkpoint_start : Netlist.Circuit.t -> checkpoint

(** {2 On-disk checkpoints}

    A checkpoint serializes to one versioned JSON object carrying the
    bench text of the circuit, the completed stage reports, and an
    FNV-1a content hash of the payload. {!save_checkpoint} writes
    atomically (temp file in the target directory, then rename), so a
    process killed mid-write never leaves a torn file — the previous
    complete checkpoint survives. {!load_checkpoint} validates the
    format marker, the version and the content hash, and rejects
    corrupt, truncated or stale (wrong-version) files with a structured
    [Invalid_input] error instead of raising. *)

val checkpoint_to_string : checkpoint -> string

val checkpoint_of_string : string -> (checkpoint, Eda_util.Eda_error.t) result

val save_checkpoint : string -> checkpoint -> (unit, Eda_util.Eda_error.t) result

val load_checkpoint : string -> (checkpoint, Eda_util.Eda_error.t) result

type report = {
  stages : stage_report list;  (** completed-before-resume + this run *)
  final : Netlist.Circuit.t;
  checkpoint : checkpoint;  (** pass back as [resume] to continue *)
  degraded_stages : int;  (** count of stages with a degradation note *)
}

(** Run the flow. Never raises on user-reachable failures: a
    structurally invalid input netlist is the only [Error]; a stage that
    exhausts its budget or fails internally is recorded with
    [degraded = Some reason] and the design passes through unchanged so
    later stages still run. [stage_steps] caps individual stages within
    [budget]; [stages] restricts the run (default: all four, in order);
    [pool] is passed to ATPG, which ignores it (no stage result depends
    on it); [checkpoint_to] saves the checkpoint to disk (atomic
    temp+rename) after every completed stage so a killed run resumes
    from its last finished stage. *)
val run :
  Eda_util.Rng.t ->
  ?protect:(string -> bool) ->
  ?budget:Eda_util.Budget.t ->
  ?pool:Eda_util.Pool.t ->
  ?stage_steps:(stage -> int option) ->
  ?stages:stage list ->
  ?resume:checkpoint ->
  ?checkpoint_to:string ->
  Netlist.Circuit.t ->
  (report, Eda_util.Eda_error.t) result
