(** The end-to-end EDA flow of Fig. 1 (synthesis -> placement ->
    timing/power verification -> testing) behind one entry point with
    optional capabilities: [?budget] bounds every stage, [?checkpoint]
    makes the run resumable, telemetry is ambient. With [protect] unset
    the flow is the security-oblivious classical PPA flow the paper
    critiques: synthesis runs the [optimize] recipe of
    {!Synth.Pipeline}. A given [protect] runs the [optimize_secure]
    recipe with it instead. *)

type stage = Logic_synthesis | Physical_synthesis | Timing_power_verification | Testing

val stage_name : stage -> string

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

(** What a checkpoint file holds: the design it was made from, the
    completed stage reports and the circuit they apply to. *)
type checkpoint = {
  source : string;  (** FNV-1a hash of the input design's bench text *)
  done_stages : stage_report list;  (** in flow order *)
  circuit : Netlist.Circuit.t;
}

(** {2 On-disk format}

    A checkpoint serializes to one versioned JSON object carrying the
    source hash and bench text of the circuit, the completed stage
    reports, and an FNV-1a content hash of the payload. Parsing
    validates the format marker, the version and the content hash, and
    rejects corrupt, truncated or stale (wrong-version) text with a
    structured [Invalid_input {what = "checkpoint"}] error instead of
    raising. *)

(** The checkpoint format's hash: FNV-1a 64 of [s] as 16 lowercase hex
    digits. It seals the payload and names the source design. *)
val content_hash : string -> string

val checkpoint_to_string : checkpoint -> string

val checkpoint_of_string : string -> (checkpoint, Eda_util.Eda_error.t) result

type report = {
  stages : stage_report list;  (** restored from the checkpoint + this run *)
  final : Netlist.Circuit.t;
  degraded_stages : int;  (** count of stages with a degradation note *)
  resumed : int;  (** stages restored from the checkpoint, not re-run *)
}

(** Run the flow. Never raises on user-reachable failures: a
    structurally invalid input netlist or an unusable checkpoint is the
    only [Error]; a stage that exhausts its budget or fails internally
    is recorded with [degraded = Some reason] and the design passes
    through unchanged so later stages still run. [stage_steps] caps
    individual stages within [budget].

    [checkpoint] names a file. When it exists the run resumes from it
    and re-runs only the stages it lacks; a corrupt or stale file, or
    one made from a different input design, is refused with
    [Invalid_input {what = "checkpoint"}]. After every stage the
    checkpoint is saved there atomically (temp file, then rename), so a
    killed run resumes from its last finished stage. *)
val run :
  Eda_util.Rng.t ->
  ?protect:(string -> bool) ->
  ?budget:Eda_util.Budget.t ->
  ?stage_steps:(stage -> int option) ->
  ?checkpoint:string ->
  Netlist.Circuit.t ->
  (report, Eda_util.Eda_error.t) result
