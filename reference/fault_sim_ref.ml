(** Scalar fault simulation — the oracle the word-lane sweep of
    {!Fault.Model} is differential-tested against. Production code
    simulates faults in the lanes of one word sweep, with the fault-free
    circuit in the top lane; this is kept for the test suite only.

    One pass per pattern over a [bool] net array, with the faults held in
    a table of per-node overrides (a later fault at the same node replaces
    an earlier one), each gate evaluated by {!Netlist.Gate.eval} on an
    operand array, and a separate {!Sim_ref} pass for the fault-free
    outputs. It shares no lane, mask or word arithmetic with the engine,
    so a bug in any of those shows up as a differing value. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Model = Fault.Model

(** Evaluate all nets with [faults] active. *)
let eval_all_faulty ?state circuit ~faults inputs =
  let overrides = Hashtbl.create 4 in
  List.iter
    (fun f ->
      match f with
      | Model.Stuck_at { node; value } -> Hashtbl.replace overrides node (`Force value)
      | Model.Bit_flip { node } -> Hashtbl.replace overrides node `Flip)
    faults;
  let n = Circuit.node_count circuit in
  let values = Array.make n false in
  for k = 0 to Circuit.num_inputs circuit - 1 do
    values.(Circuit.input_id circuit k) <- inputs.(k)
  done;
  (match state with
   | None -> ()
   | Some st ->
     for k = 0 to Circuit.num_dffs circuit - 1 do
       values.(Circuit.dff_id circuit k) <- st.(k)
     done);
  let apply_override i v =
    match Hashtbl.find_opt overrides i with
    | Some (`Force b) -> b
    | Some `Flip -> not v
    | None -> v
  in
  for i = 0 to n - 1 do
    let nd = Circuit.node circuit i in
    let computed =
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> values.(i)
      | k -> Gate.eval k (Array.map (fun f -> values.(f)) nd.Circuit.fanins)
    in
    values.(i) <- apply_override i computed
  done;
  values

(** Primary outputs with [faults] active. *)
let eval_faulty ?state circuit ~faults inputs =
  let values = eval_all_faulty ?state circuit ~faults inputs in
  Array.map (fun (_, o) -> values.(o)) (Circuit.outputs circuit)

(** Does [inputs] detect [fault] (change any primary output)? *)
let detects circuit ~fault inputs =
  Sim_ref.eval circuit inputs <> eval_faulty circuit ~faults:[ fault ] inputs

(** Per-fault detection by a pattern set. *)
let fault_simulation circuit ~faults ~patterns =
  List.map
    (fun fault -> fault, List.exists (fun p -> detects circuit ~fault p) patterns)
    faults

(** Fraction of [faults] detected by [patterns] (1.0 on an empty list). *)
let coverage circuit ~faults ~patterns =
  let detected =
    List.length (List.filter snd (fault_simulation circuit ~faults ~patterns))
  in
  if faults = [] then 1.0
  else Float.of_int detected /. Float.of_int (List.length faults)
