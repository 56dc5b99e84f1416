(** Fault models and faulty simulation.

    The three models cover the paper's fault-injection discussion: permanent
    stuck-at faults (manufacturing defects, the ATPG target), transient
    bit-flips (laser/EM injection at runtime) and forced-value faults
    (precise attacker control). Injection is simulation-level: the fault
    site's value is overridden during evaluation, which is exactly the
    substitution a laser rig performs on the physical net. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type fault =
  | Stuck_at of { node : int; value : bool }
  | Bit_flip of { node : int }  (* transient inversion of the computed value *)

let node_of = function Stuck_at { node; _ } -> node | Bit_flip { node } -> node

let describe circuit = function
  | Stuck_at { node; value } ->
    Printf.sprintf "s-a-%d @ %s" (if value then 1 else 0) (Circuit.name circuit node)
  | Bit_flip { node } -> Printf.sprintf "flip @ %s" (Circuit.name circuit node)

(** Evaluate all nets with [faults] active. *)
let eval_all_faulty ?state circuit ~faults inputs =
  let overrides = Hashtbl.create 4 in
  List.iter
    (fun f ->
      match f with
      | Stuck_at { node; value } -> Hashtbl.replace overrides node (`Force value)
      | Bit_flip { node } -> Hashtbl.replace overrides node `Flip)
    faults;
  let n = Circuit.node_count circuit in
  let values = Array.make n false in
  let input_ids = Circuit.inputs circuit in
  Array.iteri (fun k id -> values.(id) <- inputs.(k)) input_ids;
  (match state with
   | None -> ()
   | Some st -> Array.iteri (fun k id -> values.(id) <- st.(k)) (Circuit.dffs circuit));
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
      | k -> Gate.eval_indexed k nd.Circuit.fanins values
    in
    values.(i) <- apply_override i computed
  done;
  values

let eval_faulty ?state circuit ~faults inputs =
  let values = eval_all_faulty ?state circuit ~faults inputs in
  Array.map (fun (_, o) -> values.(o)) (Circuit.outputs circuit)

(** All single stuck-at faults on internal nets and inputs (the classical
    fault list, collapsed to observable sites). *)
let all_stuck_at_faults circuit =
  let faults = ref [] in
  for i = 0 to Circuit.node_count circuit - 1 do
    match Circuit.kind circuit i with
    | Gate.Const _ -> ()
    | Gate.Input | Gate.Dff | Gate.Buf | Gate.Not | Gate.And | Gate.Nand
    | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux ->
      faults := Stuck_at { node = i; value = true } :: Stuck_at { node = i; value = false } :: !faults
  done;
  List.rev !faults

(** Does [inputs] detect [fault] (change any primary output)? *)
let detects circuit ~fault inputs =
  Netlist.Sim.eval circuit inputs <> eval_faulty circuit ~faults:[ fault ] inputs

(* The 63 usable lanes of a native int word (Sim's convention: the sign
   bit is unused so [lnot]-based gates stay maskable). *)
let word_mask = 0x7FFFFFFFFFFFFFFF
let max_lanes = 63

(** Reusable scratch for word-parallel multi-fault simulation: one
    circuit evaluation carries up to 63 {e faults} in the bit lanes of
    each net word, against a single broadcast input pattern. *)
type wsim = {
  values : int array;  (* per-net words, lane k = circuit under fault k *)
  clean : bool array;  (* scalar clean evaluation of the same pattern *)
  stuck_mask : int array;  (* per-net: lanes overridden by a stuck-at *)
  stuck_val : int array;  (* per-net: forced value in overridden lanes *)
  flip_mask : int array;  (* per-net: lanes inverted by a bit-flip *)
  touched : int array;  (* fault sites whose masks need clearing *)
  mutable ntouched : int;
}

let wsim_create circuit =
  let n = Circuit.node_count circuit in
  { values = Array.make n 0;
    clean = Array.make n false;
    stuck_mask = Array.make n 0;
    stuck_val = Array.make n 0;
    flip_mask = Array.make n 0;
    touched = Array.make max_lanes 0;
    ntouched = 0 }

(** [detects_many w circuit ~faults ~pos ~len pattern] fault-simulates
    [pattern] against the slice [faults.(pos) .. faults.(pos + len - 1)]
    (at most 63 faults) in one word-parallel sweep and returns a
    bitmask: bit [k] is set iff [pattern] detects [faults.(pos + k)] on
    a primary output. Allocation-free after {!wsim_create}; agrees with
    per-fault {!detects} lane by lane (differential-tested). *)
let detects_many w circuit ~faults ~pos ~len pattern =
  if len > max_lanes then invalid_arg "Model.detects_many: more than 63 faults";
  if pos < 0 || len < 0 || pos + len > Array.length faults then
    invalid_arg "Model.detects_many: slice out of bounds";
  if Array.length w.values < Circuit.node_count circuit then
    invalid_arg "Model.detects_many: scratch built for a smaller circuit";
  (* Install per-lane overrides; OR so both polarities at one site and
     duplicate sites compose (each lane carries exactly one fault). *)
  for k = 0 to len - 1 do
    let f = faults.(pos + k) in
    let bit = 1 lsl k in
    let v = node_of f in
    w.touched.(w.ntouched) <- v;
    w.ntouched <- w.ntouched + 1;
    match f with
    | Stuck_at { value; _ } ->
      w.stuck_mask.(v) <- w.stuck_mask.(v) lor bit;
      if value then w.stuck_val.(v) <- w.stuck_val.(v) lor bit
    | Bit_flip _ -> w.flip_mask.(v) <- w.flip_mask.(v) lor bit
  done;
  (* Clean scalar reference for the broadcast comparison. *)
  Netlist.Sim.eval_all_into circuit pattern ~into:w.clean;
  let n = Circuit.node_count circuit in
  let values = w.values in
  Array.iter (fun id -> values.(id) <- 0) (Circuit.dffs circuit);
  Array.iteri
    (fun k id -> values.(id) <- (if pattern.(k) then word_mask else 0))
    (Circuit.inputs circuit);
  for i = 0 to n - 1 do
    let nd = Circuit.node circuit i in
    let computed =
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> values.(i)
      | k -> Gate.eval_word_indexed k nd.Circuit.fanins values
    in
    (* Per-lane override, mirroring [eval_all_faulty]'s apply_override:
       force the stuck lanes, then invert the flip lanes. *)
    values.(i) <-
      ((computed land lnot w.stuck_mask.(i)) lor w.stuck_val.(i))
      lxor w.flip_mask.(i)
  done;
  let detected = ref 0 in
  Array.iter
    (fun (_, o) ->
      let clean_word = if w.clean.(o) then word_mask else 0 in
      detected := !detected lor ((values.(o) lxor clean_word) land word_mask))
    (Circuit.outputs circuit);
  (* Reset the override masks via the touched-site list (zeroing clears
     both polarities at a shared site at once). *)
  for j = 0 to w.ntouched - 1 do
    let v = w.touched.(j) in
    w.stuck_mask.(v) <- 0;
    w.stuck_val.(v) <- 0;
    w.flip_mask.(v) <- 0
  done;
  w.ntouched <- 0;
  !detected land ((1 lsl len) - 1)

(** Fault simulation of a pattern set: returns per-fault detection. *)
let fault_simulation circuit ~faults ~patterns =
  List.map
    (fun fault -> fault, List.exists (fun p -> detects circuit ~fault p) patterns)
    faults

(** Fault coverage of a pattern set over [faults]. *)
let coverage circuit ~faults ~patterns =
  let detected =
    List.length (List.filter snd (fault_simulation circuit ~faults ~patterns))
  in
  if faults = [] then 1.0
  else Float.of_int detected /. Float.of_int (List.length faults)
