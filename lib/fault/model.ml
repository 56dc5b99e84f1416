(** Fault models and faulty simulation.

    The three models cover the paper's fault-injection discussion: permanent
    stuck-at faults (manufacturing defects, the ATPG target), transient
    bit-flips (laser/EM injection at runtime) and forced-value faults
    (precise attacker control). Injection is simulation-level: the fault
    site's value is overridden during evaluation, which is exactly the
    substitution a laser rig performs on the physical net. Every
    injection runs on one word sweep of a combinational frame: up to
    {!lanes} faults beside the fault-free circuit, DFF outputs at 0. *)

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

(** A copy of [circuit] with a stuck-at fault frozen in: the fault site
    is shadowed downstream by a constant carrying the stuck value. *)
let faulty_copy circuit = function
  | Bit_flip _ -> invalid_arg "Model.faulty_copy: transient faults have no static copy"
  | Stuck_at { node; value } ->
    let out = Circuit.create () in
    let remap =
      Circuit.rebuild ~into:out circuit (fun copy _ i ->
          let id = copy i in
          if i = node then Circuit.add_node_raw out (Gate.Const value) [||] "" else id)
    in
    Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs circuit);
    out

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

(* Faults per word sweep. A native int has 63 lanes below the sign bit
   (Sim's convention); lanes 0..61 each carry a fault, and no override
   ever reaches lane 62, so it is the fault-free circuit the others are
   compared with. *)
let lanes = 62

(** Reusable scratch for the word sweep: one circuit evaluation carries
    up to 62 {e faults} in the bit lanes of each net word, beside the
    fault-free circuit in the top lane, against a single broadcast input
    pattern. *)
type wsim = {
  values : int array;  (* per-net words, lane k = circuit under fault k *)
  stuck_mask : int array;  (* per-net: lanes overridden by a stuck-at *)
  stuck_val : int array;  (* per-net: forced value in overridden lanes *)
  flip_mask : int array;  (* per-net: lanes inverted by a bit-flip *)
}

let wsim_create circuit =
  let n = Circuit.node_count circuit in
  { values = Array.make n 0;
    stuck_mask = Array.make n 0;
    stuck_val = Array.make n 0;
    flip_mask = Array.make n 0 }

(* Put [f] in [lane], replacing whatever override that lane held at the
   fault's node. Other lanes at the node are untouched, so both
   polarities at one site and duplicate sites compose across lanes. *)
let install w lane f =
  let v = node_of f and bit = 1 lsl lane in
  let keep = lnot bit in
  match f with
  | Stuck_at { value; _ } ->
    w.stuck_mask.(v) <- w.stuck_mask.(v) lor bit;
    w.stuck_val.(v) <- (if value then w.stuck_val.(v) lor bit else w.stuck_val.(v) land keep);
    w.flip_mask.(v) <- w.flip_mask.(v) land keep
  | Bit_flip _ ->
    w.stuck_mask.(v) <- w.stuck_mask.(v) land keep;
    w.stuck_val.(v) <- w.stuck_val.(v) land keep;
    w.flip_mask.(v) <- w.flip_mask.(v) lor bit

(* The one sweep: every lane reads [inputs], and 0 on every DFF output
   (one combinational frame); then each net's word takes its per-lane
   overrides: force the stuck lanes, then invert the flip lanes. Reads
   the ids in place: nothing is allocated. *)
let sweep w circuit inputs =
  let values = w.values in
  for k = 0 to Circuit.num_inputs circuit - 1 do
    values.(Circuit.input_id circuit k) <- (if inputs.(k) then -1 else 0)
  done;
  for k = 0 to Circuit.num_dffs circuit - 1 do
    values.(Circuit.dff_id circuit k) <- 0
  done;
  for i = 0 to Circuit.node_count circuit - 1 do
    let nd = Circuit.node circuit i in
    let computed =
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> values.(i)
      | k -> Gate.eval_word_indexed k nd.Circuit.fanins values
    in
    values.(i) <-
      ((computed land lnot w.stuck_mask.(i)) lor w.stuck_val.(i)) lxor w.flip_mask.(i)
  done

(** [detects_many w circuit ~faults ~pos ~len pattern] fault-simulates
    [pattern] against the slice [faults.(pos) .. faults.(pos + len - 1)]
    (at most {!lanes} faults) in one sweep and returns a bitmask: bit
    [k] is set iff [pattern] detects [faults.(pos + k)], i.e. some
    primary output of lane [k] differs from the fault-free top lane.
    Allocation-free after {!wsim_create}. *)
let detects_many w circuit ~faults ~pos ~len pattern =
  if len > lanes then invalid_arg "Model.detects_many: more than 62 faults";
  if pos < 0 || len < 0 || pos + len > Array.length faults then
    invalid_arg "Model.detects_many: slice out of bounds";
  if Array.length w.values < Circuit.node_count circuit then
    invalid_arg "Model.detects_many: scratch built for a smaller circuit";
  for k = 0 to len - 1 do
    install w k faults.(pos + k)
  done;
  sweep w circuit pattern;
  let detected = ref 0 in
  for k = 0 to Circuit.num_outputs circuit - 1 do
    let word = w.values.(Circuit.output_id circuit k) in
    (* The top lane, broadcast to every lane. *)
    let clean = -((word lsr lanes) land 1) in
    detected := !detected lor (word lxor clean)
  done;
  (* Clear the overrides at every site of the slice (zeroing clears all
     of its lanes at once). *)
  for k = 0 to len - 1 do
    let v = node_of faults.(pos + k) in
    w.stuck_mask.(v) <- 0;
    w.stuck_val.(v) <- 0;
    w.flip_mask.(v) <- 0
  done;
  !detected land ((1 lsl len) - 1)

(** The word of primary output [k] left by the last {!detects_many}
    sweep on [w]. *)
let output_word w circuit k = w.values.(Circuit.output_id circuit k)

(** Does [inputs] detect [fault] (change any primary output)? *)
let detects circuit ~fault inputs =
  detects_many (wsim_create circuit) circuit ~faults:[| fault |] ~pos:0 ~len:1 inputs <> 0

(** Fault simulation of a pattern set, {!lanes} faults per sweep:
    returns per-fault detection. *)
let fault_simulation circuit ~faults ~patterns =
  let faults_a = Array.of_list faults in
  let nf = Array.length faults_a in
  let hit = Array.make nf false in
  let w = wsim_create circuit in
  for b = 0 to ((nf + lanes - 1) / lanes) - 1 do
    let pos = lanes * b in
    let len = min lanes (nf - pos) in
    let m =
      List.fold_left
        (fun m p -> m lor detects_many w circuit ~faults:faults_a ~pos ~len p)
        0 patterns
    in
    for k = 0 to len - 1 do
      hit.(pos + k) <- (m lsr k) land 1 = 1
    done
  done;
  List.mapi (fun i fault -> fault, hit.(i)) faults

(** Fault coverage of a pattern set over [faults]. *)
let coverage circuit ~faults ~patterns =
  let detected =
    List.length (List.filter snd (fault_simulation circuit ~faults ~patterns))
  in
  if faults = [] then 1.0
  else Float.of_int detected /. Float.of_int (List.length faults)
