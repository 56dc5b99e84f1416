(** Fault models and faulty simulation.

    The three models cover the paper's fault-injection discussion: permanent
    stuck-at faults (manufacturing defects, the ATPG target), transient
    bit-flips (laser/EM injection at runtime) and forced-value faults
    (precise attacker control). Injection is simulation-level: the fault
    site's value is overridden during evaluation, which is exactly the
    substitution a laser rig performs on the physical net. Every fault
    simulation sees one combinational frame, DFF outputs at 0, on one of
    two engines, one per query shape: a single pattern against up to
    {!lanes} faults beside the fault-free circuit on the lane sweep, and
    a pattern set against a fault list on the pattern-parallel engine,
    63 patterns per word and one fault at a time. *)

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

(* The pattern-parallel engine: 63 input patterns in the lanes of each
   net word, one fault at a time (PPSFP). The frame is {!detects_many}'s:
   DFF outputs read 0 and a DFF consumer does not propagate.

   A net is a stem when it is a primary output or has other than exactly
   one combinational fanout edge (a gate that reads it twice makes it a
   stem). Every other net [v] lies in the fanout-free region of one stem
   and reaches it along one path, through its one consumer [c] with
   every other operand of [c] at its fault-free value. So the lanes in
   which inverting [v] inverts its stem are the lanes in which it
   inverts [c], masked by [c]'s own: critical-path tracing. A stem's
   observability (the lanes in which inverting it changes some primary
   output) comes from inverting it and propagating the change,
   event-driven and level by level, through its fanout region; once the
   change has narrowed to one net [t] with nothing else queued, the rest
   is [t]'s lanes to its own stem and that stem's observability.
   A fault at [v] is detected exactly in the lanes where it inverts [v],
   [v] inverts its stem, and the stem is observed.

   Both quantities are computed on demand and kept for the loaded word,
   so a word only pays for the regions of the faults it is asked about:
   after fault dropping, most stems are never propagated. *)
type psim = {
  circuit : Circuit.t;
  kinds : Gate.kind array;
  fanin : int array array;
  fo_start : int array;  (* combinational fanout CSR, one entry per edge *)
  fo : int array;
  sole : int array;  (* a non-stem's one consumer; -1 marks a stem *)
  stem : int array;  (* the stem whose fanout-free region holds the net *)
  is_output : bool array;
  level : int array;  (* logic depth: sources 0, a gate 1 + its deepest operand *)
  level_start : int array;  (* the level-order queue: one bucket per level *)
  fill : int array;  (* queued nets per level *)
  bucket : int array;
  queued : bool array;
  mutable pending : int;  (* queued nets, over all levels *)
  touched : int array;  (* nets whose word differs from [good] mid-region *)
  good : int array;  (* fault-free net words of the loaded patterns *)
  values : int array;  (* [good], except inside the region being propagated *)
  to_stem : int array;  (* lanes in which inverting the net inverts its stem *)
  obs : int array;  (* a stem's observability *)
  known : int array;  (* per net: the word whose [to_stem]/[obs] is stored *)
  mutable word : int;  (* the loaded word's number *)
  mutable lane_mask : int;  (* the loaded lanes *)
}

let psim_create circuit =
  let v = Circuit.view circuit in
  let n = Array.length v.Circuit.kinds in
  let comb i = match v.Circuit.kinds.(i) with Gate.Dff -> false | _ -> true in
  let fo_start = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let k = ref 0 in
    for e = v.Circuit.fanout_start.(u) to v.Circuit.fanout_start.(u + 1) - 1 do
      if comb v.Circuit.fanout.(e) then incr k
    done;
    fo_start.(u + 1) <- fo_start.(u) + !k
  done;
  let fo = Array.of_list (List.filter comb (Array.to_list v.Circuit.fanout)) in
  let is_output = Array.make n false in
  Array.iter (fun o -> is_output.(o) <- true) (Circuit.output_ids circuit);
  let sole =
    Array.init n (fun u ->
        if is_output.(u) || fo_start.(u + 1) - fo_start.(u) <> 1 then -1 else fo.(fo_start.(u)))
  in
  let stem = Array.make n 0 in
  for u = n - 1 downto 0 do
    stem.(u) <- (if sole.(u) < 0 then u else stem.(sole.(u)))
  done;
  let level = Array.make n 0 in
  for i = 0 to n - 1 do
    if comb i then Array.iter (fun f -> level.(i) <- max level.(i) (level.(f) + 1)) v.Circuit.fanin.(i)
  done;
  let depth = Array.fold_left max 0 level + 1 in
  let level_start = Array.make (depth + 1) 0 in
  Array.iter (fun l -> level_start.(l + 1) <- level_start.(l + 1) + 1) level;
  for l = 0 to depth - 1 do
    level_start.(l + 1) <- level_start.(l + 1) + level_start.(l)
  done;
  { circuit; kinds = v.Circuit.kinds; fanin = v.Circuit.fanin; fo_start; fo; sole; stem; is_output;
    level; level_start; fill = Array.make depth 0; bucket = Array.make n 0;
    queued = Array.make n false; pending = 0; touched = Array.make n 0;
    good = Array.make n 0; values = Array.make n 0; to_stem = Array.make n 0;
    obs = Array.make n 0; known = Array.make n (-1); word = -1; lane_mask = 0 }

(* Queue the combinational consumers of [t], each once, in its level's
   bucket: O(1) per push. *)
let enqueue_consumers p t =
  for e = p.fo_start.(t) to p.fo_start.(t + 1) - 1 do
    let c = p.fo.(e) in
    if not p.queued.(c) then begin
      p.queued.(c) <- true;
      p.pending <- p.pending + 1;
      let l = p.level.(c) in
      p.bucket.(p.level_start.(l) + p.fill.(l)) <- c;
      p.fill.(l) <- p.fill.(l) + 1
    end
  done

(* Lanes in which inverting net [v] inverts its stem: invert [v] alone on
   [values] (fault-free here) and evaluate its one consumer. *)
let rec to_stem p v =
  let c = p.sole.(v) in
  if c < 0 then -1
  else if p.known.(v) = p.word then p.to_stem.(v)
  else begin
    let down = to_stem p c in
    let lanes =
      if down = 0 then 0
      else begin
        let good = p.good and values = p.values in
        values.(v) <- lnot good.(v);
        let w = Gate.eval_word_indexed p.kinds.(c) p.fanin.(c) values in
        values.(v) <- good.(v);
        (w lxor good.(c)) land down
      end
    in
    p.to_stem.(v) <- lanes;
    p.known.(v) <- p.word;
    lanes
  end

(* Observability of stem [s]. *)
and observability p s =
  if p.known.(s) = p.word then p.obs.(s)
  else begin
    let lanes =
      if p.is_output.(s) then -1
      else if p.fo_start.(s + 1) = p.fo_start.(s) then 0
      else propagate p s
    in
    p.obs.(s) <- lanes;
    p.known.(s) <- p.word;
    lanes
  end

(* Invert [s] in every lane and propagate the change through its fanout
   region in level order, evaluating each queued net on [values]
   (fault-free outside the region), until the change dies out or
   narrows to one net. The touched words are restored before that net's
   own answer is asked for, so the query may propagate regions of its
   own. *)
and propagate p s =
  let good = p.good and values = p.values in
  let ntouched = ref 1 in
  p.touched.(0) <- s;
  values.(s) <- lnot good.(s);
  enqueue_consumers p s;
  let observed = ref 0 and tail = ref (-1) and tail_diff = ref 0 in
  let l = ref (p.level.(s) + 1) in
  while p.pending > 0 do
    (* Consumers sit at deeper levels than their operands, so a drained
       level never refills. *)
    while p.fill.(!l) = 0 do incr l done;
    let f = p.fill.(!l) - 1 in
    p.fill.(!l) <- f;
    p.pending <- p.pending - 1;
    let t = p.bucket.(p.level_start.(!l) + f) in
    p.queued.(t) <- false;
    let w = Gate.eval_word_indexed p.kinds.(t) p.fanin.(t) values in
    let diff = w lxor good.(t) in
    if diff <> 0 then begin
      if p.pending = 0 then begin
        tail := t;
        tail_diff := diff
      end
      else begin
        values.(t) <- w;
        p.touched.(!ntouched) <- t;
        incr ntouched;
        if p.is_output.(t) then observed := !observed lor diff;
        enqueue_consumers p t
      end
    end
  done;
  for k = 0 to !ntouched - 1 do
    let t = p.touched.(k) in
    values.(t) <- good.(t)
  done;
  if !tail < 0 then !observed
  else
    let lanes = !tail_diff land lnot !observed land to_stem p !tail in
    if lanes = 0 then !observed else !observed lor (lanes land observability p p.stem.(!tail))

(** [simulate_word p inputs ~patterns]: load [patterns] (1 to 63) input
    patterns, bit [j] of [inputs.(k)] being input [k] of pattern [j].
    One word sweep gives the fault-free words; everything else is
    computed when a fault asks for it. *)
let simulate_word p inputs ~patterns =
  if patterns < 1 || patterns > 63 then
    invalid_arg (Printf.sprintf "Model.simulate_word: %d patterns" patterns);
  p.lane_mask <- (if patterns = 63 then -1 else (1 lsl patterns) - 1);
  p.word <- p.word + 1;
  Netlist.Sim.eval_all_word_into p.circuit inputs ~into:p.good;
  Array.blit p.good 0 p.values 0 (Array.length p.good)

(** The loaded lanes whose pattern detects [fault]. *)
let detecting_lanes p fault =
  let v = node_of fault in
  let inverted =
    match fault with
    | Stuck_at { value; _ } -> if value then lnot p.good.(v) else p.good.(v)
    | Bit_flip _ -> -1
  in
  let lanes = inverted land p.lane_mask in
  if lanes = 0 then 0
  else
    let lanes = lanes land to_stem p v in
    if lanes = 0 then 0 else lanes land observability p p.stem.(v)

(** Fault simulation of a pattern set, 63 patterns per word on the
    pattern-parallel engine: returns per-fault detection. *)
let fault_simulation circuit ~faults ~patterns =
  let faults_a = Array.of_list faults in
  let hit = Array.make (Array.length faults_a) false in
  let p = psim_create circuit in
  let inputs = Array.make (Circuit.num_inputs circuit) 0 in
  let rec words = function
    | [] -> ()
    | rest ->
      Array.fill inputs 0 (Array.length inputs) 0;
      let rec pack j = function
        | pat :: tl when j < 63 ->
          assert (Array.length pat = Array.length inputs);
          Array.iteri (fun k b -> if b then inputs.(k) <- inputs.(k) lor (1 lsl j)) pat;
          pack (j + 1) tl
        | tl -> j, tl
      in
      let n, rest = pack 0 rest in
      simulate_word p inputs ~patterns:n;
      Array.iteri (fun i f -> if (not hit.(i)) && detecting_lanes p f <> 0 then hit.(i) <- true) faults_a;
      words rest
  in
  words patterns;
  List.mapi (fun i fault -> fault, hit.(i)) faults

(** Fault coverage of a pattern set over [faults]. *)
let coverage circuit ~faults ~patterns =
  let detected =
    List.length (List.filter snd (fault_simulation circuit ~faults ~patterns))
  in
  if faults = [] then 1.0
  else Float.of_int detected /. Float.of_int (List.length faults)
