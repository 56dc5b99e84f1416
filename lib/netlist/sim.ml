(** Functional simulation of circuits: single-pattern, bit-parallel
    (63 patterns per machine word) and multi-cycle sequential.

    One kernel evaluates every gate: the word sweep, which reads each
    gate's operands out of the net-word array through
    {!Gate.eval_word_indexed}, with no per-gate operand array. A
    single-pattern evaluation is the word sweep on broadcast inputs: true
    loads -1 and false loads 0, so every lane carries the same pattern,
    and a net reads back as [w <> 0]. The [_into] variants reuse a
    caller-owned buffer, so pattern-sweep workloads
    ([signal_probabilities], TVLA trace generation, equivalence checking)
    run without per-pattern heap allocation. *)

(* The combinational sweep over [values] in node (= topological) order. *)
let sweep circuit (values : int array) =
  for i = 0 to Circuit.node_count circuit - 1 do
    let nd = Circuit.node circuit i in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Dff -> ()
    | k -> values.(i) <- Gate.eval_word_indexed k nd.Circuit.fanins values
  done

(* A pattern bit as a word: every lane carries it. *)
let[@inline] broadcast b = -Bool.to_int b

(* Load the input and DFF slots of [into]: the input vector, then the
   DFF values from [state], or 0 when it is absent (so a dirty buffer
   from a previous pattern is safe to pass back in), each through
   [word]. Reads the ids in place: nothing is allocated per pattern. *)
let load_slots ?state circuit ~word inputs ~into =
  assert (Array.length inputs = Circuit.num_inputs circuit);
  for k = 0 to Array.length inputs - 1 do
    into.(Circuit.input_id circuit k) <- word inputs.(k)
  done;
  (match state with
   | Some st -> assert (Array.length st = Circuit.num_dffs circuit)
   | None -> ());
  for k = 0 to Circuit.num_dffs circuit - 1 do
    into.(Circuit.dff_id circuit k) <- (match state with None -> 0 | Some st -> word st.(k))
  done

(** Evaluate every net of one pattern into the caller-supplied buffer of
    net words [into] (length >= node count), broadcast: net [i] is true
    iff [into.(i) <> 0]. Reuses the buffer with no per-call allocation;
    DFF slots are cleared when [state] is absent. *)
let eval_all_into ?state circuit inputs ~into =
  load_slots ?state circuit ~word:broadcast inputs ~into;
  sweep circuit into

(* The broadcast net words of one pattern, in a fresh buffer. *)
let eval_words ?state circuit inputs =
  let words = Array.make (Circuit.node_count circuit) 0 in
  eval_all_into ?state circuit inputs ~into:words;
  words

let outputs circuit words =
  Array.init (Circuit.num_outputs circuit) (fun k -> words.(Circuit.output_id circuit k) <> 0)

(** Values of every net for one input assignment; DFF outputs come from
    [state] (all-false when absent). *)
let eval_all ?state circuit inputs =
  Array.map (fun w -> w <> 0) (eval_words ?state circuit inputs)

(** Primary outputs for one input assignment. *)
let eval ?state circuit inputs = outputs circuit (eval_words ?state circuit inputs)

(** Bit-parallel evaluation: each input word carries up to 63 independent
    patterns; every net word lands in [into]. *)
let eval_all_word_into ?state circuit (inputs : int array) ~into =
  load_slots ?state circuit ~word:Fun.id inputs ~into;
  sweep circuit into

(** Bit-parallel evaluation into a fresh buffer; returns all net words. *)
let eval_all_word ?state circuit (inputs : int array) =
  let values = Array.make (Circuit.node_count circuit) 0 in
  eval_all_word_into ?state circuit inputs ~into:values;
  values

(** One clock cycle of a sequential circuit: returns (outputs, next state). *)
let step circuit ~state inputs =
  let words = eval_words ~state circuit inputs in
  let next =
    Array.init (Circuit.num_dffs circuit) (fun k ->
        words.((Circuit.fanins circuit (Circuit.dff_id circuit k)).(0)) <> 0)
  in
  outputs circuit words, next

(** Truth table of output [k] (combinational circuits, <= 16 inputs). *)
let truth_table circuit ~output =
  let ni = Circuit.num_inputs circuit in
  assert (ni <= 16);
  Logic.Truth_table.create ni (fun m ->
      let inputs = Array.init ni (fun i -> (m lsr i) land 1 = 1) in
      (eval circuit inputs).(output))

let word_mask = 0x7FFFFFFFFFFFFFFF  (* the 63 usable pattern slots *)

(** Exhaustive functional equivalence (combinational, <= 20 inputs).
    Word-parallel: enumerates the input space 63 patterns per sweep, with
    all buffers hoisted out of the loop. Bit [p] of input word [i] is bit
    [i] of pattern index [base + p]. *)
let equivalent_exhaustive a b =
  let ni = Circuit.num_inputs a in
  ni = Circuit.num_inputs b
  && Circuit.num_outputs a = Circuit.num_outputs b
  && ni <= 20
  &&
  let va = Array.make (Circuit.node_count a) 0 in
  let vb = Array.make (Circuit.node_count b) 0 in
  let inputs = Array.make ni 0 in
  let out_a = Circuit.output_ids a and out_b = Circuit.output_ids b in
  let limit = 1 lsl ni in
  let ok = ref true in
  let base = ref 0 in
  while !ok && !base < limit do
    let batch = min 63 (limit - !base) in
    let mask = if batch = 63 then word_mask else (1 lsl batch) - 1 in
    for i = 0 to ni - 1 do
      let w = ref 0 in
      for p = 0 to batch - 1 do
        if ((!base + p) lsr i) land 1 = 1 then w := !w lor (1 lsl p)
      done;
      inputs.(i) <- !w
    done;
    eval_all_word_into a inputs ~into:va;
    eval_all_word_into b inputs ~into:vb;
    for k = 0 to Array.length out_a - 1 do
      if (va.(out_a.(k)) lxor vb.(out_b.(k))) land mask <> 0 then ok := false
    done;
    base := !base + batch
  done;
  !ok

(** Randomized functional equivalence for wider circuits; word-parallel,
    so each random draw exercises 63 patterns. At least [patterns]
    patterns are compared (rounded up to full 63-pattern words). *)
let equivalent_random rng ~patterns a b =
  let ni = Circuit.num_inputs a in
  ni = Circuit.num_inputs b
  && Circuit.num_outputs a = Circuit.num_outputs b
  &&
  let va = Array.make (Circuit.node_count a) 0 in
  let vb = Array.make (Circuit.node_count b) 0 in
  let inputs = Array.make ni 0 in
  let out_a = Circuit.output_ids a and out_b = Circuit.output_ids b in
  let words = (patterns + 62) / 63 in
  let ok = ref true in
  let w = ref 0 in
  while !ok && !w < words do
    for i = 0 to ni - 1 do
      inputs.(i) <- Eda_util.Rng.bits63 rng
    done;
    eval_all_word_into a inputs ~into:va;
    eval_all_word_into b inputs ~into:vb;
    for k = 0 to Array.length out_a - 1 do
      if (va.(out_a.(k)) lxor vb.(out_b.(k))) land word_mask <> 0 then ok := false
    done;
    incr w
  done;
  !ok

(** Per-node signal probability estimated over random patterns, used for
    rare-signal (Trojan trigger) analysis. Runs 63 patterns per word with
    reused input/value buffers — no per-pattern allocation. *)
let signal_probabilities rng ~patterns circuit =
  let n = Circuit.node_count circuit in
  let ones = Array.make n 0 in
  let ni = Circuit.num_inputs circuit in
  let input_ids = Circuit.inputs circuit in
  let values = Array.make n 0 in
  let words = (patterns + 62) / 63 in
  for _ = 1 to words do
    for k = 0 to ni - 1 do
      values.(input_ids.(k)) <- Eda_util.Rng.bits63 rng
    done;
    sweep circuit values;
    for i = 0 to n - 1 do
      ones.(i) <- ones.(i) + Eda_util.Stats.popcount values.(i)
    done
  done;
  let total = Float.of_int (words * 63) in
  Array.map (fun c -> Float.of_int c /. total) ones
