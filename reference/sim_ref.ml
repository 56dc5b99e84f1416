(** The bool sweep {!Netlist.Sim} replaced with its word sweep on
    broadcast inputs, kept as the oracle of the word kernel: one pass in
    node (= topological) order over a [bool] net array, evaluating each
    gate with {!Netlist.Gate.eval} on an operand array built per gate.
    It shares no word, lane or indexed arithmetic with the kernel it
    checks. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

(** Values of every net for one input assignment, indexed by node id;
    DFF outputs come from [state] (all-false when absent). *)
let eval_all ?state circuit inputs =
  assert (Array.length inputs = Circuit.num_inputs circuit);
  let values = Array.make (Circuit.node_count circuit) false in
  Array.iteri (fun k id -> values.(id) <- inputs.(k)) (Circuit.inputs circuit);
  Option.iter
    (fun st ->
      assert (Array.length st = Circuit.num_dffs circuit);
      Array.iteri (fun k id -> values.(id) <- st.(k)) (Circuit.dffs circuit))
    state;
  for i = 0 to Circuit.node_count circuit - 1 do
    let nd = Circuit.node circuit i in
    match nd.Circuit.kind with
    | Gate.Input | Gate.Dff -> ()
    | k -> values.(i) <- Gate.eval k (Array.map (fun f -> values.(f)) nd.Circuit.fanins)
  done;
  values

(** Primary outputs for one input assignment, in declaration order. *)
let eval ?state circuit inputs =
  let values = eval_all ?state circuit inputs in
  Array.map (fun o -> values.(o)) (Circuit.output_ids circuit)

(** One clock cycle: (outputs, next DFF state). *)
let step circuit ~state inputs =
  let values = eval_all ~state circuit inputs in
  ( Array.map (fun o -> values.(o)) (Circuit.output_ids circuit),
    Array.map (fun d -> values.((Circuit.fanins circuit d).(0))) (Circuit.dffs circuit) )

(** The output trace of a sequence of input vectors, from the all-zero
    state. *)
let run circuit input_seq =
  let state = ref (Array.make (Circuit.num_dffs circuit) false) in
  List.map
    (fun inputs ->
      let outs, next = step circuit ~state:!state inputs in
      state := next;
      outs)
    input_seq
