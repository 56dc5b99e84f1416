(** Hardware Trojan insertion (Sec. II-A.4, [13]): a malicious modification
    with a stealthy *trigger* (a conjunction of rare internal signal
    values, so functional testing almost never fires it) and a *payload*
    (here: XOR-flip of a primary output — an integrity Trojan, or an
    always-on parasitic load — a side-channel/reliability Trojan).

    Insertion mimics a fab- or design-time adversary: it reads signal
    probabilities, picks the rarest compatible nets and splices the trigger
    cone in front of one output. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng

type trojan = {
  infected : Circuit.t;
  trigger_nets : (int * bool) list;  (* (net, required value) in the CLEAN circuit *)
  trigger_node : int;  (* trigger output in the infected circuit *)
  victim_output : int;  (* index of the flipped output *)
  payload : payload;
}

and payload =
  | Flip_output  (* functional sabotage: victim output inverted on trigger *)
  | Leak_parasitic  (* always-on: extra switching load, no functional change *)

(** Estimate per-net one-probability and return the [count] rarest
    (value, polarity) conditions, excluding inputs (testable directly). *)
let rare_conditions rng ~patterns ~count circuit =
  let probs = Netlist.Sim.signal_probabilities rng ~patterns circuit in
  let scored = ref [] in
  Array.iteri
    (fun i p ->
      match Circuit.kind circuit i with
      | Gate.Input | Gate.Const _ | Gate.Dff -> ()
      | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
      | Gate.Xor | Gate.Xnor | Gate.Mux ->
        (* Rareness of value 1 is p; of value 0 is 1-p. *)
        scored := (Float.min p (1.0 -. p), i, p < 0.5) :: !scored)
    probs;
  let sorted = List.sort compare !scored in
  let rec take k acc = function
    | [] -> List.rev acc
    | (_, i, v) :: tl -> if k = 0 then List.rev acc else take (k - 1) ((i, v) :: acc) tl
  in
  take count [] sorted

(* Is the conjunction of [conditions] satisfiable in [source]? A trigger
   over contradictory rare conditions would never fire — stealthy but also
   pointless; a real adversary verifies activability. *)
let conditions_satisfiable source conditions =
  let env = Sat.Cnf.encode source in
  match
    List.iter
      (fun (net, value) ->
        Sat.Solver.add_clause env.Sat.Cnf.solver [ Sat.Cnf.lit env ~node:net ~sign:value ])
      conditions
  with
  | () -> Sat.Solver.solve env.Sat.Cnf.solver = Sat.Solver.Sat
  | exception Sat.Solver.Unsat_root -> false

(** Insert a Trojan with a [trigger_width]-net AND trigger over rare
    conditions, greedily chosen rarest-first under the constraint that the
    conjunction stays satisfiable (SAT-checked), so the Trojan is stealthy
    yet activable. The infected circuit keeps the clean interface. *)
let insert rng ?(payload = Flip_output) ~trigger_width ~patterns source =
  let candidates = rare_conditions rng ~patterns ~count:(trigger_width + 12) source in
  (* Greedy joint-probability minimization: indicator bitsets of each
     condition over a random pattern matrix; each step adds the candidate
     that shrinks the conjunction's support most, subject to the
     conjunction staying SAT-satisfiable. *)
  let ni = Circuit.num_inputs source in
  let words = max 4 ((patterns + 62) / 63) in
  (* The per-word value matrix is retained (indicator bitsets index into
     it); only the input word vector is scratch, so hoist it. *)
  let value_words = Array.make words [||] in
  let inputs = Array.make ni 0 in
  for w = 0 to words - 1 do
    for i = 0 to ni - 1 do
      inputs.(i) <- Eda_util.Rng.bits63 rng
    done;
    value_words.(w) <- Netlist.Sim.eval_all_word source inputs
  done;
  let indicator (net, v) =
    Array.map
      (fun vals -> if v then vals.(net) else Stdlib.lnot vals.(net) land 0x7FFFFFFFFFFFFFFF)
      value_words
  in
  let support ind =
    Array.fold_left (fun acc w -> acc + Eda_util.Stats.popcount w) 0 ind
  in
  let intersect a b = Array.init (Array.length a) (fun k -> a.(k) land b.(k)) in
  let conditions =
    let rec pick chosen acc_ind remaining =
      if List.length chosen = trigger_width then List.rev chosen
      else begin
        let scored =
          List.filter_map
            (fun cond ->
              if List.mem cond chosen then None
              else begin
                let joint = intersect acc_ind (indicator cond) in
                if conditions_satisfiable source (cond :: chosen) then
                  Some (support joint, cond, joint)
                else None
              end)
            remaining
        in
        match List.sort compare scored with
        | [] -> List.rev chosen  (* no further compatible condition *)
        | (_, cond, joint) :: _ -> pick (cond :: chosen) joint remaining
      end
    in
    let all_ones = Array.make words 0x7FFFFFFFFFFFFFFF in
    pick [] all_ones candidates
  in
  assert (List.length conditions = trigger_width);
  let c = Circuit.create () in
  let remap = Circuit.rebuild ~into:c source (fun copy _ i -> copy i) in
  (* Build the trigger: AND over the conditioned nets. *)
  let condition_nodes =
    List.map
      (fun (net, value) ->
        if value then remap.(net) else Circuit.add_gate c Gate.Not [ remap.(net) ])
      conditions
  in
  let trigger = Circuit.reduce c Gate.And condition_nodes in
  let outs = Circuit.outputs source in
  let victim = Rng.int rng (Array.length outs) in
  let _, o_victim = outs.(victim) in
  let payload_node =
    match payload with
    | Flip_output ->
      Circuit.add_gate ~name:"troj_payload" c Gate.Xor [ remap.(o_victim); trigger ]
    | Leak_parasitic ->
      (* A chain of buffers toggled by the trigger cone: pure load. *)
      let b1 = Circuit.add_gate c Gate.Buf [ trigger ] in
      let b2 = Circuit.add_gate c Gate.Buf [ b1 ] in
      Circuit.add_gate ~name:"troj_payload" c Gate.Buf [ b2 ]
  in
  (* Outputs are declared last, the victim re-routed through the payload. *)
  Array.iteri
    (fun k (nm, o) ->
      match payload with
      | Flip_output when k = victim -> Circuit.set_output c nm payload_node
      | Flip_output | Leak_parasitic -> Circuit.set_output c nm remap.(o))
    outs;
  (* Parasitic payload must stay live: give it a pseudo-output. *)
  (match payload with
   | Leak_parasitic -> Circuit.set_output c "troj_load" payload_node
   | Flip_output -> ());
  { infected = c;
    trigger_nets = conditions;
    trigger_node = trigger;
    victim_output = victim;
    payload }

(** Trigger activation probability under random stimuli (ground truth for
    detection experiments). *)
let trigger_probability rng trojan ~patterns =
  let c = trojan.infected in
  let ni = Circuit.num_inputs c in
  let hits = ref 0 in
  let inputs = Array.make ni false in
  let values = Array.make (Circuit.node_count c) 0 in
  for _ = 1 to patterns do
    for i = 0 to ni - 1 do
      inputs.(i) <- Rng.bool rng
    done;
    Netlist.Sim.eval_all_into c inputs ~into:values;
    if values.(trojan.trigger_node) <> 0 then incr hits
  done;
  Float.of_int !hits /. Float.of_int patterns

(** Does [inputs] expose the Trojan (infected output differs from clean)? *)
let exposed_by clean trojan inputs =
  Netlist.Sim.eval clean inputs
  <> Array.sub (Netlist.Sim.eval trojan.infected inputs) 0 (Circuit.num_outputs clean)
