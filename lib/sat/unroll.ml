(** Bounded model checking substrate: time-frame expansion of sequential
    circuits into pure combinational ones, and the two-safety
    (UPEC-style [31]) information-flow check built on it.

    [expand circuit ~frames] produces a combinational circuit whose inputs
    are the original inputs replicated per frame (frame-major order:
    in0@f0, in1@f0, ..., in0@f1, ...) plus one input per DFF for the
    initial state, and whose outputs are the original outputs replicated
    per frame. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type expansion = {
  circuit : Circuit.t;
  frames : int;
  (* ids of the initial-state inputs, in DFF declaration order *)
  initial_state_inputs : int array;
  (* per frame, the ids of that frame's copies of the primary inputs *)
  frame_inputs : int array array;
  (* per frame, the output indices (into the expansion's output list) *)
  frame_outputs : int array array;
}

let expand source ~frames =
  assert (frames >= 1);
  let out = Circuit.create () in
  let dffs = Circuit.dffs source in
  let initial_state_inputs =
    Array.mapi
      (fun k _ -> Circuit.add_input ~name:(Printf.sprintf "init_s%d" k) out)
      dffs
  in
  let n = Circuit.node_count source in
  let frame_inputs = Array.make frames [||] in
  let frame_outputs = Array.make frames [||] in
  (* State entering the current frame: node ids in [out]. *)
  let state = ref initial_state_inputs in
  let out_index = ref 0 in
  for f = 0 to frames - 1 do
    let remap = Array.make n (-1) in
    (* Bind DFF outputs to the incoming state. *)
    Array.iteri (fun k dff -> remap.(dff) <- !state.(k)) dffs;
    let inputs =
      Array.map
        (fun id ->
          Circuit.add_input ~name:(Printf.sprintf "%s_f%d" (Circuit.name source id) f) out)
        (Circuit.inputs source)
    in
    Array.iteri (fun k id -> remap.((Circuit.inputs source).(k)) <- id) inputs;
    frame_inputs.(f) <- inputs;
    for i = 0 to n - 1 do
      let nd = Circuit.node source i in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> ()  (* bound above *)
      | k ->
        let fanins = Array.map (fun x -> remap.(x)) nd.Circuit.fanins in
        remap.(i) <- Circuit.add_node_raw out k fanins ""
    done;
    (* Emit this frame's outputs. *)
    frame_outputs.(f) <-
      Array.map
        (fun (nm, o) ->
          Circuit.set_output out (Printf.sprintf "%s_f%d" nm f) remap.(o);
          let idx = !out_index in
          incr out_index;
          idx)
        (Circuit.outputs source);
    (* Next state: the D inputs of this frame. *)
    state := Array.map (fun dff -> remap.((Circuit.fanins source dff).(0))) dffs
  done;
  { circuit = out; frames; initial_state_inputs; frame_inputs; frame_outputs }

(* Two expansions encoded into one solver. [reset] pins both initial
   states to zero; the primary inputs of every frame are tied across the
   copies; [tie] ties one more pair of expansion nodes. *)
type miter = {
  solver : Solver.t;
  a : expansion;
  b : expansion;
  env_a : Cnf.env;
  env_b : Cnf.env;
  tie : int -> int -> unit;
}

let miter ?(reset = false) a b =
  let solver = Solver.create () in
  let add = Solver.add_clause solver in
  let env_a = Cnf.encode ~solver a.circuit in
  let env_b = Cnf.encode ~solver b.circuit in
  if reset then
    List.iter
      (fun (env, e) ->
        Array.iter
          (fun id -> add [ Solver.lit_of_var env.Cnf.vars.(id) ~sign:false ])
          e.initial_state_inputs)
      [ (env_a, a); (env_b, b) ];
  let tie ia ib = Cnf.tie ~add env_a.Cnf.vars.(ia) env_b.Cnf.vars.(ib) in
  Array.iteri (fun f ins_a -> Array.iter2 tie ins_a b.frame_inputs.(f)) a.frame_inputs;
  { solver; a; b; env_a; env_b; tie }

(* Assert that some output of the two copies differs in some frame, and
   solve. *)
let solve_differs m =
  let add = Solver.add_clause m.solver in
  let outs env e = Array.map (fun o -> env.Cnf.vars.(o)) (Circuit.output_ids e.circuit) in
  let any = Cnf.differs m.solver ~add (outs m.env_a m.a) (outs m.env_b m.b) in
  add [ Solver.lit_of_var any ~sign:true ];
  Solver.solve m.solver

(** Two-safety information-flow check (the essence of unique-program-
    execution checking [31]): two copies of the design run with identical
    public inputs and initial state but free *secret* state bits; if any
    observable output can differ within [frames] cycles, the secret leaks
    architecturally, and the witness shows how.

    [secret_state] lists DFF indices holding the secret. Returns [None]
    when no leak is possible within the bound, or a witness assignment of
    the expansion's inputs for copy A. *)
let two_safety_leak source ~frames ~secret_state =
  let m = miter (expand source ~frames) (expand source ~frames) in
  (* Non-secret initial state equal; secret state free in both copies. *)
  Array.iteri
    (fun k ia ->
      if not (List.mem k secret_state) then m.tie ia m.b.initial_state_inputs.(k))
    m.a.initial_state_inputs;
  match solve_differs m with
  | Solver.Unsat -> None
  | Solver.Unknown _ -> assert false  (* unbudgeted solve cannot abstain *)
  | Solver.Sat ->
    Some
      (Array.map
         (fun i -> Solver.model_value m.solver m.env_a.Cnf.vars.(i))
         (Circuit.inputs m.a.circuit))

(** Sequential equivalence up to a bound: same interface, equal outputs on
    all frames from the all-zero initial state, for all input sequences. *)
let bounded_equivalence a b ~frames =
  let m = miter ~reset:true (expand a ~frames) (expand b ~frames) in
  match solve_differs m with
  | Solver.Unsat -> true
  | Solver.Sat -> false
  | Solver.Unknown _ -> assert false  (* unbudgeted solve cannot abstain *)
