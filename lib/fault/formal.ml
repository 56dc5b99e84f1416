(** Formal validation of error-detection properties ([32]; Table II,
    functional-validation x FIA cell): instead of sampling patterns, a
    SAT query per fault either *proves* that every data-corrupting input
    also raises the alarm, or returns a concrete escape witness — the
    bounded-model-checking flavour of robustness analysis.

    Query for fault f on protected circuit C with alarm output A:
      exists X :  data_f(X) != data(X)  /\  (A(X) \/ not A_f(X))
    i.e. the data is corrupted and the alarm does not rise (A_f = 1 while
    A = 0), the detection {!Countermeasure.classify} counts.
    UNSAT = the fault cannot corrupt silently. *)

module Circuit = Netlist.Circuit
module Solver = Sat.Solver
module Cnf = Sat.Cnf

type verdict =
  | Proven_detected  (* every input that corrupts data raises the alarm *)
  | Escape of bool array  (* witness input: corrupts data, the alarm does not rise *)
  | Harmless  (* the fault can never corrupt the data outputs *)

(** Check one stuck-at fault against the protected circuit. *)
let check_fault (prot : Countermeasure.protected_circuit) fault =
  let clean = prot.Countermeasure.circuit in
  let faulty = Model.faulty_copy clean fault in
  let index_of = Circuit.output_position clean in
  let alarm = index_of prot.Countermeasure.alarm_output in
  let data_idx = Array.of_list (List.map index_of prot.Countermeasure.data_outputs) in
  (* A fresh miter of the clean and faulty copies asserting that some
     data output differs: the solver, the clean copy's input variables
     and both copies' output variables. *)
  let corruption () =
    let solver = Solver.create () in
    let add = Solver.add_clause solver in
    let env_c = Cnf.encode ~solver clean in
    let env_f = Cnf.encode ~solver faulty in
    let vars env ids = Array.map (fun id -> env.Cnf.vars.(id)) ids in
    let ins_c = vars env_c (Circuit.inputs clean) in
    Array.iter2 (Cnf.tie ~add) ins_c (vars env_f (Circuit.inputs faulty));
    let out_c = vars env_c (Circuit.output_ids clean) in
    let out_f = vars env_f (Circuit.output_ids faulty) in
    let data outs = Array.map (fun k -> outs.(k)) data_idx in
    add [ Solver.lit_of_var (Cnf.differs solver ~add (data out_c) (data out_f)) ~sign:true ];
    (solver, ins_c, out_c, out_f)
  in
  let solver, ins_c, out_c, out_f = corruption () in
  (* The alarm does not rise: the clean copy's is up or the faulty copy's
     is down. *)
  Solver.add_clause solver
    [ Solver.lit_of_var out_c.(alarm) ~sign:true; Solver.lit_of_var out_f.(alarm) ~sign:false ];
  match Solver.solve solver with
  | Solver.Unsat ->
    (* No silent corruption. Distinguish "always detected" from "harmless"
       with a second query: can the fault corrupt data at all? *)
    let solver2, _, _, _ = corruption () in
    (match Solver.solve solver2 with
     | Solver.Sat -> Proven_detected
     | Solver.Unsat -> Harmless
     | Solver.Unknown _ -> assert false (* unbudgeted solve cannot abstain *))
  | Solver.Unknown _ -> assert false  (* unbudgeted solve cannot abstain *)
  | Solver.Sat -> Escape (Array.map (Solver.model_value solver) ins_c)

(** Exhaustive formal audit over every single stuck-at fault: the red-team
    search the paper describes ("to demonstrate whether an error-detecting
    scheme can detect all faults means to search for faults possibly
    missed"). *)
let audit prot =
  let faults = Model.all_stuck_at_faults prot.Countermeasure.circuit in
  let proven = ref 0 and escapes = ref [] and harmless = ref 0 in
  List.iter
    (fun fault ->
      match check_fault prot fault with
      | Proven_detected -> incr proven
      | Harmless -> incr harmless
      | Escape w -> escapes := (fault, w) :: !escapes)
    faults;
  `Proven !proven, `Escapes (List.rev !escapes), `Harmless !harmless
