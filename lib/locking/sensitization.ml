(** Key-sensitization attack on logic locking (Rajendran et al., the
    "security analysis of logic obfuscation" the paper cites as [23]) —
    the pre-SAT-attack generation of oracle-guided attacks.

    Idea: if an input pattern *sensitizes* a key bit to a primary output
    (the output flips iff the key bit flips, with all other key bits
    fixed), then one oracle query on that pattern reveals the key bit.
    Isolated key gates are trivially sensitizable; key gates that
    interfere with each other (one key's path runs through another's) are
    not, which is exactly why interference-aware key placement was
    proposed — and why the SAT attack superseded this one.

    The implementation finds sensitizing patterns with the SAT solver:
    pattern X sensitizes key k at assumed values K' for the other keys if
    C(X, K'[k:=0]) != C(X, K'[k:=1]). *)

module Circuit = Netlist.Circuit
module Solver = Sat.Solver
module Cnf = Sat.Cnf

type outcome = {
  recovered : (int * bool) list;  (* key index, value *)
  unresolved : int list;  (* keys with no sensitizing pattern found *)
  oracle_queries : int;
}

(** Attack: for each key bit in turn, search a pattern sensitizing it
    (other keys fixed to the current best guess — recovered values when
    available, 0 otherwise). [run] repeats the sweep with the improved
    guesses, the fixpoint refinement the original attack applies, for at
    most [passes] sweeps. *)
let run_pass ~oracle ~guesses (locked : Lock.locked) =
  let c = locked.Lock.circuit in
  let nk = Array.length locked.Lock.key_inputs in
  let recovered = ref [] and unresolved = ref [] in
  let queries = ref 0 in
  for k = 0 to nk - 1 do
    (* Fresh solver per key bit: two copies differing only in key k. *)
    let solver = Solver.create () in
    let add = Solver.add_clause solver in
    let env_a = Cnf.encode ~solver c in
    let env_b = Cnf.encode ~solver c in
    let vars env ids = Array.map (fun id -> env.Cnf.vars.(id)) ids in
    let fix env node b = add [ Cnf.lit env ~node ~sign:b ] in
    (* Shared data inputs. *)
    Array.iter2 (Cnf.tie ~add)
      (vars env_a locked.Lock.data_inputs) (vars env_b locked.Lock.data_inputs);
    (* Other keys: this pass's recovered value, else the incoming guess. *)
    Array.iteri
      (fun j id ->
        if j <> k then begin
          let value =
            match List.assoc_opt j !recovered with
            | Some v -> v
            | None -> guesses.(j)
          in
          fix env_a id value;
          fix env_b id value
        end)
      locked.Lock.key_inputs;
    (* Key k: 0 in copy A, 1 in copy B. *)
    fix env_a locked.Lock.key_inputs.(k) false;
    fix env_b locked.Lock.key_inputs.(k) true;
    (* Outputs must differ. *)
    let outs = Circuit.output_ids c in
    let any = Cnf.differs solver ~add (vars env_a outs) (vars env_b outs) in
    add [ Solver.lit_of_var any ~sign:true ];
    (match Solver.solve solver with
     | Solver.Unsat -> unresolved := k :: !unresolved
     | Solver.Unknown _ -> assert false  (* unbudgeted solve cannot abstain *)
     | Solver.Sat ->
       let pattern =
         Array.map
           (fun id -> Solver.model_value solver env_a.Cnf.vars.(id))
           locked.Lock.data_inputs
       in
       (* Query the oracle and match it against both predictions. A truth
          that matches neither means an interfering (wrongly guessed) key
          corrupted the prediction: leave this bit unresolved rather than
          inferring garbage. *)
       incr queries;
       let truth = oracle pattern in
       let predicted env =
         Array.map (fun o -> Solver.model_value solver env.Cnf.vars.(o)) (Circuit.output_ids c)
       in
       let p0 = predicted env_a and p1 = predicted env_b in
       if truth = p0 then recovered := (k, false) :: !recovered
       else if truth = p1 then recovered := (k, true) :: !recovered
       else unresolved := k :: !unresolved)
  done;
  { recovered = List.rev !recovered;
    unresolved = List.rev !unresolved;
    oracle_queries = !queries }

let run ?(passes = 3) ~oracle (locked : Lock.locked) =
  let nk = Array.length locked.Lock.key_inputs in
  let guesses = Array.make nk false in
  (* A pass depends only on [guesses]: once one leaves them unchanged,
     the next would repeat it exactly, so the sweep stops there. *)
  let rec sweep pass total =
    let outcome = run_pass ~oracle ~guesses locked in
    let total = total + outcome.oracle_queries in
    let changed = List.exists (fun (k, v) -> guesses.(k) <> v) outcome.recovered in
    List.iter (fun (k, v) -> guesses.(k) <- v) outcome.recovered;
    if changed && pass < passes then sweep (pass + 1) total
    else { outcome with oracle_queries = total }
  in
  if passes < 1 then { recovered = []; unresolved = []; oracle_queries = 0 } else sweep 1 0

(** Accuracy of the recovered bits against the inserted key (unresolved
    bits score as coin flips). *)
let accuracy outcome (locked : Lock.locked) =
  let nk = Array.length locked.Lock.correct_key in
  let score = ref (0.5 *. Float.of_int (List.length outcome.unresolved)) in
  List.iter
    (fun (k, v) -> if locked.Lock.correct_key.(k) = v then score := !score +. 1.0)
    outcome.recovered;
  !score /. Float.of_int nk
