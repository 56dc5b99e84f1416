(** SAT-based automatic test pattern generation for single stuck-at faults
    on combinational circuits: for each fault, a miter between the clean
    circuit and a faulty copy either yields a detecting pattern or proves
    the fault untestable (redundant logic). *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Solver = Sat.Solver
module Cnf = Sat.Cnf

type pattern_result =
  | Pattern of bool array
  | Untestable
  | Abstained of Eda_util.Budget.exhaustion  (* budget ran out mid-proof *)

(** Outcome of a (possibly bounded) ATPG run. Coverage counts only faults
    with a generated detecting pattern — on exhaustion it is the honest
    partial number, never an extrapolation. *)
type report = {
  patterns : bool array list;
  coverage : float;  (* detected faults / total faults *)
  untestable : Fault.Model.fault list;
  faults_total : int;
  faults_remaining : int;  (* unprocessed because the budget ran out *)
  exhausted : Eda_util.Budget.exhaustion option;
  solver_stats : Solver.stats;  (* summed over all per-fault miter queries *)
}

let zero_stats =
  { Solver.vars = 0; clauses = 0; conflicts = 0; decisions = 0; propagations = 0;
    learnt = 0; learnt_live = 0; restarts = 0; db_reductions = 0; clauses_deleted = 0 }

(* Fold one per-query stats record into the campaign totals: capacity-like
   fields (vars, clauses, live learnts) take the max, work-like fields sum. *)
let merge_stats totals (s : Solver.stats) =
  { Solver.vars = max totals.Solver.vars s.Solver.vars;
    clauses = max totals.Solver.clauses s.Solver.clauses;
    conflicts = totals.Solver.conflicts + s.Solver.conflicts;
    decisions = totals.Solver.decisions + s.Solver.decisions;
    propagations = totals.Solver.propagations + s.Solver.propagations;
    learnt = totals.Solver.learnt + s.Solver.learnt;
    learnt_live = max totals.Solver.learnt_live s.Solver.learnt_live;
    restarts = totals.Solver.restarts + s.Solver.restarts;
    db_reductions = totals.Solver.db_reductions + s.Solver.db_reductions;
    clauses_deleted = totals.Solver.clauses_deleted + s.Solver.clauses_deleted }

(* The greedy campaign state. The live faults are the slice
   [faults.(lo) .. faults.(hi - 1)], in fault-list order; dropping
   compacts survivors in place, so the list is never rebuilt. *)
type campaign = {
  mutable patterns_rev : bool array list;
  mutable untestable_acc : Fault.Model.fault list;
  faults : Fault.Model.fault array;
  mutable lo : int;
  mutable hi : int;
  mutable exhausted_by : Eda_util.Budget.exhaustion option;
  mutable totals : Solver.stats;
  wsim : Fault.Model.wsim;  (* fault-dropping scratch *)
}

(* Word-parallel fault dropping: fault-simulate pattern [p] against the
   live faults in batches of 62 fault lanes beside a fault-free lane
   ({!Fault.Model.detects_many}, one word lane per fault) and compact the
   undetected survivors in place, in order. Returns the number of faults
   dropped. *)
let drop_detected st circuit p =
  let lanes = Fault.Model.lanes in
  let lo = st.lo and live = st.hi - st.lo in
  (* The write cursor never passes the batch being read. *)
  let w = ref lo in
  for b = 0 to ((live + lanes - 1) / lanes) - 1 do
    let base = lo + (lanes * b) and len = min lanes (live - (lanes * b)) in
    let m = Fault.Model.detects_many st.wsim circuit ~faults:st.faults ~pos:base ~len p in
    for k = 0 to len - 1 do
      if (m lsr k) land 1 = 0 then begin
        st.faults.(!w) <- st.faults.(base + k);
        incr w
      end
    done
  done;
  let dropped = st.hi - !w in
  st.hi <- !w;
  if dropped > 0 && Eda_util.Telemetry.active () then begin
    Eda_util.Telemetry.count "atpg.covered_by_simulation" dropped;
    Eda_util.Telemetry.count "atpg.faults_dropped" dropped
  end;
  dropped

(* Account the head fault's outcome: telemetry counters, the greedy
   pattern/fault-list update, and the one-step-per-processed-fault
   budget charge (an abstained fault is not processed). *)
let apply_outcome ?budget st circuit outcome =
  let module T = Eda_util.Telemetry in
  let fault = st.faults.(st.lo) in
  match outcome with
  | Abstained e ->
    T.count "atpg.abstained" 1;
    st.exhausted_by <- Some e
  | Untestable ->
    T.count "atpg.untestable" 1;
    st.untestable_acc <- fault :: st.untestable_acc;
    st.lo <- st.lo + 1;
    Option.iter (fun b -> Eda_util.Budget.tick b) budget
  | Pattern p ->
    T.count "atpg.detected" 1;
    st.patterns_rev <- p :: st.patterns_rev;
    st.lo <- st.lo + 1;
    (* Drop every other remaining fault this pattern also detects. *)
    ignore (drop_detected st circuit p);
    Option.iter (fun b -> Eda_util.Budget.tick b) budget

let finish_report st ~total =
  let module T = Eda_util.Telemetry in
  let untestable_n = List.length st.untestable_acc in
  let remaining_n = if st.exhausted_by = None then 0 else st.hi - st.lo in
  let detected = total - untestable_n - remaining_n in
  let coverage = if total = 0 then 1.0 else Float.of_int detected /. Float.of_int total in
  (match st.exhausted_by with
   | Some e ->
     T.note "atpg.exhausted"
       ~attrs:
         [ ("reason", T.Str (Eda_util.Budget.describe_exhaustion e));
           ("faults_remaining", T.Int remaining_n) ]
   | None -> ());
  T.gauge "atpg.coverage" coverage;
  { patterns = List.rev st.patterns_rev;
    coverage;
    untestable = st.untestable_acc;
    faults_total = total;
    faults_remaining = remaining_n;
    exhausted = st.exhausted_by;
    solver_stats = st.totals }

(* Random-pattern bootstrap: before any SAT query, fault-simulate a
   fixed, deterministic batch of random patterns and keep each one that
   detects at least one remaining fault. Classic two-phase ATPG: random
   patterns cover the easy bulk of the fault list for the cost of a few
   word-parallel circuit simulations (62 fault lanes beside a fault-free
   lane per sweep), leaving the SAT session only the hard residue —
   random-resistant and untestable faults. *)
let bootstrap_patterns = 64
let bootstrap_seed = 0x5eed

let random_pattern_bootstrap st circuit =
  let ni = Circuit.num_inputs circuit in
  let rng = Eda_util.Rng.create bootstrap_seed in
  let k = ref 0 in
  while !k < bootstrap_patterns && st.lo < st.hi do
    let p = Array.init ni (fun _ -> Eda_util.Rng.bool rng) in
    if drop_detected st circuit p > 0 then st.patterns_rev <- p :: st.patterns_rev;
    incr k
  done

(* One stuck-at query on [session]: the clean circuit was encoded when
   the session was created; this adds only the fault's cone under a
   fresh clause group, retired after the query. *)
let generate_in session ?budget ?on_stats fault =
  match (fault : Fault.Model.fault) with
  | Fault.Model.Bit_flip _ -> invalid_arg "Atpg: transient faults have no static copy"
  | Fault.Model.Stuck_at { node; value } ->
    (match Cnf.Stuck_at_session.query ?budget ?on_stats session ~node ~value with
     | Cnf.Equivalent -> Untestable
     | Cnf.Counterexample witness -> Pattern witness
     | Cnf.Equiv_unknown e -> Abstained e)

(** Generate a test for one stuck-at fault, optionally bounded, on a
    one-shot {!Cnf.Stuck_at_session}: the same cone-based miter {!run}
    queries, where only the fault's fanout cone is duplicated in the SAT
    instance. The test suite re-proves its answers with the fresh-solver
    whole-copy oracle kept in [reference/]. *)
let generate ?budget ?on_stats circuit fault =
  generate_in (Cnf.Stuck_at_session.create circuit) ?budget ?on_stats fault

(** Full ATPG run in two phases. A deterministic random-pattern
    bootstrap first fault-simulates a fixed batch of random patterns
    (word-parallel, 62 fault lanes beside a fault-free lane per sweep),
    keeping each pattern that detects a remaining fault — this covers the
    easy bulk of the fault list for a few circuit simulations. The hard residue then goes to
    SAT in one greedy loop over one persistent incremental session (the
    clean circuit Tseitin-encoded once, created on the first query):
    take the head remaining fault, add its fanout-cone miter under a
    clause group retired after the query, and word-parallel
    fault-simulate each fresh pattern against the remaining faults to
    drop what it covers before the next query. [budget] goes straight
    into each query, so it is charged one step per solver conflict,
    plus one per fault processed; a query that starts with budget left
    spends at most that balance, so a step cap of [k] is never
    overspent by more than one step. On exhaustion the run stops and
    reports honest partial coverage with the unprocessed fault count.
    The whole campaign runs on the calling domain.

    Telemetry: an [atpg.run] span over the whole campaign with per-fault
    outcome counters ([atpg.detected] for SAT-generated patterns,
    [atpg.covered_by_simulation] and [atpg.faults_dropped] for faults
    swept by fault-simulating a pattern, [atpg.untestable],
    [atpg.abstained]), session counters ([atpg.session_reused] per query
    answered by the already-encoded session, [sat.groups_retired] from
    the solver, per-query [cnf.encode] spans for the encode-vs-solve
    split) and a final [atpg.coverage] gauge. *)
let run ?budget circuit =
  let module T = Eda_util.Telemetry in
  T.with_span "atpg.run" ~attrs:[ ("nodes", T.Int (Circuit.node_count circuit)) ]
    (fun () ->
      let faults = Array.of_list (Fault.Model.all_stuck_at_faults circuit) in
      let st =
        { patterns_rev = [];
          untestable_acc = [];
          faults;
          lo = 0;
          hi = Array.length faults;
          exhausted_by = None;
          totals = zero_stats;
          wsim = Fault.Model.wsim_create circuit }
      in
      random_pattern_bootstrap st circuit;
      let session = ref None in
      let on_stats s = st.totals <- merge_stats st.totals s in
      while st.exhausted_by = None && st.lo < st.hi do
        match Option.bind budget Eda_util.Budget.status with
        | Some e -> st.exhausted_by <- Some e
        | None ->
          let s =
            match !session with
            | Some s ->
              T.count "atpg.session_reused" 1;
              s
            | None ->
              let s = Cnf.Stuck_at_session.create circuit in
              session := Some s;
              s
          in
          apply_outcome ?budget st circuit
            (generate_in s ?budget ~on_stats st.faults.(st.lo))
      done;
      finish_report st ~total:(Array.length faults))

(** Checked entry point: lint first, structured errors out. *)
let run_checked ?budget circuit =
  let open Eda_util.Eda_error in
  let* _ = Netlist.Lint.validate circuit in
  guard ~engine:"atpg" (fun () -> run ?budget circuit)

(** Redundancy removal — the classic synthesis-for-test connection: a node
    whose stuck-at-v fault is untestable can be replaced by the constant v
    without changing the function. Security relevance: redundant logic is
    where lazy watermarks and sloppy Trojans hide, and redundancy also
    caps fault coverage; a clean flow sweeps it. Iterates to a fixed
    point; each pass answers all its stuck-at queries on one session. *)
let remove_redundancy circuit =
  if Circuit.num_dffs circuit > 0 then
    invalid_arg
      (Printf.sprintf
         "Atpg.remove_redundancy: sequential circuit (%d DFFs); redundancy removal reasons \
          about combinational logic only"
         (Circuit.num_dffs circuit));
  let rec pass c budget =
    if budget = 0 then c
    else begin
      let session = Cnf.Stuck_at_session.create c in
      let redundant = ref None in
      let n = Circuit.node_count c in
      let i = ref 0 in
      while !redundant = None && !i < n do
        (match Circuit.kind c !i with
         | Gate.Input | Gate.Const _ | Gate.Dff -> ()
         | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
         | Gate.Xor | Gate.Xnor | Gate.Mux ->
           let try_value value =
             if !redundant = None then
               match generate_in session (Fault.Model.Stuck_at { node = !i; value }) with
               | Untestable -> redundant := Some (!i, value)
               | Pattern _ | Abstained _ -> ()
           in
           try_value false;
           try_value true);
        incr i
      done;
      match !redundant with
      | None -> c
      | Some (node, value) ->
        (* Replace the node with the constant and simplify. *)
        let simplified =
          Synth.Pass.apply "constant_propagation"
            (Fault.Model.faulty_copy c (Fault.Model.Stuck_at { node; value }))
        in
        pass simplified (budget - 1)
    end
  in
  pass circuit 32
