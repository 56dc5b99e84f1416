(** Automatic test pattern generation for single stuck-at faults on
    combinational circuits, in two phases. A random phase fault-simulates
    1,008 random patterns on the pattern-parallel engine and keeps each
    one that is the first to detect some fault. SAT then answers what
    random patterns miss: for each remaining fault, a miter between the
    clean circuit and a faulty copy either yields a detecting pattern or
    proves the fault untestable (redundant logic). *)

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

(* Fault dropping after one SAT pattern: fault-simulate [p] against the
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

(* The random phase: before any SAT query, fault-simulate a fixed,
   deterministic set of random patterns, 16 words of 63 lanes, on the
   pattern-parallel engine ({!Fault.Model.psim}), and keep exactly the
   patterns that are the first to detect some fault, in pattern order:
   the set a pattern-by-pattern drop would keep. Random patterns cover
   the easy bulk of the fault list for a few circuit sweeps, leaving the
   SAT session only the hard residue: random-resistant and untestable
   faults. *)
let random_words = 16
let random_seed = 0x5eed

let random_phase st circuit =
  let module T = Eda_util.Telemetry in
  T.with_span "atpg.random" (fun () ->
      let rng = Eda_util.Rng.create random_seed in
      let p = Fault.Model.psim_create circuit in
      let inputs = Array.make (Circuit.num_inputs circuit) 0 in
      let kept = ref 0 and dropped = ref 0 and word = ref 0 in
      while !word < random_words && st.lo < st.hi do
        for k = 0 to Array.length inputs - 1 do
          inputs.(k) <- Eda_util.Rng.bits63 rng
        done;
        Fault.Model.simulate_word p inputs ~patterns:63;
        (* Compact the undetected faults in place; a detected fault's
           lowest lane is its first detecting pattern. *)
        let first = ref 0 and w = ref st.lo in
        for k = st.lo to st.hi - 1 do
          let f = st.faults.(k) in
          let lanes = Fault.Model.detecting_lanes p f in
          if lanes = 0 then begin
            st.faults.(!w) <- f;
            incr w
          end
          else first := !first lor (lanes land -lanes)
        done;
        dropped := !dropped + (st.hi - !w);
        st.hi <- !w;
        for j = 0 to 62 do
          if (!first lsr j) land 1 = 1 then begin
            st.patterns_rev <- Array.map (fun x -> (x lsr j) land 1 = 1) inputs :: st.patterns_rev;
            incr kept
          end
        done;
        incr word
      done;
      if T.active () then begin
        T.count "atpg.random_patterns_kept" !kept;
        T.count "atpg.covered_by_simulation" !dropped;
        T.count "atpg.faults_dropped" !dropped
      end)

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

(** Full ATPG run in two phases. The random phase fault-simulates 16
    words of 63 deterministic random patterns on the pattern-parallel
    engine ({!Fault.Model.psim}), drops every fault they detect and keeps
    exactly the patterns that are the first to detect some fault: the
    set a pattern-by-pattern drop would keep. This covers the easy bulk
    of the fault list for a few circuit sweeps. The hard residue then
    goes to SAT in one greedy loop over one persistent incremental
    session (the clean circuit Tseitin-encoded once, created on the
    first query): take the head remaining fault, add its fanout-cone
    miter under a clause group retired after the query, and
    fault-simulate each fresh pattern against the remaining faults on
    the lane sweep to drop what it covers before the next query.
    [budget] goes straight into each query, so it is charged one step per
    solver conflict, plus one per fault processed; a query that starts
    with budget left spends at most that balance, so a step cap of [k]
    is never overspent by more than one step. On exhaustion the run stops
    and reports honest partial coverage with the unprocessed fault
    count. Unbounded, every testable fault ends detected and every
    untestable one proven, so [coverage] and [untestable] do not depend
    on the random phase; only the pattern list does. The whole campaign
    runs on the calling domain.

    Telemetry: an [atpg.run] span over the whole campaign, an
    [atpg.random] span over the random phase with the
    [atpg.random_patterns_kept] counter, per-fault outcome counters
    ([atpg.detected] for SAT-generated patterns,
    [atpg.covered_by_simulation] and [atpg.faults_dropped] for faults
    dropped by fault simulation in either phase, [atpg.untestable],
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
      random_phase st circuit;
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
