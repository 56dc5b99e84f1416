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

(** Generate a test for one stuck-at fault, optionally bounded. The miter
    is cone-based ({!Cnf.check_stuck_at}): only the fault's fanout cone
    is duplicated in the SAT instance, which keeps per-fault queries
    tractable on circuits far beyond what a whole-copy miter handles. *)
let generate ?budget ?on_stats circuit fault =
  match (fault : Fault.Model.fault) with
  | Fault.Model.Bit_flip _ -> invalid_arg "Atpg: transient faults have no static copy"
  | Fault.Model.Stuck_at { node; value } ->
    (match Cnf.check_stuck_at ?budget ?on_stats circuit ~node ~value with
     | Cnf.Equivalent -> Untestable
     | Cnf.Counterexample witness -> Pattern witness
     | Cnf.Equiv_unknown e -> Abstained e)

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

(* Number of logical incremental-session lanes. The campaign proceeds in
   waves of up to [session_lanes] faults; wave position [i] is always
   served by lane [i]'s persistent {!Cnf.Stuck_at_session}. The wave
   plan — which faults form each wave, which lane runs which query — is
   a pure function of the fault list and the replayed greedy outcomes,
   never of the executor, so every lane sees the identical query
   sequence whether the wave ran sequentially or on 1/2/8 pool domains.
   Incremental answers are deterministic per query sequence, which is
   what makes the reports bit-identical across executors. Fixed at 8
   (the largest supported pool in the bench matrix), NOT the pool size:
   a lane count that tracked the domain count would change the query
   plan — and with it the learnt-clause history — per configuration. *)
let session_lanes = 8

(* The greedy campaign state threaded through both execution strategies.
   The greedy replay loop itself is the specification: take each wave
   member in order, fault-simulate each fresh pattern against the
   remaining list, drop what it covers. *)
type campaign = {
  mutable patterns_rev : bool array list;
  mutable untestable_acc : Fault.Model.fault list;
  mutable remaining : Fault.Model.fault list;
  mutable exhausted_by : Eda_util.Budget.exhaustion option;
  mutable totals : Solver.stats;
  wsim : Fault.Model.wsim;  (* word-parallel fault-dropping scratch *)
}

(* Word-parallel fault dropping: fault-simulate pattern [p] against
   [rest] in 63-fault batches ({!Fault.Model.detects_many} — one word
   lane per fault) and keep the undetected survivors in order. Replaces
   a per-fault scalar simulation sweep, cutting the dominant non-SAT
   cost of large campaigns ~63-fold. *)
let drop_detected wsim circuit rest p =
  let arr = Array.of_list rest in
  let nf = Array.length arr in
  let acc = ref [] in
  let i = ref 0 in
  while !i < nf do
    let len = min 63 (nf - !i) in
    let batch = Array.sub arr !i len in
    let mask = Fault.Model.detects_many wsim circuit ~faults:batch p in
    for k = 0 to len - 1 do
      if (mask lsr k) land 1 = 0 then acc := batch.(k) :: !acc
    done;
    i := !i + len
  done;
  List.rev !acc

(* Account one processed fault's outcome: telemetry counters, the greedy
   pattern/fault-list update, and the one-step-per-fault budget charge.
   [fault] must be the head of [st.remaining]. *)
let apply_outcome ?budget st circuit fault outcome =
  let module T = Eda_util.Telemetry in
  (match st.remaining with head :: _ -> assert (head == fault) | [] -> assert false);
  let rest = match st.remaining with _ :: r -> r | [] -> [] in
  (match outcome with
   | Abstained e ->
     T.count "atpg.abstained" 1;
     st.exhausted_by <- Some e
   | Untestable ->
     T.count "atpg.untestable" 1;
     st.untestable_acc <- fault :: st.untestable_acc;
     st.remaining <- rest
   | Pattern p ->
     st.patterns_rev <- p :: st.patterns_rev;
     (* Drop every other remaining fault this pattern also detects. *)
     let survivors = drop_detected st.wsim circuit rest p in
     T.count "atpg.detected" 1;
     if T.active () then begin
       let dropped = List.length rest - List.length survivors in
       T.count "atpg.covered_by_simulation" dropped;
       T.count "atpg.faults_dropped" dropped
     end;
     st.remaining <- survivors);
  Option.iter (fun b -> Eda_util.Budget.tick b) budget

let finish_report st ~total =
  let module T = Eda_util.Telemetry in
  let untestable_n = List.length st.untestable_acc in
  let remaining_n = if st.exhausted_by = None then 0 else List.length st.remaining in
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

let fresh_campaign circuit faults =
  { patterns_rev = [];
    untestable_acc = [];
    remaining = faults;
    exhausted_by = None;
    totals = zero_stats;
    wsim = Fault.Model.wsim_create circuit }

let budget_status budget = Option.map Eda_util.Budget.status budget |> Option.join

(* Random-pattern bootstrap: before any SAT query, fault-simulate a
   fixed, deterministic batch of random patterns and keep each one that
   detects at least one remaining fault. Classic two-phase ATPG: random
   patterns cover the easy bulk of the fault list for the cost of a few
   word-parallel circuit simulations (63 fault lanes per sweep), leaving
   the SAT sessions only the hard residue — random-resistant and
   untestable faults. Runs caller-side before the first wave, so it is
   trivially executor-independent (same patterns, same survivors, at
   any domain count). *)
let bootstrap_patterns = 64
let bootstrap_seed = 0x5eed

let random_pattern_bootstrap st circuit =
  let module T = Eda_util.Telemetry in
  let ni = Circuit.num_inputs circuit in
  let rng = Eda_util.Rng.create bootstrap_seed in
  let k = ref 0 in
  while !k < bootstrap_patterns && st.remaining <> [] do
    let p = Array.init ni (fun _ -> Eda_util.Rng.bool rng) in
    let survivors = drop_detected st.wsim circuit st.remaining p in
    let dropped = List.length st.remaining - List.length survivors in
    if dropped > 0 then begin
      st.patterns_rev <- p :: st.patterns_rev;
      st.remaining <- survivors;
      if T.active () then begin
        T.count "atpg.covered_by_simulation" dropped;
        T.count "atpg.faults_dropped" dropped
      end
    end;
    incr k
  done

let fault_universe ?faults circuit =
  match faults with
  | Some fs -> fs
  | None -> Fault.Model.all_stuck_at_faults circuit

(* One lazily-created persistent incremental session per logical lane.
   Lane [i] always serves wave position [i], so within a wave each
   session is touched by exactly one task (no intra-wave contention) and
   across waves a lane's query sequence is plan-determined. The pool's
   all-domains join at the end of each wave is the happens-before edge
   that publishes worker-side session mutation to the next wave. *)
let make_sessions () = Array.make session_lanes None

let session_for sessions circuit lane =
  let module T = Eda_util.Telemetry in
  match sessions.(lane) with
  | Some s ->
    T.count "atpg.session_reused" 1;
    s
  | None ->
    let s = Cnf.Stuck_at_session.create circuit in
    sessions.(lane) <- Some s;
    s

(* Session-backed [generate]: the clean circuit was encoded when the
   lane's session was created; this adds only the fault's cone under a
   fresh clause group, retired after the query. *)
let generate_in session ?budget ?on_stats fault =
  match (fault : Fault.Model.fault) with
  | Fault.Model.Bit_flip _ -> invalid_arg "Atpg: transient faults have no static copy"
  | Fault.Model.Stuck_at { node; value } ->
    (match Cnf.Stuck_at_session.query ?budget ?on_stats session ~node ~value with
     | Cnf.Equivalent -> Untestable
     | Cnf.Counterexample witness -> Pattern witness
     | Cnf.Equiv_unknown e -> Abstained e)

let take n lst =
  let rec go acc n = function
    | x :: rest when n > 0 -> go (x :: acc) (n - 1) rest
    | _ -> List.rev acc
  in
  Array.of_list (go [] n lst)

(* The canonical wave plan shared by both executors. Each round takes
   the first [session_lanes] remaining faults, has [exec] run their
   session queries (sequentially or on the pool — lane [i] of the wave
   always on session [i]), then replays the greedy loop over the
   precomputed outcomes in wave order. A pattern from an earlier wave
   member may cover a later one — its speculative query is then not
   needed for its own fault, but its witness pattern is still recycled:
   if it detects any still-remaining fault it joins the test set and
   drops them (a covered fault's query was part of the plan either way,
   which is exactly why lane histories — and so the reports — are
   executor-independent). Every wave query's solver work is merged into
   the report totals and charged to the main budget during replay, so
   accounting stays on the caller and reflects work actually done. *)
let run_core ~exec ?budget ?faults circuit =
  let module B = Eda_util.Budget in
  let module T = Eda_util.Telemetry in
  let faults = fault_universe ?faults circuit in
  let total = List.length faults in
  let st = fresh_campaign circuit faults in
  random_pattern_bootstrap st circuit;
  while st.exhausted_by = None && st.remaining <> [] do
    match budget_status budget with
    | Some e -> st.exhausted_by <- Some e
    | None ->
      let wave = take session_lanes st.remaining in
      let step_cap = Option.bind budget B.remaining_steps in
      let results = exec ~step_cap wave in
      let i = ref 0 in
      while st.exhausted_by = None && !i < Array.length wave do
        let fault = wave.(!i) in
        let uncovered = List.memq fault st.remaining in
        (match results.(!i) with
         | None ->
           (* task skipped: the batch was stopped under us *)
           if uncovered then
             st.exhausted_by <-
               Some (match budget_status budget with Some e -> e | None -> B.Cancelled)
         | Some (outcome, per_query) ->
           List.iter
             (fun s ->
               st.totals <- merge_stats st.totals s;
               (* the conflicts a sequential run would have ticked from
                  inside the solver *)
               Option.iter (fun b -> B.tick ~cost:s.Solver.conflicts b) budget)
             per_query;
           if uncovered then begin
             match budget_status budget with
             | Some e -> st.exhausted_by <- Some e
             | None -> apply_outcome ?budget st circuit fault outcome
           end
           else begin
             (* Speculative-pattern recycling: the fault was covered by an
                earlier wave member's pattern, but this witness may still
                detect other remaining faults — keep it iff it does. *)
             match outcome with
             | Pattern p when st.remaining <> [] ->
               let survivors = drop_detected st.wsim circuit st.remaining p in
               let dropped = List.length st.remaining - List.length survivors in
               if dropped > 0 then begin
                 st.patterns_rev <- p :: st.patterns_rev;
                 st.remaining <- survivors;
                 if T.active () then begin
                   T.count "atpg.covered_by_simulation" dropped;
                   T.count "atpg.faults_dropped" dropped
                 end
               end
             | Pattern _ | Untestable | Abstained _ -> ()
           end);
        incr i
      done
  done;
  finish_report st ~total

(* Sequential executor: the wave's queries in lane order on the calling
   domain. Per-query budgets are carved (steps capped at the main
   budget's remaining balance at wave start, cancellation polled from
   the main budget) rather than passed through, mirroring the pooled
   executor's task budgets — the replay loop is the single place the
   main budget is charged. *)
let run_seq ?budget ?faults circuit =
  let module B = Eda_util.Budget in
  let sessions = make_sessions () in
  let exec ~step_cap wave =
    let n = Array.length wave in
    let out = Array.make n None in
    for lane = 0 to n - 1 do
      let s = session_for sessions circuit lane in
      let acc = ref [] in
      let tb =
        Option.map (fun b -> B.create ?steps:step_cap ~poll:(fun () -> B.exhausted b) ())
          budget
      in
      let outcome =
        generate_in s ?budget:tb ~on_stats:(fun d -> acc := d :: !acc) wave.(lane)
      in
      out.(lane) <- Some (outcome, List.rev !acc)
    done;
    out
  in
  run_core ~exec ?budget ?faults circuit

(* Pooled executor: the wave's queries as one parallel batch; task index
   = wave position = session lane, so scheduling (domain count, steal
   order, chunk grain) affects only which domain runs a query, never
   which session runs it or in what per-lane order. *)
let run_pooled ~pool ?chunk ?budget ?faults circuit =
  let module P = Eda_util.Pool in
  let sessions = make_sessions () in
  let exec ~step_cap wave =
    (* Adaptive scheduling grain: half a wave's share per domain, so
       every domain claims work at most twice per wave — enough to
       amortize claim bookkeeping while leaving the tail stealable.
       Scheduling-only: results are grain-invariant (Pool contract). *)
    let grain =
      match chunk with
      | Some c -> c
      | None -> max 1 (Array.length wave / (2 * max 1 (P.size pool)))
    in
    P.parallel_map ?budget ~label:"atpg" ~chunk:grain pool
      ~f:(fun ctx (lane, fault) ->
        let s = session_for sessions circuit lane in
        let acc = ref [] in
        let tb = ctx.P.task_budget ?steps:step_cap () in
        let outcome = generate_in s ~budget:tb ~on_stats:(fun d -> acc := d :: !acc) fault in
        (outcome, List.rev !acc))
      (Array.mapi (fun lane f -> (lane, f)) wave)
  in
  run_core ~exec ?budget ?faults circuit

(** Full ATPG run in two phases. A deterministic random-pattern
    bootstrap first fault-simulates a fixed batch of random patterns
    (word-parallel, 63 fault lanes per sweep), keeping each pattern that
    detects a remaining fault — this covers the easy bulk of the fault
    list for a few circuit simulations. The hard residue then goes to
    SAT on persistent incremental sessions: the clean circuit is
    Tseitin-encoded once per session lane, each fault adds only its
    fanout-cone miter under a retired-after-use clause group, and every
    fresh pattern is word-parallel fault-simulated against the remaining
    faults to drop what it covers before any more SAT queries run. [budget] is charged one step per fault processed
    plus one per solver conflict; on exhaustion the run stops and
    reports honest partial coverage with the unprocessed fault count.
    [pool] parallelizes the per-fault session queries (fixed 8-lane
    waves, greedy replay); an unbounded pooled run reports
    bit-identically to the sequential path at any domain count, while a
    budget-truncated pooled run may stop within a wave of where the
    sequential run would. [chunk] overrides the pooled scheduling grain
    (default adaptive: wave size over twice the domain count);
    scheduling-only, results are grain-invariant.

    Telemetry: an [atpg.run] span over the whole campaign with per-fault
    outcome counters ([atpg.detected] for SAT-generated patterns,
    [atpg.covered_by_simulation] and [atpg.faults_dropped] for faults
    swept by fault-simulating a fresh pattern, [atpg.untestable],
    [atpg.abstained]), session counters ([atpg.session_reused] per query
    answered by a warm session, [sat.groups_retired] from the solver,
    per-query [cnf.encode] spans for the encode-vs-solve split) and a
    final [atpg.coverage] gauge. Pooled waves add [pool.batch] spans
    whose [pool.task] children carry the workers' captured telemetry.
    Any pool, including size 1, takes the pooled path so the trace shape
    is uniform across domain counts. *)
let run ?budget ?pool ?chunk ?faults circuit =
  let module T = Eda_util.Telemetry in
  let domains = match pool with Some p -> Eda_util.Pool.size p | None -> 1 in
  T.with_span "atpg.run"
    ~attrs:[ ("nodes", T.Int (Circuit.node_count circuit)); ("domains", T.Int domains) ]
    (fun () ->
      match pool with
      | Some p -> run_pooled ~pool:p ?chunk ?budget ?faults circuit
      | None -> run_seq ?budget ?faults circuit)

(** Checked entry point: lint first, structured errors out. *)
let run_checked ?budget ?pool ?chunk ?faults circuit =
  let open Eda_util.Eda_error in
  let* _ = Netlist.Lint.validate circuit in
  guard ~engine:"atpg" (fun () -> run ?budget ?pool ?chunk ?faults circuit)

(* A copy of [circuit] with [fault] frozen in: the fault site is shadowed
   downstream by a constant carrying the stuck value. Used by redundancy
   removal, which really does want a standalone circuit (the SAT queries
   themselves go through the cone miter and never build one). *)
let faulty_copy circuit fault =
  match (fault : Fault.Model.fault) with
  | Fault.Model.Bit_flip _ -> invalid_arg "Atpg: transient faults have no static copy"
  | Fault.Model.Stuck_at { node; value } ->
    let out = Circuit.create () in
    let n = Circuit.node_count circuit in
    let remap = Array.make n (-1) in
    let name_taken = Hashtbl.create 64 in
    let copy_name i =
      let nm = Circuit.name circuit i in
      if Hashtbl.mem name_taken nm || Circuit.find_by_name out nm <> None then ""
      else begin
        Hashtbl.replace name_taken nm ();
        nm
      end
    in
    for i = 0 to n - 1 do
      let nd = Circuit.node circuit i in
      let fanins = Array.map (fun f -> remap.(f)) nd.Circuit.fanins in
      let id = Circuit.add_node_raw out nd.Circuit.kind fanins (copy_name i) in
      remap.(i) <-
        (if i = node then Circuit.add_node_raw out (Gate.Const value) [||] "" else id)
    done;
    Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs circuit);
    out

(** Redundancy removal — the classic synthesis-for-test connection: a node
    whose stuck-at-v fault is untestable can be replaced by the constant v
    without changing the function. Security relevance: redundant logic is
    where lazy watermarks and sloppy Trojans hide, and redundancy also
    caps fault coverage; a clean flow sweeps it. Iterates to a fixed
    point. *)
let remove_redundancy circuit =
  let rec pass c budget =
    if budget = 0 then c
    else begin
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
               match generate c (Fault.Model.Stuck_at { node = !i; value }) with
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
        let simplified = Synth.Pass.apply "constant_propagation" (faulty_copy c (Fault.Model.Stuck_at { node; value })) in
        pass simplified (budget - 1)
    end
  in
  pass circuit 32
