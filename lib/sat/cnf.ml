(** Tseitin encoding of circuits into a shared SAT solver instance, plus
    miter construction for equivalence checking. The mapping from circuit
    nodes to solver variables is explicit so attacks can constrain
    individual nets (keys, scan cells, fault sites). *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module T = Eda_util.Telemetry

type env = {
  solver : Solver.t;
  vars : int array;  (* circuit node id -> solver variable *)
}

let lit env ~node ~sign = Solver.lit_of_var env.vars.(node) ~sign

(* Tseitin clauses for node [i]'s gate, with every literal supplied by
   [l : node -> sign -> lit]. Shared by the whole-circuit encoder and the
   fault-cone encoder (which maps cone fanins to faulty variables and
   everything else to the clean copy's). *)
let encode_node ~add ~l i nd =
  let f = nd.Circuit.fanins in
  match nd.Circuit.kind with
  | Gate.Input | Gate.Dff -> ()
  | Gate.Const b -> add [ l i b ]
  | Gate.Buf ->
    add [ l i true; l f.(0) false ];
    add [ l i false; l f.(0) true ]
  | Gate.Not ->
    add [ l i true; l f.(0) true ];
    add [ l i false; l f.(0) false ]
  | Gate.And ->
    add [ l i false; l f.(0) true ];
    add [ l i false; l f.(1) true ];
    add [ l i true; l f.(0) false; l f.(1) false ]
  | Gate.Nand ->
    add [ l i true; l f.(0) true ];
    add [ l i true; l f.(1) true ];
    add [ l i false; l f.(0) false; l f.(1) false ]
  | Gate.Or ->
    add [ l i true; l f.(0) false ];
    add [ l i true; l f.(1) false ];
    add [ l i false; l f.(0) true; l f.(1) true ]
  | Gate.Nor ->
    add [ l i false; l f.(0) false ];
    add [ l i false; l f.(1) false ];
    add [ l i true; l f.(0) true; l f.(1) true ]
  | Gate.Xor ->
    add [ l i false; l f.(0) true; l f.(1) true ];
    add [ l i false; l f.(0) false; l f.(1) false ];
    add [ l i true; l f.(0) true; l f.(1) false ];
    add [ l i true; l f.(0) false; l f.(1) true ]
  | Gate.Xnor ->
    add [ l i true; l f.(0) true; l f.(1) true ];
    add [ l i true; l f.(0) false; l f.(1) false ];
    add [ l i false; l f.(0) true; l f.(1) false ];
    add [ l i false; l f.(0) false; l f.(1) true ]
  | Gate.Mux ->
    (* i = s ? b : a  with f = [s; a; b] *)
    add [ l f.(0) true; l i false; l f.(1) true ];
    add [ l f.(0) true; l i true; l f.(1) false ];
    add [ l f.(0) false; l i false; l f.(2) true ];
    add [ l f.(0) false; l i true; l f.(2) false ]

(** Encode the combinational logic of [circuit]. DFF outputs are treated as
    free variables (pseudo-inputs), matching one unrolled time frame.
    Emits a [cnf.encode] span when telemetry is installed, so benchmark
    traces can split encode time from solve time. *)
let encode ?solver circuit =
  let solver = match solver with Some s -> s | None -> Solver.create () in
  let n = Circuit.node_count circuit in
  T.with_span "cnf.encode" ~attrs:[ ("nodes", T.Int n) ] (fun () ->
      (* One contiguous variable block: a single growth check instead of n. *)
      let base = Solver.new_vars solver n in
      let vars = Array.init n (fun k -> base + k) in
      let l node sign = Solver.lit_of_var vars.(node) ~sign in
      let add = Solver.add_clause solver in
      for i = 0 to n - 1 do
        encode_node ~add ~l i (Circuit.node circuit i)
      done;
      { solver; vars })

(** Fresh solver variable constrained to be the XOR of two node variables
    (used to compare outputs of two encoded circuits). *)
let xor_var s va vb =
  let v = Solver.new_var s in
  let lv sign = Solver.lit_of_var v ~sign in
  let la sign = Solver.lit_of_var va ~sign in
  let lb sign = Solver.lit_of_var vb ~sign in
  Solver.add_clause s [ lv false; la true; lb true ];
  Solver.add_clause s [ lv false; la false; lb false ];
  Solver.add_clause s [ lv true; la true; lb false ];
  Solver.add_clause s [ lv true; la false; lb true ];
  v

(** OR of a set of variables into a fresh variable. *)
let or_var s vs =
  let v = Solver.new_var s in
  List.iter
    (fun vi -> Solver.add_clause s [ Solver.lit_of_var v ~sign:true; Solver.lit_of_var vi ~sign:false ])
    vs;
  Solver.add_clause s
    (Solver.lit_of_var v ~sign:false :: List.map (fun vi -> Solver.lit_of_var vi ~sign:true) vs);
  v

(** Three-valued outcome of a bounded equivalence query. *)
type equivalence =
  | Equivalent
  | Counterexample of bool array  (* distinguishing input assignment *)
  | Equiv_unknown of Eda_util.Budget.exhaustion

(** Equivalence check of two combinational circuits with identical
    interfaces, bounded by [budget] (charged one step per solver
    conflict). [on_stats] receives the solver statistics of the query —
    the miter solver is internal, so this is how callers meter it. *)
let check_equivalence_b ?budget ?on_stats a b =
  if Circuit.num_inputs a <> Circuit.num_inputs b
     || Circuit.num_outputs a <> Circuit.num_outputs b
  then
    raise
      (Eda_util.Eda_error.Error
         (Eda_util.Eda_error.Invalid_input
            { what = "equivalence query";
              msg =
                Printf.sprintf "interface mismatch: %dx%d vs %dx%d inputs/outputs"
                  (Circuit.num_inputs a) (Circuit.num_outputs a)
                  (Circuit.num_inputs b) (Circuit.num_outputs b) }));
  let solver = Solver.create () in
  let env_a = encode ~solver a in
  let env_b = encode ~solver b in
  (* Tie inputs together. *)
  let ins_a = Circuit.inputs a and ins_b = Circuit.inputs b in
  Array.iteri
    (fun k ia ->
      let va = env_a.vars.(ia) and vb = env_b.vars.(ins_b.(k)) in
      Solver.add_clause solver [ Solver.lit_of_var va ~sign:true; Solver.lit_of_var vb ~sign:false ];
      Solver.add_clause solver [ Solver.lit_of_var va ~sign:false; Solver.lit_of_var vb ~sign:true ])
    ins_a;
  (* Miter: OR of output XORs must be true. *)
  let outs_a = Circuit.output_ids a and outs_b = Circuit.output_ids b in
  let diffs =
    Array.to_list
      (Array.mapi (fun k oa -> xor_var solver env_a.vars.(oa) env_b.vars.(outs_b.(k))) outs_a)
  in
  let any = or_var solver diffs in
  Solver.add_clause solver [ Solver.lit_of_var any ~sign:true ];
  let answer =
    match Solver.solve ?budget solver with
    | Solver.Unsat -> Equivalent
    | Solver.Sat ->
      let witness =
        Array.map (fun ia -> Solver.model_value solver env_a.vars.(ia)) ins_a
      in
      Counterexample witness
    | Solver.Unknown e -> Equiv_unknown e
  in
  Option.iter (fun f -> f (Solver.stats solver)) on_stats;
  answer

(* Mark the transitive fanout cone of [node] in [in_cone] (which must be
   all-false on entry for indices >= node): forward sweep in topological
   (= index) order, cut at DFF boundaries — a stuck fault cannot change
   this frame's latched state, matching {!encode}'s single-time-frame
   semantics. Returns the number of cone nodes (including [node]). *)
let mark_cone circuit ~node in_cone =
  let n = Circuit.node_count circuit in
  in_cone.(node) <- true;
  let count = ref 1 in
  for i = node + 1 to n - 1 do
    if
      (match Circuit.kind circuit i with Gate.Dff -> false | _ -> true)
      && Array.exists (fun f -> in_cone.(f)) (Circuit.fanins circuit i)
    then begin
      in_cone.(i) <- true;
      incr count
    end
  done;
  !count

(** Size (in nodes, including the fault site) of the DFF-cut transitive
    fanout cone of [node] — the number of gates a stuck-at query at
    [node] must duplicate, i.e. a direct proxy for that query's encoding
    cost. [scratch] (length >= node count) avoids the per-call cone
    buffer; it is reset before use, so a dirty buffer is fine. *)
let fanout_cone_gates ?scratch circuit ~node =
  let n = Circuit.node_count circuit in
  if node < 0 || node >= n then invalid_arg "Cnf.fanout_cone_gates: node out of range";
  let in_cone =
    match scratch with
    | Some a when Array.length a >= n ->
      Array.fill a 0 n false;
      a
    | Some _ | None -> Array.make n false
  in
  mark_cone circuit ~node in_cone

(** Cone-based stuck-at query: is some input assignment able to expose
    [node] stuck at [value] on a primary output? The clean circuit is
    encoded once; faulty variables exist only for the fault's transitive
    fanout cone, whose gates read non-cone fanins directly from the
    clean encoding. Outside the cone the two copies share variables, so
    their equality is structural instead of something the solver must
    derive — the whole-copy miter forced exactly that derivation, which
    is what made large-circuit ATPG intractable. The cone is cut at DFF
    boundaries (see {!mark_cone}). A fault whose cone reaches no output
    is undetectable without any solving. *)
let check_stuck_at ?budget ?on_stats circuit ~node ~value =
  let n = Circuit.node_count circuit in
  if node < 0 || node >= n then invalid_arg "Cnf.check_stuck_at: node out of range";
  let in_cone = Array.make n false in
  ignore (mark_cone circuit ~node in_cone);
  let affected =
    Array.to_list (Circuit.output_ids circuit)
    |> List.filter (fun o -> in_cone.(o))
    |> List.sort_uniq compare
  in
  match affected with
  | [] -> Equivalent
  | _ ->
    let solver = Solver.create () in
    let env = encode ~solver circuit in
    let fvars = Array.make n (-1) in
    for i = 0 to n - 1 do
      if in_cone.(i) then fvars.(i) <- Solver.new_var solver
    done;
    let add = Solver.add_clause solver in
    add [ Solver.lit_of_var fvars.(node) ~sign:value ];
    let l j sign =
      Solver.lit_of_var (if in_cone.(j) then fvars.(j) else env.vars.(j)) ~sign
    in
    for i = node + 1 to n - 1 do
      if in_cone.(i) then encode_node ~add ~l i (Circuit.node circuit i)
    done;
    let diffs = List.map (fun o -> xor_var solver env.vars.(o) fvars.(o)) affected in
    add [ Solver.lit_of_var (or_var solver diffs) ~sign:true ];
    let answer =
      match Solver.solve ?budget solver with
      | Solver.Unsat -> Equivalent
      | Solver.Sat ->
        Counterexample
          (Array.map
             (fun ia -> Solver.model_value solver env.vars.(ia))
             (Circuit.inputs circuit))
      | Solver.Unknown e -> Equiv_unknown e
    in
    Option.iter (fun f -> f (Solver.stats solver)) on_stats;
    answer

(** Incremental stuck-at sessions: the clean circuit is Tseitin-encoded
    {e once}, and each fault query adds only its fanout-cone faulty copy
    and miter under a fresh clause group ({!Solver.new_group}), solved
    under the group's activation literal and retired immediately after.
    Retirement reclaims the query's clauses and their learnt descendants
    ({!Solver.retire_group}) while learnt clauses about the clean
    circuit persist and accelerate every later query; {!Solver
    .shrink_vars} then recycles the query's variable indices, so the
    session's variable range stays bounded by one query's footprint.

    Answers match {!check_stuck_at} on a fresh solver exactly
    (differential-tested): both are sound and complete, so the
    [Equivalent]/[Counterexample] status per fault is identical. The
    {e witness pattern} of a [Counterexample] may differ — persistent
    learnt clauses steer the search — but it always detects the fault.
    Within one session, answers are a deterministic function of the
    query sequence, which is what lets a fixed query plan produce
    bit-identical ATPG reports at any domain count. *)
module Stuck_at_session = struct
  type session = {
    env : env;
    circuit : Circuit.t;
    floor : int;  (* variable floor: everything >= floor is per-query scratch *)
    in_cone : bool array;  (* per-query cone scratch, cleared after each query *)
    fvars : int array;  (* per-query faulty-copy variables, cone entries only *)
    outputs : int array;  (* output node ids, sorted, without duplicates *)
    diffs : int array;  (* per-query miter difference variables *)
    mutable queries : int;
  }

  type t = session

  let create ?solver circuit =
    let env = encode ?solver circuit in
    let n = Circuit.node_count circuit in
    let outputs =
      Array.of_list (List.sort_uniq compare (Array.to_list (Circuit.output_ids circuit)))
    in
    { env;
      circuit;
      floor = (Solver.stats env.solver).Solver.vars;
      in_cone = Array.make n false;
      fvars = Array.make n (-1);
      outputs;
      diffs = Array.make (Array.length outputs) (-1);
      queries = 0 }

  let queries t = t.queries
  let stats t = Solver.stats t.env.solver

  (* Per-query solver statistics reported as a delta: capacity-like
     fields (vars, clauses, live learnts) are the post-solve values,
     work-like fields the difference — the same shape a fresh solver's
     totals have, so campaign-level merging treats both paths alike. *)
  let stats_delta (before : Solver.stats) (after : Solver.stats) =
    { Solver.vars = after.Solver.vars;
      clauses = after.Solver.clauses;
      conflicts = after.Solver.conflicts - before.Solver.conflicts;
      decisions = after.Solver.decisions - before.Solver.decisions;
      propagations = after.Solver.propagations - before.Solver.propagations;
      learnt = after.Solver.learnt - before.Solver.learnt;
      learnt_live = after.Solver.learnt_live;
      restarts = after.Solver.restarts - before.Solver.restarts;
      db_reductions = after.Solver.db_reductions - before.Solver.db_reductions;
      clauses_deleted = after.Solver.clauses_deleted - before.Solver.clauses_deleted }

  (** One stuck-at query against the session. Same contract as
      {!check_stuck_at}; the group is retired and its variables recycled
      before returning — also after an [Equiv_unknown], so a later retry
      (with a larger budget) re-encodes only the fault's cone while
      keeping every clean-circuit learnt clause. [on_stats] receives
      this query's solver-statistics delta. *)
  let query ?budget ?on_stats t ~node ~value =
    let circuit = t.circuit in
    let n = Circuit.node_count circuit in
    if node < 0 || node >= n then
      invalid_arg "Cnf.Stuck_at_session.query: node out of range";
    let in_cone = t.in_cone and fvars = t.fvars and diffs = t.diffs in
    ignore (mark_cone circuit ~node in_cone);
    (* The cone only contains indices >= node (topological order). *)
    let clear () =
      for i = node to n - 1 do
        if in_cone.(i) then begin
          in_cone.(i) <- false;
          fvars.(i) <- -1
        end
      done
    in
    t.queries <- t.queries + 1;
    if not (Array.exists (fun o -> in_cone.(o)) t.outputs) then begin
      clear ();
      Equivalent
    end
    else begin
      let s = t.env.solver in
      let before = Solver.stats s in
      let g = Solver.new_group s in
      let add = Solver.add_clause_in s g in
      T.with_span "cnf.encode"
        ~attrs:[ ("nodes", T.Int n); ("cone", T.Int (n - node)) ]
        (fun () ->
          for i = node to n - 1 do
            if in_cone.(i) then fvars.(i) <- Solver.new_var s
          done;
          add [ Solver.lit_of_var fvars.(node) ~sign:value ];
          let l j sign =
            Solver.lit_of_var (if in_cone.(j) then fvars.(j) else t.env.vars.(j)) ~sign
          in
          for i = node + 1 to n - 1 do
            if in_cone.(i) then encode_node ~add ~l i (Circuit.node circuit i)
          done;
          (* Group-guarded miter: XOR each affected output pair, OR the
             differences, assert the OR — all under the activation
             literal, so retirement erases the whole query. (The plain
             {!xor_var}/{!or_var} helpers are not reused here: they add
             unguarded clauses, which would outlive the group and pin
             its recycled variables.) *)
          let nd = ref 0 in
          Array.iter
            (fun o ->
              if in_cone.(o) then begin
                let d = Solver.new_var s in
                let ld sign = Solver.lit_of_var d ~sign in
                let la sign = Solver.lit_of_var t.env.vars.(o) ~sign in
                let lb sign = Solver.lit_of_var fvars.(o) ~sign in
                add [ ld false; la true; lb true ];
                add [ ld false; la false; lb false ];
                add [ ld true; la true; lb false ];
                add [ ld true; la false; lb true ];
                diffs.(!nd) <- d;
                incr nd
              end)
            t.outputs;
          let any = Solver.new_var s in
          for k = 0 to !nd - 1 do
            add [ Solver.lit_of_var any ~sign:true; Solver.lit_of_var diffs.(k) ~sign:false ]
          done;
          add
            (Solver.lit_of_var any ~sign:false
            :: List.init !nd (fun k -> Solver.lit_of_var diffs.(k) ~sign:true));
          add [ Solver.lit_of_var any ~sign:true ]);
      (* Activity earned on a previous fault's cone is noise for this
         query and can blow up the conflict count by an order of
         magnitude; start each query from the fresh index-order
         heuristic while keeping the learnt clauses. *)
      Solver.reset_activity s;
      let answer =
        match Solver.solve ?budget ~assumptions:[ Solver.group_lit g ] s with
        | Solver.Unsat -> Equivalent
        | Solver.Sat ->
          (* Read the model before retiring — retirement backtracks. *)
          Counterexample
            (Array.map
               (fun ia -> Solver.model_value s t.env.vars.(ia))
               (Circuit.inputs circuit))
        | Solver.Unknown e -> Equiv_unknown e
      in
      let after = Solver.stats s in
      Solver.retire_group s g;
      Solver.shrink_vars s t.floor;
      Option.iter (fun f -> f (stats_delta before after)) on_stats;
      clear ();
      answer
    end
end

(** Unbounded equivalence check; [None] when equivalent, or a
    distinguishing input assignment. *)
let check_equivalence a b =
  match check_equivalence_b a b with
  | Equivalent -> None
  | Counterexample w -> Some w
  | Equiv_unknown _ -> assert false  (* no budget, solve cannot abstain *)

(** Satisfiability of a single-output circuit being true for some input. *)
let satisfiable_output circuit ~output =
  let env = encode circuit in
  let o = (Circuit.output_ids circuit).(output) in
  Solver.add_clause env.solver [ lit env ~node:o ~sign:true ];
  match Solver.solve env.solver with
  | Solver.Unsat | Solver.Unknown _ -> None
  | Solver.Sat ->
    Some (Array.map (fun i -> Solver.model_value env.solver env.vars.(i)) (Circuit.inputs circuit))
