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

(* --- miter primitives ------------------------------------------------- *)

(* Every miter in the toolkit is built from the two primitives below.
   Both send their clauses to a sink [add]: [Solver.add_clause s] for a
   one-shot miter, [Solver.add_clause_in s g] for a query that a clause
   group must be able to retire whole. *)

(** Constrain two variables to be equal (two binary clauses). *)
let tie ~add va vb =
  add [ Solver.lit_of_var va ~sign:true; Solver.lit_of_var vb ~sign:false ];
  add [ Solver.lit_of_var va ~sign:false; Solver.lit_of_var vb ~sign:true ]

(** Fresh variable constrained to the XOR of [va] and [vb]. *)
let xor_var s ~add va vb =
  let v = Solver.new_var s in
  let lv sign = Solver.lit_of_var v ~sign in
  let la sign = Solver.lit_of_var va ~sign in
  let lb sign = Solver.lit_of_var vb ~sign in
  add [ lv false; la true; lb true ];
  add [ lv false; la false; lb false ];
  add [ lv true; la true; lb false ];
  add [ lv true; la false; lb true ];
  v

(** Fresh variable that is true exactly when some pair [xs.(k)], [ys.(k)]
    differs: one XOR variable per pair, in index order, then their OR. *)
let differs s ~add xs ys =
  let diffs = Array.map2 (xor_var s ~add) xs ys in
  let v = Solver.new_var s in
  Array.iter
    (fun d -> add [ Solver.lit_of_var v ~sign:true; Solver.lit_of_var d ~sign:false ])
    diffs;
  add
    (Solver.lit_of_var v ~sign:false
    :: Array.to_list (Array.map (fun d -> Solver.lit_of_var d ~sign:true) diffs));
  v

(** Three-valued outcome of a bounded equivalence query. *)
type equivalence =
  | Equivalent
  | Counterexample of bool array  (* distinguishing input assignment *)
  | Equiv_unknown of Eda_util.Budget.exhaustion

(* Mark the transitive fanout cone of [node] in [in_cone] (which must be
   all-false on entry for indices >= node): forward sweep in topological
   (= index) order, cut at DFF boundaries — a stuck fault cannot change
   this frame's latched state, matching {!encode}'s single-time-frame
   semantics. *)
let mark_cone (view : Circuit.view) ~node in_cone =
  in_cone.(node) <- true;
  for i = node + 1 to Array.length view.kinds - 1 do
    match view.kinds.(i) with
    | Gate.Dff -> ()
    | _ ->
      let fanin = view.fanin.(i) in
      let k = ref 0 in
      while !k < Array.length fanin && not in_cone.(fanin.(!k)) do
        incr k
      done;
      if !k < Array.length fanin then in_cone.(i) <- true
  done

(* Mark the fan-in closure of the cone in [in_support] (all-false on
   entry), cut at DFF outputs — a DFF output is a free variable of the
   frame — and list it in [support]; returns its size. A backward sweep
   in index order: every fanin precedes its consumer. The closure holds
   every clean variable a query's clauses mention (the outputs the cone
   reaches, and the clean fanins its gates read), so it is the set a
   query must branch on (see {!Solver.set_decision}). *)
let mark_support (view : Circuit.view) in_cone in_support support =
  let count = ref 0 in
  for i = Array.length view.kinds - 1 downto 0 do
    if in_cone.(i) || in_support.(i) then begin
      in_support.(i) <- true;
      support.(!count) <- i;
      incr count;
      match view.kinds.(i) with
      | Gate.Dff -> ()
      | _ ->
        let fanin = view.fanin.(i) in
        for k = 0 to Array.length fanin - 1 do
          in_support.(fanin.(k)) <- true
        done
    end
  done;
  !count

(** Incremental stuck-at sessions: the clean circuit is Tseitin-encoded
    {e once}, and each fault query adds only its fanout-cone faulty copy
    and miter under a fresh clause group ({!Solver.new_group}), solved
    under the group's activation literal and retired immediately after.
    Retirement reclaims the query's clauses and their learnt descendants
    ({!Solver.retire_group}) while learnt clauses about the clean
    circuit persist and accelerate every later query; {!Solver
    .shrink_vars} then recycles the query's variable indices, so the
    session's variable range stays bounded by one query's footprint.
    Gates of the cone read their non-cone fanins straight from the clean
    encoding, so outside the cone the two copies share variables and
    their equality is structural; a whole-copy miter makes the solver
    derive it, which is what made large-circuit ATPG intractable.

    The search branches only on the query's support: the fan-in closure
    of its cone, cut at DFF outputs. The session clears the clean
    variables' decision flags once ({!Solver.set_decision}); each query
    sets them on its support and clears them again before retiring. The
    clean encoding is functional and the query's clauses mention no
    clean variable outside the support, so a conflict-free assignment of
    the support and the query's own variables extends to a model: the
    nets outside take the values their fanins compute, and a primary
    input outside the support reads 0 in the witness.

    Answers match a fresh solver's exactly (differential-tested against
    the whole-copy reference oracle in [reference/]): both are sound and
    complete, so the [Equivalent]/[Counterexample] status per fault is
    identical. The
    {e witness pattern} of a [Counterexample] may differ — persistent
    learnt clauses steer the search — but it always detects the fault.
    Within one session, answers are a deterministic function of the
    query sequence, which is what lets a fixed query plan produce
    bit-identical ATPG reports at any domain count. *)
module Stuck_at_session = struct
  type session = {
    env : env;
    circuit : Circuit.t;
    view : Circuit.view;  (* the circuit's topology, read once *)
    floor : int;  (* variable floor: everything >= floor is per-query scratch *)
    in_cone : bool array;  (* per-query cone scratch, cleared after each query *)
    in_support : bool array;  (* per-query support scratch, likewise *)
    support : int array;  (* the support's nodes, descending, in a prefix *)
    fvars : int array;  (* per-query faulty-copy variables, cone entries only *)
    outputs : int list;  (* output node ids, sorted, without duplicates *)
    mutable queries : int;
  }

  type t = session

  (* Every query starts from a fresh solver's decision heuristic: activity
     earned on a previous fault's cone is noise for the next and can blow
     up its conflict count by an order of magnitude, while the learnt
     clauses are kept. The reset is made here for the first query and by
     {!Solver.shrink_vars} at the end of each query for the next. *)
  let create ?solver circuit =
    let env = encode ?solver circuit in
    Array.iter (fun v -> Solver.set_decision env.solver v false) env.vars;
    Solver.reset_activity env.solver;
    let n = Circuit.node_count circuit in
    { env;
      circuit;
      view = Circuit.view circuit;
      floor = (Solver.stats env.solver).Solver.vars;
      in_cone = Array.make n false;
      in_support = Array.make n false;
      support = Array.make n 0;
      fvars = Array.make n (-1);
      outputs = List.sort_uniq Int.compare (Array.to_list (Circuit.output_ids circuit));
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

  (** One stuck-at query against the session: [Equivalent] when [node]
      stuck at [value] is undetectable, otherwise a detecting input
      assignment. The group is retired and its variables recycled
      before returning — also after an [Equiv_unknown], so a later retry
      (with a larger budget) re-encodes only the fault's cone while
      keeping every clean-circuit learnt clause. [on_stats] receives
      this query's solver-statistics delta. *)
  let query ?budget ?on_stats t ~node ~value =
    let circuit = t.circuit in
    let n = Circuit.node_count circuit in
    if node < 0 || node >= n then
      invalid_arg "Cnf.Stuck_at_session.query: node out of range";
    let in_cone = t.in_cone and fvars = t.fvars in
    mark_cone t.view ~node in_cone;
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
    if not (List.exists (fun o -> in_cone.(o)) t.outputs) then begin
      clear ();
      Equivalent
    end
    else begin
      let s = t.env.solver in
      let before = Solver.stats s in
      let support = mark_support t.view in_cone t.in_support t.support in
      for k = 0 to support - 1 do
        Solver.set_decision s t.env.vars.(t.support.(k)) true
      done;
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
          (* The miter goes under the activation literal too, so
             retirement erases the whole query. *)
          let hit = List.filter (fun o -> in_cone.(o)) t.outputs in
          let vars_of a = Array.of_list (List.map (fun o -> a.(o)) hit) in
          let any = differs s ~add (vars_of t.env.vars) (vars_of fvars) in
          add [ Solver.lit_of_var any ~sign:true ]);
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
      for k = 0 to support - 1 do
        let i = t.support.(k) in
        t.in_support.(i) <- false;
        Solver.set_decision s t.env.vars.(i) false
      done;
      Solver.retire_group s g;
      Solver.shrink_vars s t.floor;
      Option.iter (fun f -> f (stats_delta before after)) on_stats;
      clear ();
      answer
    end
end

(** Unbounded equivalence check of two combinational circuits with the
    same interface: [None] when equivalent, or a distinguishing input
    assignment. *)
let check_equivalence a b =
  let refuse msg =
    raise
      (Eda_util.Eda_error.Error
         (Eda_util.Eda_error.Invalid_input { what = "equivalence query"; msg }))
  in
  if Circuit.num_inputs a <> Circuit.num_inputs b
     || Circuit.num_outputs a <> Circuit.num_outputs b
  then
    refuse
      (Printf.sprintf "interface mismatch: %dx%d vs %dx%d inputs/outputs"
         (Circuit.num_inputs a) (Circuit.num_outputs a)
         (Circuit.num_inputs b) (Circuit.num_outputs b));
  (* Only the primary inputs are tied, so DFF outputs would float apart
     in the two copies and a register could tell a circuit from itself. *)
  let dffs = max (Circuit.num_dffs a) (Circuit.num_dffs b) in
  if dffs > 0 then
    refuse
      (Printf.sprintf "sequential circuit (%d DFFs); only combinational circuits are compared" dffs);
  let solver = Solver.create () in
  let add = Solver.add_clause solver in
  let env_a = encode ~solver a in
  let env_b = encode ~solver b in
  let vars env ids = Array.map (fun id -> env.vars.(id)) ids in
  Array.iter2 (tie ~add) (vars env_a (Circuit.inputs a)) (vars env_b (Circuit.inputs b));
  let any =
    differs solver ~add (vars env_a (Circuit.output_ids a)) (vars env_b (Circuit.output_ids b))
  in
  add [ Solver.lit_of_var any ~sign:true ];
  match Solver.solve solver with
  | Solver.Unsat -> None
  | Solver.Sat -> Some (Array.map (Solver.model_value solver) (vars env_a (Circuit.inputs a)))
  | Solver.Unknown _ -> assert false  (* unbudgeted solve cannot abstain *)

(** Satisfiability of a single-output circuit being true for some input. *)
let satisfiable_output circuit ~output =
  let env = encode circuit in
  let o = (Circuit.output_ids circuit).(output) in
  Solver.add_clause env.solver [ lit env ~node:o ~sign:true ];
  match Solver.solve env.solver with
  | Solver.Unsat | Solver.Unknown _ -> None
  | Solver.Sat ->
    Some (Array.map (fun i -> Solver.model_value env.solver env.vars.(i)) (Circuit.inputs circuit))
