(* Property-based suite: arithmetic oracles for the reference
   generators, seed determinism and lint cleanliness of every Bench_gen
   family, and differential checks of the hot engines against their
   reference implementations, including pooled-vs-sequential
   bit-identity at 1/2/8 domains.

   Every property runs through [Seeded.check] inside a named Alcotest
   case, on QCheck under the shared seed policy: PROPTEST_SEED when set,
   else 0xEDA. A failure prints the counterexample (shrunk, where its
   arbitrary shrinks) and the PROPTEST_SEED that replays it. *)

module Rng = Eda_util.Rng
module Pool = Eda_util.Pool
module Gen = Netlist.Generators
module BG = Netlist.Bench_gen
module Circuit = Netlist.Circuit
module Sim = Netlist.Sim
module Lint = Netlist.Lint
module Fault_sim_ref = Reference.Fault_sim_ref

(* QCheck's [int_range] shrinks toward 0, out of its own range; keep every
   shrink candidate inside [lo, hi]. *)
let int_range lo hi = QCheck.add_shrink_invariant (fun n -> lo <= n && n <= hi) (QCheck.int_range lo hi)

let contains text sub =
  let n = String.length text and m = String.length sub in
  let rec at i = i + m <= n && (String.sub text i m = sub || at (i + 1)) in
  at 0

(* --- the seed policy ---------------------------------------------------- *)

let test_seed_replays () =
  (* A property that fails on most cases, over a non-shrinking arbitrary:
     the reported case is the first failing draw, so the seed chooses it,
     and the same seed must report it again. *)
  let failure () =
    match
      Seeded.check ~name:"threshold"
        (Seeded.of_rng ~print:string_of_int (fun rng -> Rng.int rng 10_000))
        (fun n -> n < 500)
    with
    | () -> Alcotest.fail "property should fail"
    | exception Failure msg -> msg
  in
  let first = failure () in
  Alcotest.(check string) "same failing case" first (failure ());
  Alcotest.(check bool) "names the seed" true
    (contains first (Printf.sprintf "PROPTEST_SEED=%d" Seeded.seed))

let test_shrink_stays_in_range () =
  (* The failure needs only n >= 300: n shrinks to that boundary and the
     irrelevant component to its lower bound, never below either range. *)
  match
    Seeded.check ~name:"threshold pair" (QCheck.pair (int_range 64 800) (int_range 5 9))
      (fun (n, _) -> n < 300)
  with
  | () -> Alcotest.fail "property should fail"
  | exception Failure msg -> Alcotest.(check bool) msg true (contains msg "(300, 5)")

(* --- arithmetic oracles for the reference generators --------------------- *)

let bits_of_int ~width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

let eval_outputs c inputs = Sim.eval c inputs

let test_ripple_adder_oracle () =
  let arb =
    Seeded.of_rng
      ~print:(fun (w, a, b, cin) -> Printf.sprintf "w=%d a=%d b=%d cin=%b" w a b cin)
      (fun rng ->
        let w = 1 + Rng.int rng 16 in
        let a = Rng.int rng (1 lsl w) in
        let b = Rng.int rng (1 lsl w) in
        (w, a, b, Rng.bool rng))
  in
  Seeded.check ~name:"ripple_adder matches integer addition" arb
    (fun (w, a, b, cin) ->
      let c = Gen.ripple_adder w in
      let inputs =
        Array.concat
          [ bits_of_int ~width:w a; bits_of_int ~width:w b; [| cin |] ]
      in
      let outs = eval_outputs c inputs in
      (* outputs: s0..s(w-1), cout *)
      let got =
        Array.to_seq outs
        |> Seq.fold_lefti (fun acc i bit -> if bit then acc lor (1 lsl i) else acc) 0
      in
      got = a + b + Bool.to_int cin)

let test_comparator_oracle () =
  let arb =
    Seeded.of_rng
      ~print:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
      (fun rng ->
        let w = 1 + Rng.int rng 16 in
        let a = Rng.int rng (1 lsl w) in
        (* force equality half the time so both branches are exercised *)
        let b = if Rng.bool rng then a else Rng.int rng (1 lsl w) in
        (w, a, b))
  in
  Seeded.check ~name:"comparator matches integer equality" arb (fun (w, a, b) ->
      let c = Gen.comparator w in
      let inputs = Array.append (bits_of_int ~width:w a) (bits_of_int ~width:w b) in
      (eval_outputs c inputs).(0) = (a = b))

let test_parity_tree_oracle () =
  let arb =
    Seeded.of_rng
      ~print:(fun bits ->
        "0b" ^ String.concat "" (List.map (fun b -> if b then "1" else "0") bits))
      (fun rng ->
        let w = 1 + Rng.int rng 24 in
        List.init w (fun _ -> Rng.bool rng))
  in
  Seeded.check ~name:"parity_tree matches xor fold" arb (fun bits ->
      let c = Gen.parity_tree (List.length bits) in
      let expect = List.fold_left (fun acc b -> acc <> b) false bits in
      (eval_outputs c (Array.of_list bits)).(0) = expect)

(* --- Bench_gen: determinism and lint cleanliness ------------------------- *)

let family_arb =
  QCheck.oneofl ~print:BG.family_name BG.all_families

let test_generators_seed_deterministic () =
  let arb =
    QCheck.pair family_arb
      (QCheck.pair (int_range 0 1_000_000) (int_range 64 800))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  Seeded.check ~count:40 ~name:"same seed, same fingerprint"
    (QCheck.set_print show arb) (fun (fam, (seed, tgt)) ->
      let fp () = BG.fingerprint (BG.sized ~seed fam ~target_gates:tgt) in
      fp () = fp ())

let test_generators_lint_clean () =
  let arb =
    QCheck.pair family_arb
      (QCheck.pair (int_range 0 1_000_000) (int_range 64 800))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  Seeded.check ~count:40 ~name:"generated circuits lint clean"
    (QCheck.set_print show arb) (fun (fam, (seed, tgt)) ->
      let c = BG.sized ~seed fam ~target_gates:tgt in
      let issues = Lint.check c in
      List.for_all
        (fun i -> i.Lint.severity <> Lint.Error && i.Lint.check <> "dangling-net")
        issues)

let test_layered_params_lint_clean () =
  (* the raw layered entry point across its whole parameter space, not
     just the sized presets *)
  let arb =
    Seeded.of_rng
      ~print:(fun (seed, ins, layers, width, loc) ->
        Printf.sprintf "seed=%d inputs=%d layers=%d width=%d locality=%.2f"
          seed ins layers width loc)
      (fun rng ->
        ( Rng.int rng 100_000,
          1 + Rng.int rng 32,
          1 + Rng.int rng 12,
          1 + Rng.int rng 64,
          Rng.float rng ))
  in
  Seeded.check ~count:40 ~name:"layered lint clean at any params" arb
    (fun (seed, inputs, layers, width, locality) ->
      let c = BG.layered ~seed ~locality ~inputs ~layers ~width () in
      let issues = Lint.check c in
      List.for_all
        (fun i -> i.Lint.severity <> Lint.Error && i.Lint.check <> "dangling-net")
        issues)

let test_sized_hits_target () =
  let arb =
    QCheck.pair family_arb (QCheck.pair (int_range 0 1000) (int_range 400 4000))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  Seeded.check ~count:25 ~name:"sized lands within 40% of target"
    (QCheck.set_print show arb) (fun (fam, (seed, tgt)) ->
      let n = Circuit.node_count (BG.sized ~seed fam ~target_gates:tgt) in
      let ratio = Float.of_int n /. Float.of_int tgt in
      ratio > 0.6 && ratio < 1.4)

let test_multiplier_families_agree () =
  (* c6288_like (array grid) and csa_multiplier (Wallace tree) compute
     the same product *)
  let arb =
    Seeded.of_rng
      ~print:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b)
      (fun rng ->
        let w = 2 + Rng.int rng 5 in
        (w, Rng.int rng (1 lsl w), Rng.int rng (1 lsl w)))
  in
  Seeded.check ~count:60 ~name:"array and CSA multipliers agree" arb
    (fun (w, a, b) ->
      let inputs = Array.append (bits_of_int ~width:w a) (bits_of_int ~width:w b) in
      let product c =
        let outs = Circuit.outputs c in
        let vals = Sim.eval c inputs in
        (* sum named product bits m<i>; skip po_obs-style extras *)
        Array.to_seq outs
        |> Seq.fold_lefti
             (fun acc k (name, _) ->
               if String.length name > 1 && name.[0] = 'm' then
                 match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
                 | Some i when vals.(k) -> acc + (1 lsl i)
                 | _ -> acc
               else acc)
             0
      in
      let pa = product (BG.c6288_like ~width:w ()) in
      let pc = product (BG.csa_multiplier ~width:w ()) in
      pa = a * b && pc = a * b)

(* --- differential: hot engines vs references ----------------------------- *)

let cnf_arb =
  Seeded.of_rng
    ~print:(fun (nvars, clauses) ->
      Printf.sprintf "%d vars, %d clauses" nvars (List.length clauses))
    (fun rng ->
      let nvars = 3 + Rng.int rng 25 in
      let nclauses = 2 + Rng.int rng (4 * nvars) in
      let clause () =
        let len = 1 + Rng.int rng 3 in
        List.init len (fun _ -> (Rng.int rng nvars, Rng.bool rng))
      in
      (nvars, List.init nclauses (fun _ -> clause ())))

let test_sat_differential () =
  Seeded.check ~count:120 ~name:"arrays solver agrees with reference CDCL"
    cnf_arb (fun (nvars, clauses) ->
      let open Sat in
      let module Solver_ref = Reference.Solver_ref in
      let satisfies model =
        List.for_all
          (List.exists (fun (v, sign) -> model v = sign))
          clauses
      in
      (* add_clause may raise Unsat_root on a level-0 conflict — that is
         a documented Unsat verdict, not an error *)
      let run_new () =
        let s = Solver.create () in
        ignore (Solver.new_vars s nvars);
        match
          List.iter
            (fun cl ->
              Solver.add_clause s
                (List.map (fun (v, sign) -> Solver.lit_of_var v ~sign) cl))
            clauses
        with
        | () ->
          (match Solver.solve s with
           | Solver.Sat -> `Sat (Solver.model_value s)
           | Solver.Unsat -> `Unsat
           | Solver.Unknown _ -> `Unknown)
        | exception Solver.Unsat_root -> `Unsat
      in
      let run_ref () =
        let sref = Solver_ref.create () in
        match
          List.iter
            (fun cl ->
              Solver_ref.add_clause sref
                (List.map (fun (v, sign) -> Solver_ref.lit_of_var v ~sign) cl))
            clauses
        with
        | () ->
          (match Solver_ref.solve sref with
           | Solver_ref.Sat -> `Sat (Solver_ref.model_value sref)
           | Solver_ref.Unsat -> `Unsat
           | Solver_ref.Unknown _ -> `Unknown)
        | exception Solver_ref.Unsat_root -> `Unsat
      in
      match (run_new (), run_ref ()) with
      | `Sat m, `Sat mref -> satisfies m && satisfies mref
      | `Unsat, `Unsat -> true
      | _ -> false)

(* The decision heap against the linear scan it replaced. A random
   sequence of solver-shaped operations drives [Sat.Var_heap] the way
   [Sat.Solver] does: variables are assigned without leaving the heap,
   re-inserted when unassigned, bumped by increments from a small set (so
   ties are common), and rescaled by 1e-100 as the solver does past 1e100
   — which rounds the tiniest activities to zero, merging them into ties
   the index order must break. Every pick must equal the scan's. *)
type heap_op =
  | New_var
  | Bump of int * int  (* variable (modulo the count), increment index *)
  | Rescale
  | Assign of int
  | Backtrack of int  (* unassign this many of the latest assignments *)
  | Rebuild
  | Pick

let show_heap_op = function
  | New_var -> "new"
  | Bump (v, k) -> Printf.sprintf "bump %d by #%d" v k
  | Rescale -> "rescale"
  | Assign v -> Printf.sprintf "assign %d" v
  | Backtrack k -> Printf.sprintf "backtrack %d" k
  | Rebuild -> "rebuild"
  | Pick -> "pick"

let increments = [| 1e-230; 2e-230; 1.0; 2.0; 1e99 |]

let heap_op_arb =
  Seeded.of_rng ~print:show_heap_op (fun rng ->
      match Rng.int rng 16 with
      | 0 -> New_var
      | 1 | 2 | 3 | 4 -> Bump (Rng.int rng 64, Rng.int rng (Array.length increments))
      | 5 -> Rescale
      | 6 | 7 -> Assign (Rng.int rng 64)
      | 8 | 9 -> Backtrack (Rng.int rng 6)
      | 10 -> Rebuild
      | _ -> Pick)

(* The scan the heap replaced: the first unassigned variable of highest
   activity, or -1. *)
let scan_pick act assigned n =
  let best = ref (-1) in
  for v = 0 to n - 1 do
    if (not assigned.(v)) && (!best < 0 || act.(v) > act.(!best)) then best := v
  done;
  !best

let test_var_heap_vs_scan () =
  let module H = Sat.Var_heap in
  let cap = 64 in
  Seeded.check ~count:1000 ~name:"decision heap picks what the scan picks"
    (QCheck.pair (int_range 1 16) (QCheck.list_of_size (QCheck.Gen.int_range 0 300) heap_op_arb))
    (fun (n0, ops) ->
      let act = Array.make cap 0.0 and assigned = Array.make cap false in
      let h = H.create () in
      H.reserve h cap;
      let n = ref 0 and trail = ref [] in
      let new_var () =
        H.insert h act !n;
        incr n
      in
      for _ = 1 to n0 do
        new_var ()
      done;
      let assign v =
        assigned.(v) <- true;
        trail := v :: !trail
      in
      let rec backtrack k =
        match !trail with
        | v :: rest when k > 0 ->
          assigned.(v) <- false;
          trail := rest;
          H.insert h act v;
          backtrack (k - 1)
        | _ -> ()
      in
      let rebuild () = H.rebuild h act ~n:!n (fun v -> not assigned.(v)) in
      let rec pick () =
        let v = H.pop h act in
        if v >= 0 && assigned.(v) then pick () else v
      in
      List.for_all
        (function
          | New_var ->
            if !n < cap then new_var ();
            true
          | Bump (v, k) ->
            let v = v mod !n in
            act.(v) <- act.(v) +. increments.(k);
            H.increase h act v;
            true
          | Rescale ->
            for v = 0 to !n - 1 do
              act.(v) <- act.(v) *. 1e-100
            done;
            rebuild ();
            true
          | Assign v ->
            let v = v mod !n in
            if not assigned.(v) then assign v;
            true
          | Backtrack k ->
            backtrack k;
            true
          | Rebuild ->
            rebuild ();
            true
          | Pick ->
            let expect = scan_pick act assigned !n in
            let got = pick () in
            if got >= 0 then assign got;
            got = expect)
        ops)

(* A growing instance solved under assumptions after every batch: the
   incremental shape of the SAT attack's DIP loop and of ATPG sessions. *)
let incremental_arb =
  Seeded.of_rng
    ~print:(fun (nvars, batches) ->
      Printf.sprintf "%d vars, batches of %s clauses" nvars
        (String.concat "/"
           (List.map (fun (cls, _) -> string_of_int (List.length cls)) batches)))
    (fun rng ->
      let nvars = 3 + Rng.int rng 25 in
      let lit () = (Rng.int rng nvars, Rng.bool rng) in
      let batch () =
        let clause () = List.init (1 + Rng.int rng 3) (fun _ -> lit ()) in
        ( List.init (1 + Rng.int rng nvars) (fun _ -> clause ()),
          List.init (Rng.int rng 4) (fun _ -> lit ()) )
      in
      (nvars, List.init (3 + Rng.int rng 3) (fun _ -> batch ())))

let test_sat_incremental_differential () =
  let open Sat in
  let module Solver_ref = Reference.Solver_ref in
  let holds model = List.for_all (fun (v, sign) -> model v = sign) in
  let satisfies model = List.for_all (List.exists (fun (v, sign) -> model v = sign)) in
  (* Feed the batches to one solver, solving after each. [add] is false
     once a clause is refuted at the root: the instance is then Unsat for
     good and the solver is not used again. A Sat model is checked on the
     spot, before the next batch can change it. *)
  let drive ~add ~solve batches =
    let dead = ref false and so_far = ref [] in
    List.map
      (fun (clauses, assumptions) ->
        so_far := clauses @ !so_far;
        if not !dead then dead := not (List.for_all add clauses);
        if !dead then `Unsat
        else
          match solve assumptions with
          | `Sat model ->
            if satisfies model !so_far && holds model assumptions then `Sat else `Bad_model
          | (`Unsat | `Unknown) as v -> v)
      batches
  in
  let array_solver nvars =
    let s = Solver.create () in
    ignore (Solver.new_vars s nvars);
    let lits = List.map (fun (v, sign) -> Solver.lit_of_var v ~sign) in
    ( (fun cl ->
        match Solver.add_clause s (lits cl) with
        | () -> true
        | exception Solver.Unsat_root -> false),
      fun a ->
        match Solver.solve ~assumptions:(lits a) s with
        | Solver.Sat -> `Sat (Solver.model_value s)
        | Solver.Unsat -> `Unsat
        | Solver.Unknown _ -> `Unknown )
  in
  let ref_solver nvars =
    let r = Solver_ref.create () in
    for _ = 1 to nvars do
      ignore (Solver_ref.new_var r)
    done;
    let lits = List.map (fun (v, sign) -> Solver_ref.lit_of_var v ~sign) in
    ( (fun cl ->
        match Solver_ref.add_clause r (lits cl) with
        | () -> true
        | exception Solver_ref.Unsat_root -> false),
      fun a ->
        match Solver_ref.solve ~assumptions:(lits a) r with
        | Solver_ref.Sat -> `Sat (Solver_ref.model_value r)
        | Solver_ref.Unsat -> `Unsat
        | Solver_ref.Unknown _ -> `Unknown )
  in
  (* Ground truth that shares no assumption handling with either side: a
     fresh reference solver given the clauses so far plus each assumption
     as a unit clause, solved without assumptions. *)
  let truth nvars batches =
    let so_far = ref [] in
    List.map
      (fun (clauses, assumptions) ->
        so_far := clauses @ !so_far;
        let add, solve = ref_solver nvars in
        let units = List.map (fun l -> [ l ]) assumptions in
        List.hd (drive ~add ~solve [ (units @ !so_far, []) ]))
      batches
  in
  let seen_sat = ref 0 and seen_unsat = ref 0 in
  Seeded.check ~count:2000 ~name:"incremental solving under assumptions agrees with reference"
    incremental_arb (fun (nvars, batches) ->
      let run (add, solve) = drive ~add ~solve batches in
      let got = run (array_solver nvars) and expect = run (ref_solver nvars) in
      List.iter
        (function `Sat -> incr seen_sat | `Unsat -> incr seen_unsat | _ -> ())
        expect;
      got = expect && got = truth nvars batches
      && List.for_all (fun v -> v = `Sat || v = `Unsat) got);
  (* Both verdicts must occur, or the property says nothing about one. *)
  Alcotest.(check bool)
    (Printf.sprintf "both verdicts seen (%d Sat, %d Unsat)" !seen_sat !seen_unsat)
    true
    (!seen_sat > 0 && !seen_unsat > 0)

let test_word_sim_differential () =
  (* 63 patterns per case: lane j of the word simulation must equal the
     reference bool sweep of pattern j, on a fresh random circuit drawn
     from every combinational cell kind. *)
  let arb =
    Seeded.of_rng
      ~print:(fun (seed, pat_seed) -> Printf.sprintf "seed=%d patterns=%d" seed pat_seed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  Seeded.check ~count:25 ~name:"word-parallel sim matches naive eval" arb
    (fun (seed, pat_seed) ->
      let kinds =
        Netlist.Gate.[ Buf; Not; And; Nand; Or; Nor; Xor; Xnor; Mux; Const false; Const true ]
      in
      let c = BG.layered ~seed ~kinds ~inputs:12 ~layers:4 ~width:24 () in
      let ni = Circuit.num_inputs c in
      let rng = Rng.create pat_seed in
      let words = Array.init ni (fun _ -> Rng.bits63 rng) in
      let values = Sim.eval_all_word c words in
      let word_out = Array.map (fun o -> values.(o)) (Circuit.output_ids c) in
      let ok = ref true in
      for lane = 0 to 62 do
        let bools = Array.map (fun w -> (w lsr lane) land 1 = 1) words in
        let bool_out = Reference.Sim_ref.eval c bools in
        Array.iteri
          (fun k w ->
            if ((w lsr lane) land 1 = 1) <> bool_out.(k) then ok := false)
          word_out
      done;
      !ok)

(* The support of a stuck-at query, from node reads: the fan-in closure
   of the fault's fanout cone, both cut at DFFs. *)
let query_support c node =
  let n = Circuit.node_count c in
  let is_dff i = Circuit.kind c i = Netlist.Gate.Dff in
  let in_cone = Array.make n false in
  in_cone.(node) <- true;
  for i = node + 1 to n - 1 do
    if (not (is_dff i)) && Array.exists (fun f -> in_cone.(f)) (Circuit.fanins c i) then
      in_cone.(i) <- true
  done;
  let support = Array.make n false in
  let rec visit i =
    if not support.(i) then begin
      support.(i) <- true;
      if not (is_dff i) then Array.iter visit (Circuit.fanins c i)
    end
  in
  Array.iteri (fun i b -> if b then visit i) in_cone;
  support

let test_session_vs_fresh () =
  (* One persistent Stuck_at_session must answer every query exactly like a
     fresh whole-copy solver (Reference.Stuck_at_ref): same
     Equivalent/Counterexample status. The session branches only on the
     query's support, so each witness must detect the fault under the
     reference fault simulator and hold 0 on every primary input outside
     the support. *)
  let arb =
    Seeded.of_rng
      ~print:(fun (seed, fseed) -> Printf.sprintf "circuit=%d faults=%d" seed fseed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  Seeded.check ~count:20 ~name:"incremental session matches fresh check_stuck_at" arb
    (fun (seed, fseed) ->
      let c = BG.layered ~seed ~inputs:8 ~layers:4 ~width:12 () in
      let faults = Array.of_list (Fault.Model.all_stuck_at_faults c) in
      Rng.shuffle (Rng.create fseed) faults;
      let n = min 25 (Array.length faults) in
      let session = Sat.Cnf.Stuck_at_session.create c in
      let ok = ref true in
      for i = 0 to n - 1 do
        match faults.(i) with
        | Fault.Model.Bit_flip _ -> ()
        | Fault.Model.Stuck_at { node; value } as f ->
          let fresh = Reference.Stuck_at_ref.check_stuck_at c ~node ~value in
          let inc = Sat.Cnf.Stuck_at_session.query session ~node ~value in
          (match (fresh, inc) with
           | Sat.Cnf.Equivalent, Sat.Cnf.Equivalent -> ()
           | Sat.Cnf.Counterexample _, Sat.Cnf.Counterexample w ->
             (* The witness pattern may legitimately differ between the two
                solvers, but it must detect the fault either way. *)
             let support = query_support c node in
             if not (Fault_sim_ref.detects c ~fault:f w) then ok := false;
             Array.iteri
               (fun k id -> if w.(k) && not support.(id) then ok := false)
               (Circuit.inputs c)
           | _ -> ok := false)
      done;
      !ok)

let test_session_budget_resume () =
  (* A zero-step budget forces Equiv_unknown on every query whose solve
     needs at least one conflict. The session must survive the abandoned
     query: an unbudgeted retry of the same fault — and every later query —
     must still match a fresh solver. *)
  let c = BG.layered ~seed:47 ~inputs:8 ~layers:5 ~width:14 () in
  let faults = Array.of_list (Fault.Model.all_stuck_at_faults c) in
  Rng.shuffle (Rng.create 48) faults;
  let session = Sat.Cnf.Stuck_at_session.create c in
  let checked = ref 0 and unknowns = ref 0 in
  Array.iter
    (fun f ->
      if !checked < 12 then
        match f with
        | Fault.Model.Bit_flip _ -> ()
        | Fault.Model.Stuck_at { node; value } ->
          incr checked;
          let b = Eda_util.Budget.create ~steps:0 () in
          (match Sat.Cnf.Stuck_at_session.query ~budget:b session ~node ~value with
           | Sat.Cnf.Equiv_unknown _ -> incr unknowns
           | Sat.Cnf.Equivalent | Sat.Cnf.Counterexample _ -> ());
          let retry = Sat.Cnf.Stuck_at_session.query session ~node ~value in
          (match (Reference.Stuck_at_ref.check_stuck_at c ~node ~value, retry) with
           | Sat.Cnf.Equivalent, Sat.Cnf.Equivalent -> ()
           | Sat.Cnf.Counterexample _, Sat.Cnf.Counterexample w ->
             Alcotest.(check bool) "retry witness detects" true
               (Fault.Model.detects c ~fault:f w)
           | _ -> Alcotest.fail "post-Unknown session answer diverged from fresh"))
    faults;
  Alcotest.(check bool) "at least one query hit the budget" true (!unknowns > 0)

let test_atpg_ground_truth () =
  (* Unbudgeted campaigns checked against independent ground truth: the
     pattern set's coverage under the scalar fault-simulation oracle
     (Reference.Fault_sim_ref) is exactly the reported coverage, the
     engine's batched fault simulation agrees with the oracle fault by
     fault,
     every reported untestable fault is re-proven by a fresh whole-copy
     solver (Reference.Stuck_at_ref, which shares nothing with the
     session under test), and detected plus untestable accounts for every
     fault. *)
  let untestable_seen = ref 0 in
  let arb =
    QCheck.pair family_arb (QCheck.pair (int_range 0 1_000_000) (int_range 24 160))
  in
  let show (fam, (seed, tgt)) =
    Printf.sprintf "%s seed=%d target=%d" (BG.family_name fam) seed tgt
  in
  Seeded.check ~count:30 ~name:"ATPG report matches fault simulation and fresh proofs"
    (QCheck.set_print show arb)
    (fun (fam, (seed, tgt)) ->
      let c = BG.sized ~seed fam ~target_gates:tgt in
      let faults = Fault.Model.all_stuck_at_faults c in
      let r = Dft.Atpg.run c in
      let patterns = r.Dft.Atpg.patterns in
      let simulated = Fault_sim_ref.fault_simulation c ~faults ~patterns in
      let detected = List.length (List.filter snd simulated) in
      let untestable = r.Dft.Atpg.untestable in
      untestable_seen := !untestable_seen + List.length untestable;
      r.Dft.Atpg.exhausted = None
      && Int64.bits_of_float r.Dft.Atpg.coverage
         = Int64.bits_of_float (Fault_sim_ref.coverage c ~faults ~patterns)
      && Fault.Model.fault_simulation c ~faults ~patterns = simulated
      && List.for_all
           (function
             | Fault.Model.Stuck_at { node; value } ->
               Reference.Stuck_at_ref.check_stuck_at c ~node ~value = Sat.Cnf.Equivalent
             | Fault.Model.Bit_flip _ -> false)
           untestable
      && detected + List.length untestable = r.Dft.Atpg.faults_total);
  Alcotest.(check bool) "some campaign reported untestable faults" true (!untestable_seen > 0)

let test_detects_many_differential () =
  (* Every lane of the word sweep must agree with the scalar oracle
     (Reference.Fault_sim_ref.detects), and reusing the scratch must not
     leak state between calls. *)
  let arb =
    Seeded.of_rng
      ~print:(fun (seed, pseed) -> Printf.sprintf "circuit=%d pattern=%d" seed pseed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  Seeded.check ~count:25 ~name:"word-parallel fault drop matches scalar detects" arb
    (fun (seed, pseed) ->
      let c = BG.layered ~seed ~inputs:10 ~layers:4 ~width:16 () in
      let rng = Rng.create pseed in
      let all = Array.of_list (Fault.Model.all_stuck_at_faults c) in
      Rng.shuffle rng all;
      let nf = min Fault.Model.lanes (Array.length all) in
      let faults = Array.sub all 0 nf in
      if nf > 2 then
        faults.(1) <- Fault.Model.Bit_flip { node = Fault.Model.node_of faults.(1) };
      let pattern = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
      let w = Fault.Model.wsim_create c in
      let mask = Fault.Model.detects_many w c ~faults ~pos:0 ~len:nf pattern in
      (* The same faults as a slice at an offset of a longer array. *)
      let padded = Array.append all faults in
      let again =
        Fault.Model.detects_many w c ~faults:padded ~pos:(Array.length all) ~len:nf pattern
      in
      let lanes_agree = ref true in
      Array.iteri
        (fun k f ->
          if (mask lsr k) land 1 = 1 <> Fault_sim_ref.detects c ~fault:f pattern then
            lanes_agree := false)
        faults;
      mask = again && !lanes_agree)

let test_psim_differential () =
  (* Every lane of the pattern-parallel engine against the scalar oracle
     (Reference.Fault_sim_ref.detects): both stuck-at polarities and a
     bit-flip at every net, constants and DFF outputs included, on
     circuits drawn with every combinational kind and with DFFs, for a
     full word of 63 patterns and then a partial one on the same
     scratch. The pattern-set queries built on it must match the
     oracle's fault by fault. *)
  let arb =
    Seeded.of_rng
      ~print:(fun (seed, pseed) -> Printf.sprintf "circuit=%d patterns=%d" seed pseed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  Seeded.check ~count:20 ~name:"pattern-parallel lanes match scalar detects" arb
    (fun (seed, pseed) ->
      let c = All_kinds.circuit ~dffs:3 ~seed ~inputs:6 ~gates:40 ~outputs:3 () in
      let rng = Rng.create pseed in
      let ni = Circuit.num_inputs c in
      let faults =
        List.concat
          (List.init (Circuit.node_count c) (fun node ->
               [ Fault.Model.Stuck_at { node; value = false };
                 Fault.Model.Stuck_at { node; value = true };
                 Fault.Model.Bit_flip { node } ]))
      in
      let p = Fault.Model.psim_create c in
      let word_agrees count =
        let pats = List.init count (fun _ -> Array.init ni (fun _ -> Rng.bool rng)) in
        let inputs = Array.make ni 0 in
        List.iteri
          (fun j pat ->
            Array.iteri (fun k b -> if b then inputs.(k) <- inputs.(k) lor (1 lsl j)) pat)
          pats;
        Fault.Model.simulate_word p inputs ~patterns:count;
        List.for_all
          (fun f ->
            let lanes = Fault.Model.detecting_lanes p f in
            let expected =
              List.fold_left
                (fun (m, j) pat ->
                  ((if Fault_sim_ref.detects c ~fault:f pat then m lor (1 lsl j) else m), j + 1))
                (0, 0) pats
            in
            lanes = fst expected)
          faults
        && Fault.Model.fault_simulation c ~faults ~patterns:pats
           = Fault_sim_ref.fault_simulation c ~faults ~patterns:pats
      in
      word_agrees 63 && word_agrees 17)

(* Today's scalar classification, the oracle for the lane classifier
   of [Fault.Countermeasure]: a fault-free [Sim.eval] beside
   [Fault_sim_ref.eval_faulty]. Detected: the alarm rises; corrupted
   undetected: no alarm rose, but a data output differs. *)
let classify_oracle (prot : Fault.Countermeasure.protected_circuit) ~fault pattern =
  let c = prot.circuit in
  let outs = Circuit.outputs c in
  let pos nm = Option.get (Array.find_index (fun (o, _) -> o = nm) outs) in
  let golden = Sim.eval c pattern in
  let faulty = Fault_sim_ref.eval_faulty c ~faults:[ fault ] pattern in
  let alarm = pos prot.alarm_output in
  if faulty.(alarm) && not golden.(alarm) then Fault.Countermeasure.Detected
  else if List.exists (fun nm -> golden.(pos nm) <> faulty.(pos nm)) prot.data_outputs then
    Fault.Countermeasure.Corrupted_undetected
  else Fault.Countermeasure.Silent

let test_classify_differential () =
  (* [classify] outcomes and [validate] counts against the scalar oracle:
     random Bench_gen circuits under all three protections, and bare
     records naming an arbitrary output as the alarm (its fault-free value
     can read 1, so only a rising alarm may count), over more than one
     sweep's worth of stuck-at and bit-flip faults. *)
  let module Cm = Fault.Countermeasure in
  let arb =
    Seeded.of_rng
      ~print:(fun (seed, fseed) -> Printf.sprintf "circuit=%d faults=%d" seed fseed)
      (fun rng -> (Rng.int rng 1_000_000, Rng.int rng 1_000_000))
  in
  Seeded.check ~count:20 ~name:"lane classifier matches the scalar classification" arb
    (fun (seed, fseed) ->
      let c =
        BG.layered ~seed ~inputs:(3 + (seed mod 5)) ~layers:(2 + (seed mod 3))
          ~width:(4 + (seed mod 6)) ~outputs:(2 + (seed mod 3)) ()
      in
      let rng = Rng.create fseed in
      let names = Array.to_list (Array.map fst (Circuit.outputs c)) in
      let alarm = List.nth names (Rng.int rng (List.length names)) in
      let bare =
        { Cm.circuit = Circuit.copy c;
          data_outputs = List.filter (( <> ) alarm) names;
          alarm_output = alarm }
      in
      let protections =
        [ Cm.parity_protect c; Cm.duplicate_protect c; Cm.infective_protect c; bare ]
      in
      List.for_all
        (fun (prot : Cm.protected_circuit) ->
          let pc = prot.circuit in
          (* Drawn with replacement, so a node can carry both polarities
             and a flip in different lanes of one sweep. *)
          let faults =
            List.init (Fault.Model.lanes + 1 + Rng.int rng 100) (fun _ ->
                let node = Rng.int rng (Circuit.node_count pc) in
                match Rng.int rng 3 with
                | 0 -> Fault.Model.Bit_flip { node }
                | v -> Fault.Model.Stuck_at { node; value = v = 2 })
          in
          let patterns = 1 + Rng.int rng 6 in
          let vseed = Rng.int rng 1_000_000 in
          (* The oracle campaign draws the same patterns as [validate]. *)
          let pats =
            let r = Rng.create vseed in
            List.init patterns (fun _ ->
                Array.init (Circuit.num_inputs pc) (fun _ -> Rng.bool r))
          in
          let worst fault =
            List.fold_left
              (fun acc p ->
                match acc, classify_oracle prot ~fault p with
                | Cm.Corrupted_undetected, _ | _, Cm.Corrupted_undetected ->
                  Cm.Corrupted_undetected
                | Cm.Detected, _ | _, Cm.Detected -> Cm.Detected
                | Cm.Silent, Cm.Silent -> Cm.Silent)
              Cm.Silent pats
          in
          let count o = List.length (List.filter (fun f -> worst f = o) faults) in
          let expected = (count Cm.Detected, count Cm.Corrupted_undetected, count Cm.Silent) in
          Cm.validate (Rng.create vseed) prot ~faults ~patterns = expected
          && List.for_all
               (fun fault ->
                 let p = List.hd pats in
                 Cm.classify prot ~fault p = classify_oracle prot ~fault p)
               faults)
        protections)

(* --- the resolved circuit view vs an independent derivation --------------- *)

(* Kinds and fanins read node by node, and the CSR against the consumer
   lists of [Reference.Fanout_ref], order included. *)
let view_matches c =
  let v = Circuit.view c and n = Circuit.node_count c in
  let start = v.Circuit.fanout_start and consumers = Reference.Fanout_ref.consumers c in
  let csr_list i = Array.to_list (Array.sub v.Circuit.fanout start.(i) (start.(i + 1) - start.(i))) in
  Array.length v.Circuit.kinds = n
  && Array.length v.Circuit.fanin = n
  && Array.length start = n + 1
  && start.(0) = 0
  && start.(n) = Array.length v.Circuit.fanout
  && List.for_all
       (fun i ->
         v.Circuit.kinds.(i) = Circuit.kind c i
         && v.Circuit.fanin.(i) = Circuit.fanins c i
         && csr_list i = consumers.(i))
       (List.init n Fun.id)

let test_view_differential () =
  (* A DFF reading back through its own cone (q = DFF(d), a = NAND(x, q),
     d = XOR(a, w)), whose D-input points forward. *)
  let feedback =
    Netlist.Io.of_string
      "INPUT(x)\nINPUT(w)\nOUTPUT(a)\nOUTPUT(q)\nq = DFF(d)\na = NAND(x, q)\nd = XOR(a, w)\n"
  in
  Alcotest.(check bool) "DFF feedback" true (view_matches feedback);
  (* A gate reading one net on two pins is listed once per pin. *)
  let c = Circuit.create () in
  let x = Circuit.add_input ~name:"x" c in
  let y = Circuit.add_gate ~name:"y" c Netlist.Gate.And [ x; x ] in
  let z = Circuit.add_gate ~name:"z" c Netlist.Gate.Xor [ y; x ] in
  Circuit.set_output c "z" z;
  let v = Circuit.view c in
  Alcotest.(check (list int)) "consumers of x" [ z; y; y ]
    (Array.to_list (Array.sub v.Circuit.fanout 0 v.Circuit.fanout_start.(1)));
  Alcotest.(check bool) "two pins on one net" true (view_matches c);
  let arb = QCheck.pair family_arb (QCheck.pair (int_range 0 100_000) (int_range 16 600)) in
  let show (fam, (seed, size)) = Printf.sprintf "%s seed=%d size=%d" (BG.family_name fam) seed size in
  Seeded.check ~count:40 ~name:"circuit view matches node reads and consumer lists"
    (QCheck.set_print show arb) (fun (fam, (seed, size)) ->
      view_matches (BG.sized ~seed fam ~target_gates:size))

(* --- the one-scan reader vs the list pipeline ----------------------------- *)

(* A netlist text to mutate: a Bench_gen circuit of any family, maybe
   with region pragmas and an output port aliasing an internal net (so
   [Io.to_string] writes [port = BUF(net)]), or a DFF-feedback circuit
   whose two D-inputs both point forward. *)
let reader_base rng =
  if Rng.int rng 8 = 0 then
    "INPUT(x)\nINPUT(w)\nOUTPUT(a)\nOUTPUT(q)\nq = DFF(d)\nr = DFF(e)\na = NAND(x, q)\n\
     d = XOR(a, r)\ne = NOT(d)\n"
  else begin
    let fam = Rng.choose rng BG.all_families in
    let c = BG.sized ~seed:(Rng.int rng 100_000) fam ~target_gates:(16 + Rng.int rng 100) in
    let n = Circuit.node_count c in
    for k = 0 to Rng.int rng 3 - 1 do
      Circuit.annotate_region c ~region:(Printf.sprintf "r%d" k)
        (List.filter (fun _ -> Rng.int rng 4 = 0) (List.init n Fun.id))
    done;
    if Rng.bool rng then begin
      (* A port named after no net, or after another gate's net (then
         written under a fresh name); never after an input. *)
      let gate () = Circuit.num_inputs c + Rng.int rng (n - Circuit.num_inputs c) in
      let port = if Rng.bool rng then "alias" else Circuit.name c (gate ()) in
      Circuit.set_output c port (gate ())
    end;
    Netlist.Io.to_string c
  end

let lines_of text = Array.of_list (String.split_on_char '\n' text)
let of_lines lines = String.concat "\n" (Array.to_list lines)

(* One mutation: a byte edit, a truncation, a case change, CRLF endings,
   a tab, a trailing comment, a region pragma, a duplicated or two
   swapped lines. *)
let mutate_netlist rng text =
  let n = String.length text in
  let lines = lines_of text in
  let line () = Rng.int rng (Array.length lines) in
  let bytes = "()=,#:\t\r\n abxyINPUTOUTPUTDFFAND019" in
  match Rng.int rng 9 with
  | 0 when n > 0 ->
    let b = Bytes.of_string text in
    Bytes.set b (Rng.int rng n)
      (if Rng.bool rng then bytes.[Rng.int rng (String.length bytes)]
       else Char.chr (Rng.int rng 256));
    Bytes.to_string b
  | 1 -> String.sub text 0 (Rng.int rng (n + 1))
  | 2 ->
    let k = line () in
    let case = if Rng.bool rng then String.uppercase_ascii else String.lowercase_ascii in
    lines.(k) <- case lines.(k);
    of_lines lines
  | 3 -> String.concat "\r\n" (String.split_on_char '\n' text)
  | 4 when n > 0 ->
    let i = Rng.int rng n in
    if text.[i] = ' ' then String.mapi (fun j ch -> if j = i then '\t' else ch) text
    else String.sub text 0 i ^ "\t" ^ String.sub text i (n - i)
  | 5 ->
    let k = line () in
    lines.(k) <-
      lines.(k) ^ Rng.choose rng [ " # note"; "# x = AND(a, b)"; "\t#)"; " # region r : a" ];
    of_lines lines
  | 6 ->
    let k = line () in
    let words = List.filter (( <> ) "") (String.split_on_char ' ' lines.(line ())) in
    let word () = if words = [] then "w" else Rng.choose rng words in
    lines.(k) <-
      Rng.choose rng
        [ Printf.sprintf "# region %s : %s %s" (word ()) (word ()) (word ());
          Printf.sprintf "#region\t%s :\t%s" (word ()) (word ());
          "# region r : no_such_net"; "# region r :"; "# region : :" ]
      ^ "\n" ^ lines.(k);
    of_lines lines
  | 7 ->
    let k = line () in
    lines.(k) <- lines.(k) ^ "\n" ^ lines.(k);
    of_lines lines
  | _ ->
    let i = line () and j = line () in
    let t = lines.(i) in
    lines.(i) <- lines.(j);
    lines.(j) <- t;
    of_lines lines

(* What a reader made of a text: the printed circuit, or the error. *)
let read_outcome = function
  | Ok c ->
    Ok
      (match Netlist.Io.to_string c with
       | s -> s
       | exception Invalid_argument m -> "unprintable: " ^ m)
  | Error e -> Error e

let show_outcome = function
  | Ok s -> "circuit\n" ^ s
  | Error e -> Eda_util.Eda_error.to_string e

let test_reader_differential () =
  let accepted = ref 0 and rejected = ref 0 in
  (* Both readers' outcome on [text], or the report of a mismatch. *)
  let compare_readers text =
    let got = read_outcome (Netlist.Io.of_string_result text)
    and want = read_outcome (Reference.Io_ref.of_string_result text) in
    incr (match got with Ok _ -> accepted | Error _ -> rejected);
    if got = want then None
    else
      Some
        (Printf.sprintf "on:\n%s\nreader: %s\nlist pipeline: %s" text (show_outcome got)
           (show_outcome want))
  in
  (* The edge cases, one per text: an empty input name, an unchecked
     last byte, an empty left-hand side, an input declared as a gate, a
     ')' only before the '(', lower-case cells, a CRLF region pragma,
     text after the ')', an empty operand, DFFs of the wrong arity, an
     empty output name. *)
  List.iter
    (fun text -> Option.iter Alcotest.fail (compare_readers text))
    [ ""; "\n"; "INPUT()\nOUTPUT(n0)\n"; "INPUT(ab\nOUTPUT(a)\n"; "INPUT(a)\n= NOT(a)\nOUTPUT(n1)";
      "INPUT(a)\nx = INPUT()\nOUTPUT(x)"; "INPUT(a)\ny = AND)(a, a"; "INPUT(a)\ny = FOO)(a";
      "INPUT(a)\ny = const1()\nz = xor(a, y)\nOUTPUT(z)";
      "INPUT(a)\r\nOUTPUT(a)\r\n# region r : a\r\n";
      "INPUT(a)\nOUTPUT(a)\n#region\tr\t:\ta\n"; "INPUT(a)\ny = NOT(a) trailing\nOUTPUT(y)";
      "INPUT(a)\ny = AND(a,)\nOUTPUT(y)"; "INPUT(a)\nq = DFF()\n"; "INPUT(a)\nq = DFF(a, a)\n";
      "OUTPUT()\n" ];
  let arb = Seeded.of_rng ~print:string_of_int (fun rng -> Rng.int rng 1_000_000) in
  Seeded.check ~count:150 ~name:"one-scan reader matches the list pipeline" arb (fun seed ->
      let rng = Rng.create seed in
      let base = reader_base rng in
      for round = 0 to 100 do
        let text = ref base in
        if round > 0 then
          for _ = 0 to Rng.int rng 3 do
            text := mutate_netlist rng !text
          done;
        Option.iter (QCheck.Test.fail_reportf "%s") (compare_readers !text)
      done;
      true);
  (* Mutations that every text survives, or none, would test one side only. *)
  Alcotest.(check bool) "some texts read" true (!accepted > 0);
  Alcotest.(check bool) "some texts refused" true (!rejected > 0)

(* --- flat event engine vs the record-heap reference ---------------------- *)

module Ev_ref = Reference.Event_sim_ref

(* A storm is part of the outcome: both engines must give up with the same
   message. *)
let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let transition_bits l =
  List.map (fun tr -> (Int64.bits_of_float tr.Ev_ref.time, tr.Ev_ref.node, tr.Ev_ref.value)) l

let sample_bits = Array.map Int64.bits_of_float

(* The engines agree on one cycle: the same (time, node, value) list and
   the same power-trace samples, bit for bit, noise draws included. *)
let engines_agree ?input_arrivals c ~prev_inputs ~next_inputs =
  let config = { Power.Model.default_config with Power.Model.noise_sigma = 0.3 } in
  let same f g = outcome f = outcome g in
  same
    (fun () -> transition_bits (Ev_ref.collect ?input_arrivals c ~prev_inputs ~next_inputs))
    (fun () -> transition_bits (Ev_ref.cycle ?input_arrivals c ~prev_inputs ~next_inputs))
  && same
       (fun () ->
         sample_bits
           (Power.Model.trace (Rng.create 77) ?input_arrivals c ~config ~prev_inputs
              ~next_inputs))
       (fun () ->
         sample_bits
           (Ev_ref.trace (Rng.create 77) ?input_arrivals c ~config ~prev_inputs ~next_inputs))

type ev_source = Family of BG.family | Random_dag | Masked of Synth.Masking.style * int

let ev_source_name = function
  | Family f -> BG.family_name f
  | Random_dag -> "random_dag"
  | Masked (style, shares) ->
    Printf.sprintf "%s_%d_shares" (Synth.Masking.string_of_style style) shares

let test_event_sim_differential () =
  (* Every Bench_gen family, random DAGs (duplicate fanins included), and
     the ISW/DOM gadget netlists the glitch campaign simulates, whose
     equal-time buckets hold dozens of events. Each cycle runs with all
     inputs at 0, with arrivals on a 5 ps grid like the cell delays (so
     equal-time ties between inputs and gate outputs are common), with
     multiples of 0.1 ps computed two ways (k *. 0.1 and k /. 10.0 differ
     in the last bit for some k, so their times must not be merged), and
     with -0.0 arrivals beside 0.0 ones. *)
  let source_arb =
    QCheck.oneofl ~print:ev_source_name
      ((Random_dag :: List.map (fun f -> Family f) BG.all_families)
      @ List.concat_map
          (fun style -> [ Masked (style, 2); Masked (style, 3) ])
          [ Synth.Masking.Isw; Synth.Masking.Dom ])
  in
  let arb =
    QCheck.pair source_arb (QCheck.triple (int_range 0 100_000) (int_range 16 600) (int_range 0 100_000))
  in
  let show (src, (seed, size, vseed)) =
    Printf.sprintf "%s seed=%d size=%d vectors=%d" (ev_source_name src) seed size vseed
  in
  Seeded.check ~count:80 ~name:"flat event engine matches the record-heap reference"
    (QCheck.set_print show arb) (fun (src, (seed, size, vseed)) ->
      let c =
        match src with
        | Family fam -> BG.sized ~seed fam ~target_gates:size
        | Random_dag -> Gen.random_dag ~seed ~inputs:(2 + (size mod 14)) ~gates:size ~outputs:4
        | Masked (style, shares) ->
          (* The multiplier families storm at 3 shares; keep the bases
             that finish, so the gadgets' ties are what gets compared. *)
          let fam = [| BG.Layered; BG.C432; BG.C880 |].(seed mod 3) in
          let base = BG.sized ~seed fam ~target_gates:(16 + (size / 16)) in
          (Synth.Masking.transform ~shares ~style ~seed base).Synth.Masking.circuit
      in
      let ni = Circuit.num_inputs c in
      let rng = Rng.create vseed in
      let vec () = Array.init ni (fun _ -> Rng.bool rng) in
      let prev_inputs = vec () and next_inputs = vec () in
      let grid () = Float.of_int (5 * Rng.int rng 12) in
      let on_grid = Array.init ni (fun _ -> if Rng.bool rng then 0.0 else grid ()) in
      let fractional =
        Array.init ni (fun _ ->
            let k = Float.of_int (Rng.int rng 30) in
            if Rng.bool rng then k *. 0.1 else k /. 10.0)
      in
      let signed_zeros =
        Array.init ni (fun k ->
            if k = 0 then -0.0
            else match Rng.int rng 3 with 0 -> 0.0 | 1 -> -0.0 | _ -> grid ())
      in
      engines_agree c ~prev_inputs ~next_inputs
      && List.for_all
           (fun input_arrivals -> engines_agree ~input_arrivals c ~prev_inputs ~next_inputs)
           [ on_grid; fractional; signed_zeros ])

let test_event_storm_pinned () =
  (* A 6x6 array multiplier storms on the all-zero -> all-one step: a DAG,
     not an oscillation — glitches multiply through the adder grid until
     the cap. Both engines must stop at the same pop. *)
  let c = BG.c6288_like ~width:6 () in
  let ni = Circuit.num_inputs c in
  let prev_inputs = Array.make ni false and next_inputs = Array.make ni true in
  (match outcome (fun () -> Ev_ref.collect c ~prev_inputs ~next_inputs) with
   | Error m -> Alcotest.(check bool) "storm message names the storm" true (contains m "event storm")
   | Ok _ -> Alcotest.fail "expected an event storm");
  Alcotest.(check bool) "same storm as the reference" true
    (engines_agree c ~prev_inputs ~next_inputs);
  (* The reference gives up on pop 200 * nodes + 1. *)
  let module T = Eda_util.Telemetry in
  let sink, events = T.memory_sink () in
  T.with_sink sink (fun () ->
      try ignore (Ev_ref.collect c ~prev_inputs ~next_inputs) with Invalid_argument _ -> ());
  match T.Trace.of_events (events ()) with
  | Ok trace ->
    Alcotest.(check (option (float 0.0))) "cap counted on pops"
      (Some (Float.of_int ((200 * Circuit.node_count c) + 1)))
      (List.assoc_opt "event_sim.events" trace.T.Trace.counter_totals)
  | Error msg -> Alcotest.fail msg

let test_glitch_capture_differential () =
  (* [Glitch_attack.capture_at] folds the production event stream into the
     settled start values; the list-based capture applies the reference
     engine's transitions with [time <= period_ps] in order. The period is
     one of the cycle's own transition times (or just below the first, or
     past the last), so the [<=] boundary and the last write among events
     at one instant are both exercised. *)
  let arb =
    QCheck.triple (int_range 0 100_000) (int_range 8 200)
      (QCheck.oneofl ~print:string_of_int [ 0; 2; 3 ])
  in
  let show (seed, size, shares) = Printf.sprintf "seed=%d size=%d shares=%d" seed size shares in
  Seeded.check ~count:60 ~name:"glitch capture matches the list-based capture"
    (QCheck.set_print show arb) (fun (seed, size, shares) ->
      let c =
        if shares = 0 then Gen.random_dag ~seed ~inputs:(2 + (size mod 10)) ~gates:size ~outputs:3
        else
          (Synth.Masking.transform ~shares ~style:Synth.Masking.Isw ~seed
             (Gen.random_dag ~seed ~inputs:(2 + (size mod 5)) ~gates:(4 + (size / 10)) ~outputs:2))
            .Synth.Masking.circuit
      in
      let ni = Circuit.num_inputs c in
      let rng = Rng.create (seed + 1) in
      let prev_inputs = Array.init ni (fun _ -> Rng.bool rng) in
      let next_inputs = Array.init ni (fun _ -> Rng.bool rng) in
      match Ev_ref.cycle c ~prev_inputs ~next_inputs with
      | exception Invalid_argument m ->
        outcome (fun () ->
            Fault.Glitch_attack.capture_at c ~period_ps:0.0 ~prev_inputs ~next_inputs)
        = Error m
      | transitions ->
        let times = Array.of_list (List.map (fun tr -> tr.Ev_ref.time) transitions) in
        let periods =
          if times = [||] then [ 0.0 ]
          else
            [ times.(0) -. 1.0;
              times.(Rng.int rng (Array.length times));
              times.(Rng.int rng (Array.length times));
              times.(Array.length times - 1) +. 1.0 ]
        in
        List.for_all
          (fun period_ps ->
            let expect = Sim.eval_all c prev_inputs in
            List.iter
              (fun { Ev_ref.time; node; value } ->
                if time <= period_ps then expect.(node) <- value)
              transitions;
            Fault.Glitch_attack.capture_at c ~period_ps ~prev_inputs ~next_inputs = expect)
          periods)

let test_hw_sampler_differential () =
  (* The campaign-resolved sampler reproduces the one-shot model, bit for
     bit, through a scratch buffer left dirty by the previous call. *)
  let arb =
    Seeded.of_rng
      ~print:(fun (fam, seed) -> Printf.sprintf "%s seed=%d" (BG.family_name fam) seed)
      (fun rng -> (Rng.choose rng BG.all_families, Rng.int rng 100_000))
  in
  Seeded.check ~count:30 ~name:"prepared Hamming-weight sampler matches the model" arb
    (fun (fam, seed) ->
      let c = BG.sized ~seed fam ~target_gates:120 in
      let sample = Power.Model.hamming_weight_sampler c in
      let scratch = Array.make (Circuit.node_count c) (-1) in
      let rng = Rng.create seed in
      List.for_all
        (fun k ->
          let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng) in
          let a =
            (sample ~scratch ~lanes:1 ~inputs:(Array.map Bool.to_int inputs)).(0)
            +. Rng.gaussian_scaled (Rng.create k) ~mean:0.0 ~sigma:0.5
          in
          let b =
            Reference.Hw_model_ref.hamming_weight_sample (Rng.create k) c ~noise_sigma:0.5 ~inputs
          in
          Int64.bits_of_float a = Int64.bits_of_float b)
        [ 1; 2; 3; 4 ])

(* Random multi-sample campaign: per sample a large common offset (the
   DC level of a power trace, which stresses cancellation), and for the
   fixed class a mean shift and a different spread, so both orders carry
   signal. Pure in [stream], so safe to run pooled. *)
let synthetic_collect ~seed ~samples =
  let params = Rng.create seed in
  let offset = Array.init samples (fun _ -> 50.0 *. Rng.float params) in
  let shift = Array.init samples (fun _ -> Rng.float params -. 0.5) in
  let sigma = Array.init samples (fun _ -> 0.5 +. (2.0 *. Rng.float params)) in
  fun stream cls ->
    Array.init samples (fun k ->
        let x = Rng.gaussian stream in
        match cls with
        | `Fixed -> offset.(k) +. shift.(k) +. (sigma.(k) *. x)
        | `Random -> offset.(k) +. x)

let test_tvla_streaming_differential () =
  (* The streamed first and second order agree with the list t-tests on
     the very traces the campaign consumed. *)
  let module Tvla = Sidechannel.Tvla in
  let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
  let agree (got : Tvla.result) (want : Tvla.result) =
    got.Tvla.traces_per_class = want.Tvla.traces_per_class
    && Array.length got.Tvla.t_per_sample = Array.length want.Tvla.t_per_sample
    && Array.for_all2 close got.Tvla.t_per_sample want.Tvla.t_per_sample
  in
  Seeded.check ~count:40 ~name:"streamed TVLA matches the list t-tests"
    (QCheck.triple (int_range 0 1_000_000) (int_range 1 8) (int_range 2 150))
    (fun (seed, samples, pairs) ->
      let synthetic = synthetic_collect ~seed ~samples in
      let fixed = ref [] and random = ref [] in
      let collect stream cls =
        let tr = synthetic stream cls in
        (match cls with `Fixed -> fixed := tr :: !fixed | `Random -> random := tr :: !random);
        tr
      in
      let o1, o2 =
        Tvla.campaign_orders (Rng.create (seed + 1)) ~traces_per_class:pairs
          ~batch:(Tvla.per_trace collect)
      in
      agree o1 (Reference.Tvla_ref.t_test !fixed !random)
      && agree o2 (Reference.Tvla_ref.t_test_second_order !fixed !random))

module Place = Physical.Placement
module Place_ref = Reference.Placement_ref
module Split = Splitmfg.Split

(* A random DAG, optionally with a gate that reads one net twice and a
   DFF that feeds itself (its net lists the driver as a consumer too):
   the pin multiplicities the move kernel must count like the lists. *)
let placement_circuit ~seed ~gates ~dup =
  let c = Gen.random_dag ~seed ~inputs:(2 + (seed mod 6)) ~gates ~outputs:2 in
  if dup then begin
    let v = Circuit.node_count c - 1 in
    ignore (Circuit.add_gate c Netlist.Gate.Xor [ v; v ]);
    let q = Circuit.add_dff c ~d:v in
    Circuit.connect_dff c q ~d:q
  end;
  c

let test_placement_differential () =
  (* The CSR move kernel against the list annealer: positions and moves
     performed, with and without a step budget; perturbation positions; full wirelength (the cached
     HPWL sums against a from-scratch list recount); and the bucketed
     proximity attack's CCR on lifted splits. *)
  let arb =
    QCheck.pair
      (QCheck.triple (int_range 0 100_000) (int_range 1 250) QCheck.bool)
      (QCheck.triple (int_range 0 3000) (int_range 1 4000) (int_range 0 4))
  in
  let show ((seed, gates, dup), (moves, steps, knob)) =
    Printf.sprintf "seed=%d gates=%d dup=%b moves=%d steps=%d knob=%d" seed gates dup moves
      steps knob
  in
  Seeded.check ~count:40 ~name:"CSR placement kernel matches the list annealer"
    (QCheck.set_print show arb) (fun ((seed, gates, dup), (moves, steps, knob)) ->
      let c = placement_circuit ~seed ~gates ~dup in
      let same_place budgeted =
        let budget () = if budgeted then Some (Eda_util.Budget.create ~steps ()) else None in
        let o = Place.place ~moves ?budget:(budget ()) (Rng.create seed) c in
        let r = Place_ref.place ~moves ?budget:(budget ()) (Rng.create seed) c in
        o.Place.placement.Place.position = r.Place.placement.Place.position
        && o.Place.moves_performed = r.Place.moves_performed
      in
      let p = (Place.place ~moves (Rng.create seed) c).Place.placement in
      let lambda = [| 0.5; 0.0; 1.3; 0.1; 2.0 |].(knob) in
      let q = Place.perturb (Rng.create (seed + 1)) ~lambda ~moves p in
      let q_ref = Place_ref.perturb (Rng.create (seed + 1)) ~lambda ~moves p in
      let ccr placement =
        let s =
          Split.lift_wires ~fraction:(Float.of_int knob /. 4.0)
            (Split.split_by_length ~feol_threshold:(knob mod 3) placement)
        in
        Int64.bits_of_float (Split.proximity_attack s)
        = Int64.bits_of_float (Place_ref.proximity_attack s)
      in
      same_place false && same_place true
      && q.Place.position = q_ref.Place.position
      && Place.wirelength p = Place_ref.wirelength p
      && Place.wirelength q = Place_ref.wirelength q
      && ccr p && ccr q)

let test_tvla_second_order_large_shift () =
  (* Both classes share one spread and the fixed class sits 100-1000
     above the random one: there is no second-order leakage to find.
     With noiseless classes every second-order t must be exactly 0 (no
     rounding residue in the sum of squares), and with a small spread no
     sample may cross the threshold. *)
  let module Tvla = Sidechannel.Tvla in
  Seeded.check ~count:40 ~name:"second order stays silent under a large mean shift"
    (QCheck.pair
       (QCheck.triple (int_range 0 1_000_000) (int_range 1 8) (int_range 2 150))
       (QCheck.oneofl ~print:string_of_float [ 0.0; 1e-6; 1e-3 ]))
    (fun ((seed, samples, pairs), sigma) ->
      let params = Rng.create seed in
      let level = Array.init samples (fun _ -> Rng.float params -. 0.5) in
      let shift = Array.init samples (fun _ -> 100.0 +. (900.0 *. Rng.float params)) in
      let collect stream cls =
        Array.init samples (fun k ->
            let x = sigma *. Rng.gaussian stream in
            match cls with `Fixed -> level.(k) +. shift.(k) +. x | `Random -> level.(k) +. x)
      in
      let _, o2 =
        Tvla.campaign_orders (Rng.create (seed + 1)) ~traces_per_class:pairs
          ~batch:(Tvla.per_trace collect)
      in
      if sigma = 0.0 then Array.for_all (fun t -> t = 0.0) o2.Tvla.t_per_sample
      else not (Tvla.leaks o2))

(* [Tvla.campaign_seeded]'s t_per_sample digests, captured before the
   streaming-moments rewrite: the first-order bits must never move. *)
let t_digest (r : Sidechannel.Tvla.result) =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") r.Sidechannel.Tvla.t_per_sample))))

let test_tvla_pinned_fingerprint () =
  let module Tvla = Sidechannel.Tvla in
  let collect stream cls =
    Array.init 7 (fun k ->
        let shift = match cls with `Fixed when k = 3 -> 0.4 | _ -> 0.0 in
        (Rng.gaussian stream *. (1.0 +. (float_of_int k *. 0.25))) +. shift)
  in
  List.iter
    (fun (seed, pairs, digest) ->
      let label = Printf.sprintf "seed %d, %d pairs" seed pairs in
      Alcotest.(check string) label digest
        (t_digest (Tvla.campaign_seeded (Rng.create seed) ~traces_per_class:pairs ~collect));
      Alcotest.(check string) (label ^ ", first order of campaign_orders") digest
        (t_digest
           (fst
              (Tvla.campaign_orders (Rng.create seed) ~traces_per_class:pairs
                 ~batch:(Tvla.per_trace collect)))))
    [ (1, 45, "fbce966047c35f834a69b98f6f78eb87");
      (2, 100, "5f237b66119763eb0362e0a05c46eb68");
      (3, 257, "e4bc9bdb5c7a3037f72d66dc34ab5149") ];
  Alcotest.(check string) "secure-synthesis HW gate on c17" "715e3e7d0e12107882bcbf0f1a83e0fb"
    (t_digest
       (Sidechannel.Secure_synth.assess (Rng.create 21) (Gen.c17 ()) ~traces_per_class:1500
          ~noise_sigma:0.8));
  (* The masked private-AND campaigns: the first-order campaign, and both
     orders over the same per-trace draws (class bits, shares and
     randomness, then noise). *)
  let private_and shares =
    Synth.Masking.transform ~shares (Sidechannel.Leakage.private_and_source ())
  in
  List.iter
    (fun (shares, campaign, first, second) ->
      let masked = private_and shares in
      let label = Printf.sprintf "private AND, %d shares" shares in
      Alcotest.(check string) (label ^ ", tvla_campaign") campaign
        (t_digest
           (Sidechannel.Leakage.tvla_campaign (Rng.create 22) masked ~traces_per_class:800
              ~noise_sigma:0.3));
      let batch = Sidechannel.Leakage.hw_collect masked ~noise_sigma:0.1 in
      let o1, o2 = Tvla.campaign_orders (Rng.create 23) ~traces_per_class:800 ~batch in
      Alcotest.(check (pair string string)) (label ^ ", campaign_orders") (first, second)
        (t_digest o1, t_digest o2))
    [ ( 2,
        "e1d3eee137fd0a674d18f0c8f380a1c9",
        "d2b11d2c3a4f9022415db9005761c4f7",
        "72bdbb9bdd4cb2adf220fc2e7339a1e0" );
      ( 3,
        "c7d310a532e05a3a5aa861b852cdab59",
        "0284c98af8a8e200973acea57e99c588",
        "c75871ef2e4b4d000ec8e3347b2175fb" ) ]

(* --- pooled vs sequential bit-identity at 1/2/8 domains ------------------ *)

let domain_counts = [ 1; 2; 8 ]

let with_pools f =
  List.map
    (fun d ->
      if d = 1 then f None
      else Pool.with_pool ~num_domains:d (fun p -> f (Some p)))
    domain_counts

let all_equal = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (( = ) x) rest

let test_tvla_pool_identical () =
  let c = BG.sized ~seed:32 BG.Layered ~target_gates:220 in
  let ni = Circuit.num_inputs c in
  let nodes = Circuit.node_count c in
  let sample = Power.Model.hamming_weight_sampler c in
  let collect stream cls =
    let vec =
      Array.init ni (fun _ ->
          match cls with `Fixed -> true | `Random -> Rng.bool stream)
    in
    let scratch = Array.make nodes 0 in
    let e = sample ~scratch ~lanes:1 ~inputs:(Array.map Bool.to_int vec) in
    [| e.(0) +. Rng.gaussian_scaled stream ~mean:0.0 ~sigma:0.4 |]
  in
  let results =
    with_pools (fun pool ->
        let r =
          Sidechannel.Tvla.campaign_batched ?pool (Rng.create 5150)
            ~traces_per_class:257 ~batch:(Sidechannel.Tvla.per_trace collect)
        in
        (r.Sidechannel.Tvla.t_per_sample, r.Sidechannel.Tvla.max_abs_t))
  in
  Alcotest.(check bool) "TVLA bit-identical at 1/2/8 domains" true (all_equal results);
  Alcotest.(check string) "pinned t_per_sample" "f008d0c27a41158e65b8a781e1d0f8d2"
    (t_digest
       (Sidechannel.Tvla.campaign_seeded (Rng.create 5150) ~traces_per_class:257 ~collect))

(* A layered Bench_gen circuit with muxes, plus the cells the generator
   never emits: both constants and a DFF whose output feeds logic. *)
let hw_lanes_circuit ~seed =
  let module G = Netlist.Gate in
  let c =
    BG.layered ~seed ~kinds:[ G.And; G.Or; G.Xor; G.Nand; G.Not; G.Mux ]
      ~inputs:(3 + (seed mod 6)) ~layers:(2 + (seed mod 4)) ~width:(4 + (seed mod 8)) ()
  in
  let last = Circuit.node_count c - 1 in
  let one = Circuit.add_const c true and zero = Circuit.add_const c false in
  let q = Circuit.add_dff c ~d:last in
  let m = Circuit.add_gate c G.Mux [ q; one; last ] in
  Circuit.set_output c "hw_y" (Circuit.add_gate c G.Or [ m; zero ]);
  c

(* The per-trace XOR sharing the campaigns drew before they were
   batched: every share drawn, then share 0 fixed up to the parity. *)
let oracle_encode stream ~shares value =
  let sh = Array.init shares (fun _ -> Rng.bool stream) in
  if Array.fold_left ( <> ) false sh <> value then sh.(0) <- not sh.(0);
  sh

(* [Secure_synth.assess] as a per-trace campaign over the one-shot HW
   model: per trace the secrets (fixed: all true), their shares, the
   gadget randomness, then the noise. *)
let oracle_assess rng c ~traces_per_class ~noise_sigma =
  let module M = Synth.Masking in
  let iface = M.interface_of c in
  let pos = Circuit.input_position c in
  let collect stream cls =
    let vec = Array.make (Circuit.num_inputs c) false in
    List.iter
      (fun (_, ids) ->
        let value = match cls with `Fixed -> true | `Random -> Rng.bool stream in
        if Array.length ids = 1 then vec.(pos ids.(0)) <- value
        else begin
          let sh = oracle_encode stream ~shares:(Array.length ids) value in
          Array.iteri (fun s id -> vec.(pos id) <- sh.(s)) ids
        end)
      iface.M.secrets;
    Array.iter (fun id -> vec.(pos id) <- Rng.bool stream) iface.M.randoms;
    [| Reference.Hw_model_ref.hamming_weight_sample stream c ~noise_sigma ~inputs:vec |]
  in
  Sidechannel.Tvla.campaign_seeded rng ~traces_per_class ~collect

(* [Leakage.tvla_campaign] as a per-trace campaign over the one-shot HW
   model: per trace the class bits (a, b), the shares of each input, the
   masking randomness, then the noise. *)
let oracle_tvla_campaign rng (m : Synth.Masking.masked) ~traces_per_class ~noise_sigma =
  let pos = Circuit.input_position m.circuit in
  let collect stream cls =
    let a, b =
      match cls with
      | `Fixed -> true, true
      | `Random -> Rng.bool stream, Rng.bool stream
    in
    let vec = Array.make (Circuit.num_inputs m.circuit) false in
    List.iter
      (fun (nm, ids) ->
        let sh = oracle_encode stream ~shares:m.shares (if nm = "a" then a else b) in
        Array.iteri (fun s id -> vec.(pos id) <- sh.(s)) ids)
      m.input_shares;
    Array.iter (fun id -> vec.(pos id) <- Rng.bool stream) m.random_inputs;
    [| Reference.Hw_model_ref.hamming_weight_sample stream m.circuit ~noise_sigma ~inputs:vec |]
  in
  Sidechannel.Tvla.campaign_seeded rng ~traces_per_class ~collect

let same_t (a : Sidechannel.Tvla.result) (b : Sidechannel.Tvla.result) =
  t_digest a = t_digest b && a.Sidechannel.Tvla.traces_per_class = b.Sidechannel.Tvla.traces_per_class

let test_hw_lanes_differential () =
  (* Every lane of one word-parallel sweep is the one-shot model on that
     lane's vector, bit for bit: 1 to 63 lanes, garbage above the last
     lane, a scratch buffer left dirty, and Mux, Const and Dff cells. *)
  let arb = QCheck.pair (int_range 0 100_000) (int_range 1 63) in
  Seeded.check ~count:40 ~name:"every HW lane matches the one-shot model" arb
    (fun (seed, lanes) ->
      let c = hw_lanes_circuit ~seed in
      let sample = Power.Model.hamming_weight_sampler c in
      let scratch = Array.make (Circuit.node_count c) (-1) in
      let rng = Rng.create seed in
      let ni = Circuit.num_inputs c in
      let vectors = Array.init lanes (fun _ -> Array.init ni (fun _ -> Rng.bool rng)) in
      let used = if lanes = 63 then -1 else (1 lsl lanes) - 1 in
      let words =
        Array.init ni (fun k ->
            let w = ref (Rng.bits63 rng land lnot used) in
            Array.iteri (fun j v -> if v.(k) then w := !w lor (1 lsl j)) vectors;
            !w)
      in
      let energies = sample ~scratch ~lanes ~inputs:words in
      Array.length energies = lanes
      && Array.for_all Fun.id
           (Array.mapi
              (fun j inputs ->
                let a = energies.(j) +. Rng.gaussian_scaled (Rng.create j) ~mean:0.0 ~sigma:0.5 in
                let b =
                  Reference.Hw_model_ref.hamming_weight_sample (Rng.create j) c ~noise_sigma:0.5
                    ~inputs
                in
                Int64.bits_of_float a = Int64.bits_of_float b)
              vectors));
  (* The batched secure-synthesis gate against its per-trace oracle, on
     whole and partial batches of 32 pairs, masked (ISW and DOM) and
     not. *)
  let designs =
    [ ("c17", Gen.c17 ());
      ("c17 ISW 2 shares", (Synth.Masking.transform ~shares:2 (Gen.c17 ())).Synth.Masking.circuit);
      ("c17 ISW 3 shares", (Synth.Masking.transform ~shares:3 (Gen.c17 ())).Synth.Masking.circuit);
      ( "private AND DOM 2 shares",
        (Synth.Masking.pipelined ~shares:2 (Sidechannel.Leakage.private_and_source ()))
          .Synth.Masking.circuit ) ]
  in
  List.iter
    (fun (name, c) ->
      List.iter
        (fun n ->
          let got = Sidechannel.Secure_synth.assess (Rng.create n) c ~traces_per_class:n ~noise_sigma:0.8 in
          let want = oracle_assess (Rng.create n) c ~traces_per_class:n ~noise_sigma:0.8 in
          Alcotest.(check bool) (Printf.sprintf "assess on %s, %d pairs" name n) true (same_t got want))
        [ 1; 31; 32; 33; 257 ])
    designs;
  (* The pooled masked private-AND campaign: the per-trace oracle at every
     domain count. *)
  let masked = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_unaware in
  let want = oracle_tvla_campaign (Rng.create 61) masked ~traces_per_class:257 ~noise_sigma:0.3 in
  List.iter2
    (fun d got ->
      Alcotest.(check bool) (Printf.sprintf "tvla_campaign at %d domains" d) true (same_t got want))
    domain_counts
    (with_pools (fun pool ->
         Sidechannel.Leakage.tvla_campaign ?pool (Rng.create 61) masked ~traces_per_class:257
           ~noise_sigma:0.3))

let test_trace_merge_deterministic () =
  (* Canonical merged telemetry must be byte-identical at 1/2/8 domains
     for any deterministic workload: random task counts and payloads,
     deterministic caller/worker clocks. *)
  let module T = Eda_util.Telemetry in
  let fake_clock () =
    let t = ref 0.0 in
    fun () ->
      let v = !t in
      t := v +. 1.0;
      v
  in
  let task_clock i =
    let t = ref (1000.0 *. Float.of_int (i + 1)) in
    fun () ->
      let v = !t in
      t := v +. 1.0;
      v
  in
  let traced_batch ~tasks ~salt d =
    let sink, events = T.memory_sink () in
    T.with_sink ~clock:(fake_clock ()) ~task_clock sink (fun () ->
        Pool.with_pool ~num_domains:d (fun p ->
            ignore
              (Pool.parallel_map p
                 ~f:(fun _ctx i ->
                   T.with_span "task.work" ~attrs:[ ("i", T.Int i) ] (fun () ->
                       T.count "work.done" 1;
                       T.gauge "work.cost" (Float.of_int ((i * salt) mod 97)));
                   i)
                 (Array.init tasks (fun i -> i)))));
    String.concat "\n" (List.map T.event_to_line (T.Trace.canonicalize (events ())))
  in
  let arb = QCheck.pair (int_range 1 12) (int_range 1 1000) in
  Seeded.check ~count:15 ~name:"canonical merged trace identical at 1/2/8 domains" arb
    (fun (tasks, salt) ->
      let base = traced_batch ~tasks ~salt 1 in
      String.length base > 0
      && List.for_all (fun d -> traced_batch ~tasks ~salt d = base) [ 2; 8 ])

let test_pool_chunking_preserves_results () =
  (* scheduling grain must never leak into results *)
  let inputs = Array.init 500 (fun i -> i) in
  let expect = Array.map (fun i -> Some (i * 7)) inputs in
  List.iter
    (fun chunk ->
      Pool.with_pool ~num_domains:4 (fun p ->
          let got = Pool.parallel_map ~chunk p ~f:(fun _ctx x -> x * 7) inputs in
          Alcotest.(check bool)
            (Printf.sprintf "chunk=%d keeps ordered results" chunk)
            true (got = expect)))
    [ 1; 3; 64; 1000 ]

let () =
  Alcotest.run "proptest"
    [ ( "seeded",
        [ Alcotest.test_case "same seed, same failing case" `Quick test_seed_replays;
          Alcotest.test_case "shrinks inside int_range" `Quick test_shrink_stays_in_range ] );
      ( "oracles",
        [ Alcotest.test_case "ripple adder" `Quick test_ripple_adder_oracle;
          Alcotest.test_case "comparator" `Quick test_comparator_oracle;
          Alcotest.test_case "parity tree" `Quick test_parity_tree_oracle;
          Alcotest.test_case "multipliers agree" `Quick test_multiplier_families_agree ] );
      ( "bench-gen",
        [ Alcotest.test_case "seed determinism" `Quick test_generators_seed_deterministic;
          Alcotest.test_case "lint clean (sized)" `Quick test_generators_lint_clean;
          Alcotest.test_case "lint clean (layered params)" `Quick
            test_layered_params_lint_clean;
          Alcotest.test_case "sized hits target" `Quick test_sized_hits_target ] );
      ( "differential",
        [ Alcotest.test_case "sat vs reference" `Quick test_sat_differential;
          Alcotest.test_case "incremental sat vs reference" `Quick
            test_sat_incremental_differential;
          Alcotest.test_case "decision heap vs scan" `Quick test_var_heap_vs_scan;
          Alcotest.test_case "word sim vs naive" `Quick test_word_sim_differential;
          Alcotest.test_case "session vs fresh" `Slow test_session_vs_fresh;
          Alcotest.test_case "session budget resume" `Quick test_session_budget_resume;
          Alcotest.test_case "word fault drop vs scalar" `Quick
            test_detects_many_differential;
          Alcotest.test_case "pattern-parallel lanes vs scalar" `Quick test_psim_differential;
          Alcotest.test_case "countermeasure classify vs scalar" `Quick
            test_classify_differential;
          Alcotest.test_case "atpg vs ground truth" `Quick test_atpg_ground_truth;
          Alcotest.test_case "circuit view vs consumer lists" `Quick test_view_differential;
          Alcotest.test_case "reader vs list pipeline" `Quick test_reader_differential;
          Alcotest.test_case "event engine vs reference" `Quick test_event_sim_differential;
          Alcotest.test_case "pinned event storm" `Quick test_event_storm_pinned;
          Alcotest.test_case "glitch capture vs list capture" `Quick
            test_glitch_capture_differential;
          Alcotest.test_case "HW sampler vs model" `Quick test_hw_sampler_differential;
          Alcotest.test_case "HW lanes vs model" `Quick test_hw_lanes_differential;
          Alcotest.test_case "placement kernel vs list annealer" `Quick
            test_placement_differential;
          Alcotest.test_case "streamed tvla vs list t-tests" `Quick
            test_tvla_streaming_differential;
          Alcotest.test_case "tvla second order under large shift" `Quick
            test_tvla_second_order_large_shift;
          Alcotest.test_case "pinned tvla fingerprint" `Quick test_tvla_pinned_fingerprint ] );
      ( "pooled",
        [ Alcotest.test_case "tvla 1/2/8 domains" `Slow test_tvla_pool_identical;
          Alcotest.test_case "trace merge deterministic" `Quick
            test_trace_merge_deterministic;
          Alcotest.test_case "chunking invariant" `Quick
            test_pool_chunking_preserves_results ] ) ]
