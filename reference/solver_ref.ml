(** Reference CDCL solver — the pre-optimization, allocation-heavy
    implementation, kept as the differential-testing oracle for
    {!Sat.Solver}.

    Architecture matches {!Sat.Solver} feature-for-feature except for the data
    layout (cons-cell trail and watch lists, per-decision trail snapshots,
    values per variable only), the decision order (a linear scan over every
    variable for the first highest activity, where {!Sat.Solver} keeps an
    activity heap that picks the same variable) and the absence of a
    learnt-clause database (learnt clauses accumulate without bound). Its
    list watch lists propagate in another order, so its search path differs
    from {!Sat.Solver}'s even where its verdicts agree. Do not use it from
    production engines.

    Literal encoding: variable [v >= 0]; positive literal [2v], negative
    [2v+1]. *)

type lit = int

let lit_of_var v ~sign = if sign then 2 * v else (2 * v) + 1
let var_of_lit l = l / 2
let pos l = l land 1 = 0
let negate l = l lxor 1

type lbool = LTrue | LFalse | LUndef

type t = {
  mutable nvars : int;
  mutable clauses : lit array list;  (* original + learnt, for stats only *)
  mutable watches : lit array list array;  (* watch lists per literal *)
  mutable assign : lbool array;  (* per variable *)
  mutable level : int array;  (* decision level per variable *)
  mutable reason : lit array option array;  (* antecedent clause per variable *)
  mutable trail : lit list;
  mutable trail_len : int;
  mutable decisions : (lit * lit list) list;  (* decision lit, trail snapshot *)
  mutable activity : float array;
  mutable var_inc : float;
  mutable phase : bool array;
  mutable propagation_queue : lit list;
  mutable conflicts : int;
  mutable num_decisions : int;
  mutable propagations : int;
  mutable learnt_count : int;
  mutable num_restarts : int;
}

let create () =
  { nvars = 0;
    clauses = [];
    watches = Array.make 16 [];
    assign = Array.make 8 LUndef;
    level = Array.make 8 0;
    reason = Array.make 8 None;
    trail = [];
    trail_len = 0;
    decisions = [];
    activity = Array.make 8 0.0;
    var_inc = 1.0;
    phase = Array.make 8 false;
    propagation_queue = [];
    conflicts = 0;
    num_decisions = 0;
    propagations = 0;
    learnt_count = 0;
    num_restarts = 0 }

let ensure_var s v =
  if v >= s.nvars then begin
    let need = v + 1 in
    if 2 * need > Array.length s.watches then begin
      let cap = max (2 * need) (2 * Array.length s.watches) in
      let watches = Array.make cap [] in
      Array.blit s.watches 0 watches 0 (2 * s.nvars);
      s.watches <- watches;
      let grow_arr a def =
        let b = Array.make (cap / 2) def in
        Array.blit a 0 b 0 s.nvars;
        b
      in
      s.assign <- grow_arr s.assign LUndef;
      s.level <- grow_arr s.level 0;
      s.reason <- grow_arr s.reason None;
      s.activity <- grow_arr s.activity 0.0;
      s.phase <- grow_arr s.phase false
    end;
    s.nvars <- need
  end

let new_var s =
  let v = s.nvars in
  ensure_var s v;
  v

let value_lit s l =
  match s.assign.(var_of_lit l) with
  | LUndef -> LUndef
  | LTrue -> if pos l then LTrue else LFalse
  | LFalse -> if pos l then LFalse else LTrue

let enqueue s l reason =
  let v = var_of_lit l in
  s.assign.(v) <- (if pos l then LTrue else LFalse);
  s.level.(v) <- List.length s.decisions;
  s.reason.(v) <- reason;
  s.phase.(v) <- pos l;
  s.trail <- l :: s.trail;
  s.trail_len <- s.trail_len + 1;
  s.propagation_queue <- l :: s.propagation_queue

exception Unsat_root

let backtrack s target_level =
  let rec drop_decisions ds =
    if List.length ds <= target_level then ds
    else match ds with
      | [] -> []
      | _ :: tl -> drop_decisions tl
  in
  let rec unwind trail =
    match trail with
    | [] -> []
    | l :: rest ->
      let v = var_of_lit l in
      if s.level.(v) > target_level then begin
        s.assign.(v) <- LUndef;
        s.reason.(v) <- None;
        unwind rest
      end
      else trail
  in
  s.trail <- unwind s.trail;
  s.trail_len <- List.length s.trail;
  s.decisions <- drop_decisions s.decisions;
  s.propagation_queue <- []

(** Add a clause; simplifies trivially satisfied/duplicate literals.
    Backtracks to the root level first, so it is safe to call between
    incremental [solve] invocations. Raises [Unsat_root] if the clause is
    falsified at level 0. *)
let add_clause s lits =
  backtrack s 0;
  let lits = List.sort_uniq compare lits in
  let tautology =
    List.exists (fun l -> List.mem (negate l) lits) lits
  in
  if not tautology then begin
    List.iter (fun l -> ensure_var s (var_of_lit l)) lits;
    (* Drop root-level false literals. *)
    let at_root = s.decisions = [] in
    let lits =
      if at_root then List.filter (fun l -> value_lit s l <> LFalse) lits
      else lits
    in
    let already_sat = at_root && List.exists (fun l -> value_lit s l = LTrue) lits in
    if not already_sat then begin
      match lits with
      | [] -> raise Unsat_root
      | [ l ] ->
        if value_lit s l = LFalse then raise Unsat_root
        else if value_lit s l = LUndef then enqueue s l None
      | l0 :: l1 :: _ ->
        let arr = Array.of_list lits in
        s.clauses <- arr :: s.clauses;
        s.watches.(negate l0) <- arr :: s.watches.(negate l0);
        s.watches.(negate l1) <- arr :: s.watches.(negate l1)
    end
  end

(* Propagate all enqueued literals; returns conflicting clause if any. *)
let propagate s =
  let conflict = ref None in
  while s.propagation_queue <> [] && !conflict = None do
    match s.propagation_queue with
    | [] -> ()
    | l :: rest ->
      s.propagation_queue <- rest;
      s.propagations <- s.propagations + 1;
      let watching = s.watches.(l) in
      s.watches.(l) <- [];
      let rec go = function
        | [] -> ()
        | clause :: tl ->
          (match !conflict with
           | Some _ ->
             (* Conflict found: re-register remaining clauses unchanged. *)
             s.watches.(l) <- clause :: s.watches.(l);
             go tl
           | None ->
             (* Ensure the false literal is at position 1. *)
             let falsified = negate l in
             if clause.(0) = falsified then begin
               clause.(0) <- clause.(1);
               clause.(1) <- falsified
             end;
             if value_lit s clause.(0) = LTrue then begin
               (* Satisfied; keep watching. *)
               s.watches.(l) <- clause :: s.watches.(l);
               go tl
             end
             else begin
               (* Find a new literal to watch. *)
               let n = Array.length clause in
               let found = ref false in
               let k = ref 2 in
               while (not !found) && !k < n do
                 if value_lit s clause.(!k) <> LFalse then begin
                   let tmp = clause.(1) in
                   clause.(1) <- clause.(!k);
                   clause.(!k) <- tmp;
                   s.watches.(negate clause.(1)) <- clause :: s.watches.(negate clause.(1));
                   found := true
                 end;
                 incr k
               done;
               if !found then go tl
               else begin
                 (* Unit or conflict. *)
                 s.watches.(l) <- clause :: s.watches.(l);
                 (match value_lit s clause.(0) with
                  | LFalse -> conflict := Some clause
                  | LUndef -> enqueue s clause.(0) (Some clause)
                  | LTrue -> ());
                 go tl
               end
             end)
      in
      go watching
  done;
  if !conflict <> None then s.propagation_queue <- [];
  !conflict

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay s = s.var_inc <- s.var_inc /. 0.95

(* First-UIP learning. Returns learnt clause (asserting literal first) and
   backtrack level. *)
let analyze s conflict =
  let current_level = List.length s.decisions in
  let seen = Hashtbl.create 32 in
  let learnt = ref [] in
  let counter = ref 0 in
  let asserting = ref (-1) in
  let absorb clause =
    Array.iter
      (fun q ->
        let v = var_of_lit q in
        if (not (Hashtbl.mem seen v)) && s.assign.(v) <> LUndef then begin
          Hashtbl.replace seen v ();
          bump s v;
          if s.level.(v) = current_level then incr counter
          else if s.level.(v) > 0 then learnt := q :: !learnt
        end)
      clause
  in
  absorb conflict;
  (* Walk the trail backwards until one current-level literal remains. *)
  let trail = ref s.trail in
  let continue = ref true in
  while !continue do
    match !trail with
    | [] -> continue := false
    | p :: rest ->
      trail := rest;
      let v = var_of_lit p in
      if Hashtbl.mem seen v && s.level.(v) = current_level then begin
        decr counter;
        if !counter = 0 then begin
          asserting := negate p;
          continue := false
        end
        else begin
          match s.reason.(v) with
          | Some clause -> absorb clause
          | None -> ()  (* decision literal with counter > 0: shouldn't occur *)
        end
      end
  done;
  let learnt_lits = !asserting :: !learnt in
  let back_level =
    List.fold_left
      (fun acc q ->
        let lv = s.level.(var_of_lit q) in
        if q <> !asserting && lv > acc then lv else acc)
      0 !learnt
  in
  learnt_lits, back_level

let pick_branch s =
  let best = ref (-1) and best_act = ref neg_infinity in
  for v = 0 to s.nvars - 1 do
    if s.assign.(v) = LUndef && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  if !best < 0 then None
  else Some (lit_of_var !best ~sign:s.phase.(!best))

let luby i =
  (* Luby sequence: 1 1 2 1 1 2 4 ... *)
  let rec go k i =
    if i = (1 lsl k) - 1 then 1 lsl (k - 1)
    else if i < (1 lsl k) - 1 then go (k - 1) (i - (1 lsl (k - 1)) + 1)
    else go (k + 1) i
  in
  go 1 i

type result =
  | Sat
  | Unsat
  | Unknown of Eda_util.Budget.exhaustion
      (** The budget ran out before the search concluded. Security metrics
          are step functions, so a bounded "don't know" must stay distinct
          from either definite answer. *)

(* The search loop proper; [solve] below wraps it in a telemetry span. *)
let solve_raw ?budget ~assumptions s =
  (* Reset to root and re-propagate the root-level trail: units enqueued by
     [add_clause] may not have been propagated yet (backtracking clears the
     propagation queue). Re-propagating assigned literals is idempotent. *)
  backtrack s 0;
  s.propagation_queue <- s.trail;
  match propagate s with
  | Some _ -> Unsat
  | None ->
    let restart_count = ref 1 in
    let conflicts_until_restart = ref (32 * luby 1) in
    let result = ref None in
    (* Install assumptions as pseudo-decisions at successive levels. *)
    let rec install = function
      | [] -> true
      | a :: rest ->
        (match value_lit s a with
         | LTrue -> install rest
         | LFalse -> false
         | LUndef ->
           s.decisions <- (a, s.trail) :: s.decisions;
           enqueue s a None;
           (match propagate s with
            | Some _ -> false
            | None -> install rest))
    in
    if not (install assumptions) then Unsat
    else begin
      (* Assumption levels actually opened: one already true opens none. *)
      let assumption_levels = List.length s.decisions in
      while !result = None do
        match propagate s with
        | Some conflict ->
          s.conflicts <- s.conflicts + 1;
          (* One budget step per conflict; a definite Unsat at assumption
             level still wins over Unknown. *)
          let stop =
            match budget with
            | None -> None
            | Some b ->
              (match Eda_util.Budget.spend b with Ok () -> None | Error e -> Some e)
          in
          let level = List.length s.decisions in
          if level <= assumption_levels then result := Some Unsat
          else begin
            match stop with
            | Some e -> result := Some (Unknown e)
            | None ->
            let learnt, back = analyze s conflict in
            let back = max back assumption_levels in
            backtrack s back;
            (match learnt with
             | [] -> result := Some Unsat
             | [ l ] ->
               if value_lit s l = LFalse then result := Some Unsat
               else if value_lit s l = LUndef then enqueue s l None
             | l0 :: _ :: _ ->
               let arr = Array.of_list learnt in
               s.clauses <- arr :: s.clauses;
               s.learnt_count <- s.learnt_count + 1;
               s.watches.(negate arr.(0)) <- arr :: s.watches.(negate arr.(0));
               s.watches.(negate arr.(1)) <- arr :: s.watches.(negate arr.(1));
               if value_lit s l0 = LUndef then enqueue s l0 (Some arr));
            decay s;
            decr conflicts_until_restart;
            if !conflicts_until_restart <= 0 && !result = None then begin
              incr restart_count;
              s.num_restarts <- s.num_restarts + 1;
              conflicts_until_restart := 32 * luby !restart_count;
              backtrack s assumption_levels
            end
          end
        | None ->
          (* Deadline/cancellation check between decisions, so an instance
             propagating without conflicts still honours its budget. *)
          let stop =
            match budget with
            | Some b when s.num_decisions land 255 = 0 -> Eda_util.Budget.status b
            | Some _ | None -> None
          in
          (match stop with
           | Some e -> result := Some (Unknown e)
           | None ->
             (match pick_branch s with
              | None -> result := Some Sat
              | Some l ->
                s.num_decisions <- s.num_decisions + 1;
                s.decisions <- (l, s.trail) :: s.decisions;
                enqueue s l None))
      done;
      match !result with
      | Some r ->
        r
      | None -> assert false
    end

(** Solve under [assumptions]. The solver state is reusable across calls
    (incremental interface); learnt clauses persist — including across an
    [Unknown] answer, so a later call with a fresh budget resumes with all
    learnt clauses retained.

    [budget] is charged one step per conflict and checked at every conflict
    and periodically between decisions; without it the search is unbounded
    and the answer is always [Sat]/[Unsat].

    Unlike [Sat.Solver], this reference implementation emits no
    telemetry. *)
let solve ?budget ?(assumptions = []) s = solve_raw ?budget ~assumptions s

(** Model access after a [Sat] answer. Unassigned variables read as false. *)
let model_value s v =
  if v < s.nvars then
    match s.assign.(v) with LTrue -> true | LFalse | LUndef -> false
  else false

type stats = {
  vars : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  learnt : int;
  restarts : int;
}

let stats s =
  { vars = s.nvars;
    conflicts = s.conflicts;
    decisions = s.num_decisions;
    propagations = s.propagations;
    learnt = s.learnt_count;
    restarts = s.num_restarts }

let pp_stats fmt st =
  Format.fprintf fmt "vars %d, conflicts %d, decisions %d, propagations %d, learnt %d, restarts %d"
    st.vars st.conflicts st.decisions st.propagations st.learnt st.restarts
