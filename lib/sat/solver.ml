(** Conflict-driven clause learning SAT solver — allocation-free core.

    Same algorithm family as classic MiniSat: two-watched-literal
    propagation, first-UIP learning, VSIDS activity, Luby restarts, phase
    saving, incremental solving under assumptions. The data layout is flat
    mutable arrays throughout:

    - the trail is a preallocated [lit array] plus a length; decision
      levels are trail *offsets* stored in [trail_lim] (no per-decision
      trail snapshots);
    - the propagation queue is a head pointer [qhead] into the trail;
    - literal values are kept per literal beside the per-variable
      assignment, so reading one during propagation is a single load;
    - the decision order is a binary heap keyed by activity ({!Var_heap}),
      ties to the lowest index: it picks the variable a linear scan for
      the first maximum would, at logarithmic instead of linear cost per
      decision;
    - clauses live inline in one [int array] arena, and a clause is its
      offset there: watch lists, antecedents, the learnt database and
      clause groups hold offsets, so propagation stores no pointer and
      pays no write barrier. Deleted clauses leave garbage that an
      in-place compaction reclaims once it passes a fifth of the arena;
    - watch lists are growable int vectors compacted in place during
      propagation (no cons cells on the hot path);
    - conflict analysis uses a reusable [seen] bitmap with an explicit
      undo list and a reusable literal buffer (no per-conflict Hashtbl).

    Learnt clauses live in a real database: each carries an activity and
    an LBD (literal block distance) score, and [reduce_db] periodically
    drops the cold half — skipping binary clauses, low-LBD "glue" clauses
    and clauses currently acting as a reason — so long incremental runs
    (SAT attack, ATPG) stop growing memory without bound.

    Clause groups retire at the cost of the group: each group records the
    clauses it created, and when its activation unit is the only new root
    literal only those clauses and the learnt database are visited.

    Literal encoding: variable [v >= 0]; positive literal [2v], negative
    [2v+1]. *)

module T = Eda_util.Telemetry

type lit = int

let lit_of_var v ~sign = if sign then 2 * v else (2 * v) + 1
let var_of_lit l = l / 2
let pos l = l land 1 = 0
let negate l = l lxor 1

type lbool = LTrue | LFalse | LUndef

(* --- the clause arena ----------------------------------------------------

   A clause is an offset [c] into [t.arena]:
   - [arena.(c)], the header: the two flags below, and the size in bits
     2..31 (a collection parks the clause's new offset above them);
   - [arena.(c+1 .. c+size)], the literals; the watched two come first;
   - learnt clauses only: [arena.(c+size+1)], the LBD, and
     [arena.(c+size+2)], the activity's bits.
   A deleted clause stays in place, counted in [wasted], until a
   collection slides the live ones down over it. *)

let deleted_bit = 1
let learnt_bit = 2

(* Stands for "no clause" in the antecedent array and as the "no
   conflict" return of [propagate]. *)
let no_clause = -1

let[@inline] size_of (a : int array) c = a.(c) lsr 2
let is_learnt (a : int array) c = a.(c) land learnt_bit <> 0
let is_deleted (a : int array) c = a.(c) land deleted_bit <> 0
let words_of_header h = (h lsr 2) + if h land learnt_bit <> 0 then 3 else 1

(* Activities are non-negative, so a double's sign bit is always 0 and
   its other 63 bits fit an OCaml int exactly. *)
let[@inline] clause_activity (a : int array) c =
  Int64.float_of_bits (Int64.logand (Int64.of_int a.(c + size_of a c + 2)) Int64.max_int)

let[@inline] set_clause_activity (a : int array) c x =
  a.(c + size_of a c + 2) <- Int64.to_int (Int64.bits_of_float x)

let clause_lbd (a : int array) c = a.(c + size_of a c + 1)

(* A clause group: clauses guarded by a shared activation variable (see
   the clause-group section below). [members] are the offsets of the
   clauses {!add_clause_in} created. *)
type group = { act : int; mutable retired : bool; mutable members : int list }

type t = {
  mutable nvars : int;
  mutable num_clauses : int;  (* live problem (non-learnt) clauses *)
  mutable arena : int array;
  mutable arena_len : int;  (* words in use *)
  mutable wasted : int;  (* words of deleted clauses *)
  mutable groups : group list;  (* unretired groups, whose members a collection moves *)
  (* Watch vectors: [watches.(l)] holds the clauses in which [negate l] is
     a watched literal; [watch_len.(l)] is the live prefix length. *)
  mutable watches : int array array;
  mutable watch_len : int array;
  mutable dirty : bool array;  (* per literal: watch vector awaits compaction *)
  mutable assign : lbool array;  (* per variable *)
  mutable vals : lbool array;  (* per literal: [value_lit] in one load *)
  mutable level : int array;  (* decision level per variable *)
  mutable reason : int array;  (* antecedent per variable; no_clause = none *)
  mutable trail : lit array;
  mutable trail_len : int;
  mutable qhead : int;  (* next trail index to propagate *)
  (* A conflict was found at the root: the formula is unsatisfiable, and
     every later [solve] answers Unsat without propagating again. *)
  mutable root_conflict : bool;
  mutable trail_lim : int array;  (* trail offset at each decision level *)
  mutable lim_len : int;  (* current decision level *)
  mutable activity : float array;
  mutable var_inc : float;
  order : Var_heap.t;  (* holds every unassigned decision variable *)
  mutable phase : bool array;
  mutable decision : bool array;  (* per variable: may the search branch on it *)
  (* Root trail length at the end of the last root sweep: no live clause
     is satisfied by [trail.(0 .. swept-1)]. *)
  mutable swept : int;
  (* Learnt-clause database. *)
  mutable learnts : int array;
  mutable learnt_len : int;
  mutable cla_inc : float;
  mutable max_learnts : int;  (* 0 = automatic limit *)
  mutable db_reduction_enabled : bool;
  (* Reusable conflict-analysis scratch. *)
  mutable seen : bool array;
  mutable seen_touched : int array;
  mutable learnt_buf : lit array;
  mutable lbd_stamp : int array;
  mutable lbd_counter : int;
  (* Counters. *)
  mutable conflicts : int;
  mutable num_decisions : int;
  mutable propagations : int;
  mutable learnt_count : int;  (* total clauses ever learnt *)
  mutable num_restarts : int;
  mutable db_reductions : int;
  mutable clauses_deleted : int;
}

let create () =
  { nvars = 0;
    num_clauses = 0;
    arena = Array.make 64 0;
    arena_len = 0;
    wasted = 0;
    groups = [];
    watches = Array.make 16 [||];
    watch_len = Array.make 16 0;
    dirty = Array.make 16 false;
    assign = Array.make 8 LUndef;
    vals = Array.make 16 LUndef;
    level = Array.make 8 0;
    reason = Array.make 8 no_clause;
    trail = Array.make 8 0;
    trail_len = 0;
    qhead = 0;
    root_conflict = false;
    trail_lim = Array.make 9 0;
    lim_len = 0;
    activity = Array.make 8 0.0;
    var_inc = 1.0;
    order = Var_heap.create ();
    phase = Array.make 8 false;
    decision = Array.make 8 true;
    swept = 0;
    learnts = Array.make 16 no_clause;
    learnt_len = 0;
    cla_inc = 1.0;
    max_learnts = 0;
    db_reduction_enabled = true;
    seen = Array.make 8 false;
    seen_touched = Array.make 8 0;
    learnt_buf = Array.make 9 0;
    lbd_stamp = Array.make 9 0;
    lbd_counter = 0;
    conflicts = 0;
    num_decisions = 0;
    propagations = 0;
    learnt_count = 0;
    num_restarts = 0;
    db_reductions = 0;
    clauses_deleted = 0 }

let ensure_var s v =
  if v >= s.nvars then begin
    let need = v + 1 in
    if 2 * need > Array.length s.watches then begin
      let cap = max (2 * need) (2 * Array.length s.watches) in
      let watches = Array.make cap [||] in
      Array.blit s.watches 0 watches 0 (2 * s.nvars);
      s.watches <- watches;
      let wl = Array.make cap 0 in
      Array.blit s.watch_len 0 wl 0 (2 * s.nvars);
      s.watch_len <- wl;
      s.dirty <- Array.make cap false;
      let vals = Array.make cap LUndef in
      Array.blit s.vals 0 vals 0 (2 * s.nvars);
      s.vals <- vals;
      let vars = cap / 2 in
      let grow_arr a def =
        let b = Array.make vars def in
        Array.blit a 0 b 0 s.nvars;
        b
      in
      s.assign <- grow_arr s.assign LUndef;
      s.level <- grow_arr s.level 0;
      s.activity <- grow_arr s.activity 0.0;
      s.phase <- grow_arr s.phase false;
      s.decision <- grow_arr s.decision true;
      s.reason <- grow_arr s.reason no_clause;
      let tr = Array.make vars 0 in
      Array.blit s.trail 0 tr 0 s.trail_len;
      s.trail <- tr;
      let tl = Array.make (vars + 1) 0 in
      Array.blit s.trail_lim 0 tl 0 s.lim_len;
      s.trail_lim <- tl;
      (* Scratch arrays hold no live data outside [analyze]; size-only. *)
      s.seen <- Array.make vars false;
      s.seen_touched <- Array.make vars 0;
      s.learnt_buf <- Array.make (vars + 1) 0;
      s.lbd_stamp <- Array.make (vars + 1) 0;
      s.lbd_counter <- 0;
      Var_heap.reserve s.order vars
    end;
    (* A fresh variable is a decision variable of zero activity and the
       highest index, so it joins the bottom of the order without
       moving. *)
    for v = s.nvars to need - 1 do
      Var_heap.insert s.order s.activity v
    done;
    s.nvars <- need
  end

let new_var s =
  let v = s.nvars in
  ensure_var s v;
  v

(** Allocate [n] consecutive variables, returning the first index. One
    array-growth check instead of [n]. *)
let new_vars s n =
  let v = s.nvars in
  if n > 0 then ensure_var s (v + n - 1);
  v

let value_lit s l = s.vals.(l)

let push_watch s l c =
  let ws = s.watches.(l) in
  let n = s.watch_len.(l) in
  if n >= Array.length ws then begin
    let ws' = Array.make (max 4 (2 * n)) no_clause in
    Array.blit ws 0 ws' 0 n;
    ws'.(n) <- c;
    s.watches.(l) <- ws'
  end
  else ws.(n) <- c;
  s.watch_len.(l) <- n + 1

let push_learnt s c =
  let n = s.learnt_len in
  if n >= Array.length s.learnts then begin
    let ls = Array.make (max 16 (2 * n)) no_clause in
    Array.blit s.learnts 0 ls 0 n;
    s.learnts <- ls
  end;
  s.learnts.(n) <- c;
  s.learnt_len <- n + 1

(* Append the header of a clause of [size] literals (a learnt one also
   gets its LBD and activity words) and return its offset; the caller
   writes the literals. *)
let alloc_clause s ~learnt size =
  let words = if learnt then size + 3 else size + 1 in
  let c = s.arena_len in
  if c + words > Array.length s.arena then begin
    let a = Array.make (max (c + words) (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 c;
    s.arena <- a
  end;
  s.arena.(c) <- (size lsl 2) lor if learnt then learnt_bit else 0;
  s.arena_len <- c + words;
  c

(* Mark a clause deleted; its words stay in the arena until the next
   collection. *)
let delete_clause s c =
  let a = s.arena in
  a.(c) <- a.(c) lor deleted_bit;
  s.wasted <- s.wasted + words_of_header a.(c)

let enqueue s l reason =
  let v = var_of_lit l in
  s.assign.(v) <- (if pos l then LTrue else LFalse);
  s.vals.(l) <- LTrue;
  s.vals.(negate l) <- LFalse;
  s.level.(v) <- s.lim_len;
  s.reason.(v) <- reason;
  s.phase.(v) <- pos l;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let new_decision s l =
  s.trail_lim.(s.lim_len) <- s.trail_len;
  s.lim_len <- s.lim_len + 1;
  enqueue s l no_clause

exception Unsat_root

(* The antecedent of an unassigned variable is left stale: only the
   antecedents of assigned variables are ever read ([analyze], [locked])
   or moved by a collection. *)
let backtrack s target_level =
  if s.lim_len > target_level then begin
    let bound = s.trail_lim.(target_level) in
    for i = s.trail_len - 1 downto bound do
      let l = s.trail.(i) in
      let v = var_of_lit l in
      s.assign.(v) <- LUndef;
      s.vals.(l) <- LUndef;
      s.vals.(negate l) <- LUndef;
      if s.decision.(v) then Var_heap.insert s.order s.activity v
    done;
    s.trail_len <- bound;
    s.qhead <- bound;
    s.lim_len <- target_level
  end

(* Sorted, a literal's negation is its neighbour: [2v] and [2v+1]. *)
let rec tautology = function
  | a :: (b :: _ as rest) -> b = negate a || tautology rest
  | [] | [ _ ] -> false

(* [add_clause], returning the clause it created, or [no_clause] when it
   created none (a tautology, a root-satisfied clause or a unit). *)
let add_clause_ret s lits =
  backtrack s 0;
  let lits = List.sort_uniq Int.compare lits in
  if tautology lits then no_clause
  else begin
    List.iter (fun l -> ensure_var s (var_of_lit l)) lits;
    (* Drop root-level false literals. *)
    let lits = List.filter (fun l -> value_lit s l <> LFalse) lits in
    let already_sat = List.exists (fun l -> value_lit s l = LTrue) lits in
    if already_sat then no_clause
    else
      match lits with
      | [] -> raise Unsat_root
      | [ l ] ->
        enqueue s l no_clause;
        no_clause
      | l0 :: l1 :: _ ->
        let c = alloc_clause s ~learnt:false (List.length lits) in
        List.iteri (fun k l -> s.arena.(c + 1 + k) <- l) lits;
        s.num_clauses <- s.num_clauses + 1;
        push_watch s (negate l0) c;
        push_watch s (negate l1) c;
        c
  end

(** Add a clause; simplifies trivially satisfied/duplicate literals.
    Backtracks to the root level first, so it is safe to call between
    incremental [solve] invocations. Raises [Unsat_root] if the clause is
    falsified at level 0. *)
let add_clause s lits = ignore (add_clause_ret s lits)

(* Propagate everything pending on the trail; returns the conflicting
   clause, or [no_clause] if none. Watch vectors are compacted in place:
   clauses that found a new watch elsewhere are dropped from this vector
   with no allocation. Nothing here grows the arena or the value arrays,
   so both are read once. *)
let propagate s =
  let conflict = ref no_clause in
  let a = s.arena and vals = s.vals in
  while !conflict = no_clause && s.qhead < s.trail_len do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let ws = s.watches.(l) in
    let n = s.watch_len.(l) in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = ws.(!i) in
      incr i;
      if !conflict <> no_clause then begin
        (* Conflict found: keep the remaining clauses watched unchanged. *)
        ws.(!keep) <- c;
        incr keep
      end
      else begin
        (* Ensure the false literal is at position 1. *)
        let falsified = negate l in
        if a.(c + 1) = falsified then begin
          a.(c + 1) <- a.(c + 2);
          a.(c + 2) <- falsified
        end;
        let first = a.(c + 1) in
        if vals.(first) = LTrue then begin
          (* Satisfied; keep watching. *)
          ws.(!keep) <- c;
          incr keep
        end
        else begin
          (* Find a new literal to watch. *)
          let stop = c + 1 + size_of a c in
          let found = ref false in
          let k = ref (c + 3) in
          while (not !found) && !k < stop do
            let lk = a.(!k) in
            if vals.(lk) <> LFalse then begin
              a.(!k) <- a.(c + 2);
              a.(c + 2) <- lk;
              (* The new watch is non-false while [negate l] is false, so
                 this registers under a different literal — safe while
                 iterating over [ws]. *)
              push_watch s (negate lk) c;
              found := true
            end;
            incr k
          done;
          if not !found then begin
            (* Unit or conflict; stays watched here. *)
            ws.(!keep) <- c;
            incr keep;
            match vals.(first) with
            | LFalse -> conflict := c
            | LUndef -> enqueue s first c
            | LTrue -> ()
          end
        end
      end
    done;
    s.watch_len.(l) <- !keep
  done;
  if !conflict <> no_clause then begin
    s.qhead <- s.trail_len;
    if s.lim_len = 0 then s.root_conflict <- true
  end;
  !conflict

(* Refill the decision order with every unassigned decision variable. *)
let rebuild_order s =
  let assign = s.assign and decision = s.decision in
  Var_heap.rebuild s.order s.activity ~n:s.nvars (fun v -> assign.(v) = LUndef && decision.(v))

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100;
    (* The rescale can round distinct activities into ties, which the
       index order must then break: rebuild rather than sift. *)
    rebuild_order s
  end
  else Var_heap.increase s.order s.activity v

let decay s = s.var_inc <- s.var_inc /. 0.95

let bump_clause s c =
  let a = s.arena in
  let act = clause_activity a c +. s.cla_inc in
  set_clause_activity a c act;
  if act > 1e20 then begin
    for i = 0 to s.learnt_len - 1 do
      let d = s.learnts.(i) in
      set_clause_activity a d (clause_activity a d *. 1e-20)
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clause s = s.cla_inc <- s.cla_inc /. 0.999

(* LBD (literal block distance): number of distinct decision levels among
   a clause's literals. Computed with a per-level stamp array — no set
   allocation. Must run before backtracking invalidates the levels. *)
let compute_lbd s buf len =
  s.lbd_counter <- s.lbd_counter + 1;
  let stamp = s.lbd_stamp and c = s.lbd_counter in
  let lbd = ref 0 in
  for j = 0 to len - 1 do
    let lv = s.level.(var_of_lit buf.(j)) in
    if stamp.(lv) <> c then begin
      stamp.(lv) <- c;
      incr lbd
    end
  done;
  !lbd

(* First-UIP learning. Fills [s.learnt_buf] with the learnt clause
   (asserting literal at index 0) and returns (length, backtrack level,
   lbd). Scratch state ([seen], [learnt_buf]) is reused across conflicts;
   [seen] is undone via the [seen_touched] list. *)
let analyze s conflict =
  let current_level = s.lim_len in
  let counter = ref 0 in
  let learnt_len = ref 1 in  (* slot 0 reserved for the asserting literal *)
  let touched = ref 0 in
  let absorb c =
    let a = s.arena in
    if is_learnt a c then bump_clause s c;
    for k = c + 1 to c + size_of a c do
      let q = a.(k) in
      let v = var_of_lit q in
      if (not s.seen.(v)) && s.assign.(v) <> LUndef then begin
        s.seen.(v) <- true;
        s.seen_touched.(!touched) <- v;
        incr touched;
        bump s v;
        if s.level.(v) = current_level then incr counter
        else if s.level.(v) > 0 then begin
          s.learnt_buf.(!learnt_len) <- q;
          incr learnt_len
        end
      end
    done
  in
  absorb conflict;
  (* Walk the trail backwards until one current-level literal remains. *)
  let idx = ref (s.trail_len - 1) in
  let asserting = ref (-1) in
  let continue = ref true in
  while !continue do
    if !idx < 0 then continue := false
    else begin
      let p = s.trail.(!idx) in
      decr idx;
      let v = var_of_lit p in
      if s.seen.(v) && s.level.(v) = current_level then begin
        decr counter;
        if !counter = 0 then begin
          asserting := negate p;
          continue := false
        end
        else begin
          let r = s.reason.(v) in
          if r <> no_clause then absorb r
        end
      end
    end
  done;
  s.learnt_buf.(0) <- !asserting;
  let back = ref 0 in
  for j = 1 to !learnt_len - 1 do
    let lv = s.level.(var_of_lit s.learnt_buf.(j)) in
    if lv > !back then back := lv
  done;
  let lbd = compute_lbd s s.learnt_buf !learnt_len in
  for j = 0 to !touched - 1 do
    s.seen.(s.seen_touched.(j)) <- false
  done;
  (!learnt_len, !back, lbd)

(* A learnt clause may not be deleted while it is the antecedent of an
   assignment still on the trail (its implied literal sits at index 0 by
   the propagation invariant). *)
let locked s c =
  let l0 = s.arena.(c + 1) in
  value_lit s l0 <> LUndef && s.reason.(var_of_lit l0) = c

(* Drop the deleted clauses from the watch vector of [l], keeping the
   order of the rest. *)
let compact_watch s l =
  let ws = s.watches.(l) in
  let keep = ref 0 in
  for j = 0 to s.watch_len.(l) - 1 do
    let c = ws.(j) in
    if not (is_deleted s.arena c) then begin
      ws.(!keep) <- c;
      incr keep
    end
  done;
  s.watch_len.(l) <- !keep

(* Drop the deleted clauses from the learnt database, keeping the order of
   the rest. *)
let compact_learnts s =
  let n = s.learnt_len in
  let keep = ref 0 in
  for j = 0 to n - 1 do
    let c = s.learnts.(j) in
    if not (is_deleted s.arena c) then begin
      s.learnts.(!keep) <- c;
      incr keep
    end
  done;
  s.learnt_len <- !keep

(* Slide every live clause down over the deleted ones, in address order
   and inside the arena itself, and move each offset that refers to one.
   Three passes: park each live clause's new offset in its header's bits
   32..61; move the references — the learnt database, the watch table,
   the antecedents on the trail and the members of unretired groups (a
   member deleted while its group is live leaves the list); then slide.
   A clause never moves up, so the slide overwrites nothing it has yet
   to read. Watch vectors, the learnt database and every clause's
   literal order are unchanged, so the search is too. Runs only where no
   watch vector or learnt slot holds a deleted clause. *)
let collect_garbage s =
  let a = s.arena and len = s.arena_len in
  assert (len < 1 lsl 30);
  let forward c = a.(c) lsr 32 in
  let dst = ref 0 and c = ref 0 in
  while !c < len do
    let h = a.(!c) in
    if h land deleted_bit = 0 then begin
      a.(!c) <- h lor (!dst lsl 32);
      dst := !dst + words_of_header h
    end;
    c := !c + words_of_header h
  done;
  for j = 0 to s.learnt_len - 1 do
    s.learnts.(j) <- forward s.learnts.(j)
  done;
  for l = 0 to (2 * s.nvars) - 1 do
    let ws = s.watches.(l) in
    for j = 0 to s.watch_len.(l) - 1 do
      ws.(j) <- forward ws.(j)
    done
  done;
  for i = 0 to s.trail_len - 1 do
    let v = var_of_lit s.trail.(i) in
    if s.reason.(v) <> no_clause then s.reason.(v) <- forward s.reason.(v)
  done;
  List.iter
    (fun g ->
      g.members <-
        List.filter_map (fun c -> if is_deleted a c then None else Some (forward c)) g.members)
    s.groups;
  let c = ref 0 in
  while !c < len do
    let h = a.(!c) land ((1 lsl 32) - 1) in
    let words = words_of_header h in
    if h land deleted_bit = 0 then begin
      let c' = forward !c in
      a.(c') <- h;
      Array.blit a (!c + 1) a (c' + 1) (words - 1)
    end;
    c := !c + words
  done;
  s.arena_len <- !dst;
  s.wasted <- 0

(* MiniSat's policy: collect once deleted clauses fill a fifth of the
   arena. *)
let maybe_collect_garbage s = if s.wasted > s.arena_len / 5 then collect_garbage s

(** Drop the cold half of the learnt database: clauses are ranked by
    activity and deleted coldest-first, skipping binary clauses (cheap and
    valuable), "glue" clauses with LBD <= 2, and locked (reason) clauses.
    Watch vectors are swept eagerly so the hot propagation loop never
    tests a deletion flag. *)
let reduce_db s =
  let n = s.learnt_len in
  if n > 0 then begin
    let a = s.arena in
    let live = Array.sub s.learnts 0 n in
    Array.sort (fun x y -> Float.compare (clause_activity a x) (clause_activity a y)) live;
    let target = n / 2 in
    let deleted = ref 0 in
    let i = ref 0 in
    while !deleted < target && !i < n do
      let c = live.(!i) in
      incr i;
      if size_of a c > 2 && clause_lbd a c > 2 && not (locked s c) then begin
        delete_clause s c;
        incr deleted
      end
    done;
    if !deleted > 0 then begin
      for l = 0 to (2 * s.nvars) - 1 do
        compact_watch s l
      done;
      compact_learnts s;
      maybe_collect_garbage s;
      s.db_reductions <- s.db_reductions + 1;
      s.clauses_deleted <- s.clauses_deleted + !deleted;
      T.count "sat.db_reduced" 1;
      T.count "sat.clauses_deleted" !deleted
    end
  end

(* Back at the root, re-propagate the whole root trail, then detach its
   antecedents. A conflict here means the formula is root-unsat, and
   [propagate] records it, so every later [solve] answers Unsat; a sweep
   after it is sound anyway, because it only removes root-SATISFIED
   clauses and a conflicting clause (every literal false) is never one of
   them. The whole trail is level 0 and conflict analysis skips
   level-0 literals, so no antecedent on it will ever be consulted again.
   Detaching them unlocks clauses that both imply a root literal and are
   root-satisfied — e.g. a group clause whose base literals were all
   root-falsified, leaving it to force its own activation variable — so a
   sweep can reclaim them: with every antecedent detached, no clause is
   locked. *)
let root_propagate s =
  backtrack s 0;
  s.qhead <- 0;
  ignore (propagate s);
  for i = 0 to s.trail_len - 1 do
    s.reason.(var_of_lit s.trail.(i)) <- no_clause
  done

(* At the root the whole trail is level 0, so a true literal is a
   root-true literal. *)
let root_satisfied s c =
  let a = s.arena in
  let stop = c + 1 + size_of a c in
  let sat = ref false in
  let k = ref (c + 1) in
  while (not !sat) && !k < stop do
    if value_lit s a.(!k) = LTrue then sat := true;
    incr k
  done;
  !sat

(* Book the clauses a sweep deleted and mark the root trail swept. *)
let finish_sweep s ~removed_problem ~removed_learnt =
  if removed_learnt > 0 then compact_learnts s;
  s.num_clauses <- s.num_clauses - removed_problem;
  s.clauses_deleted <- s.clauses_deleted + removed_learnt;
  s.swept <- s.trail_len;
  maybe_collect_garbage s

(* Delete every root-satisfied clause in the watch table. Runs after
   [root_propagate]. *)
let sweep_all s =
  let removed_problem = ref 0 and removed_learnt = ref 0 in
  for l = 0 to (2 * s.nvars) - 1 do
    let ws = s.watches.(l) in
    for j = 0 to s.watch_len.(l) - 1 do
      let c = ws.(j) in
      if (not (is_deleted s.arena c)) && root_satisfied s c then begin
        delete_clause s c;
        if is_learnt s.arena c then incr removed_learnt else incr removed_problem
      end
    done
  done;
  if !removed_problem > 0 || !removed_learnt > 0 then
    for l = 0 to (2 * s.nvars) - 1 do
      compact_watch s l
    done;
  finish_sweep s ~removed_problem:!removed_problem ~removed_learnt:!removed_learnt

(** Remove every clause satisfied at the root level from the watch lists
    and the learnt database. Sound unconditionally: a root-satisfied
    clause can never propagate or conflict again. Root antecedents are
    detached first — conflict analysis never consults reasons of level-0
    literals, so clauses locked only by a root assignment can be
    reclaimed too. This is what makes {!retire_group} actually reclaim memory —
    a retired group's clauses, and every learnt clause derived from them
    (all of which contain the group's negated activation literal), become
    root-satisfied and are swept instead of lingering as watch-list
    noise for the rest of an incremental session. *)
let simplify s =
  root_propagate s;
  sweep_all s

(* --- clause groups ---------------------------------------------------- *)

(* Every clause added through {!add_clause_in} carries the extra literal
   [¬act], so a group is inert unless a solve assumes {!group_lit} (the
   positive activation literal). Retiring the group root-falsifies the
   activation variable, permanently satisfying the group's clauses and
   every learnt clause derived from them — resolution can never
   eliminate [¬act] because no clause contains the positive literal.
   [members] lets retirement find the group's clauses without sweeping
   the whole watch table. *)

let new_group s =
  let g = { act = new_var s; retired = false; members = [] } in
  s.groups <- g :: s.groups;
  g

let group_lit g = lit_of_var g.act ~sign:true

let add_clause_in s g lits =
  if g.retired then invalid_arg "Solver.add_clause_in: group already retired";
  let c = add_clause_ret s (lit_of_var g.act ~sign:false :: lits) in
  if c <> no_clause then g.members <- c :: g.members

(* The sweep of [sweep_all], at the cost of the group, for a root trail
   whose only literal since the last sweep is [¬act]. Every clause that
   literal newly satisfies contains [¬act]: a member of the group, or a
   learnt clause derived from one (no other clause mentions [act], by
   {!add_clause_in}'s contract). Nothing else can be root-satisfied —
   the last sweep removed every clause the older root literals satisfy,
   later problem clauses were skipped when root-satisfied, and learnt
   clauses never contain root literals. Deleting that set and compacting
   only the watch vectors it occupied (a clause is watched under the
   negations of its first two literals) leaves every vector and the
   learnt database exactly as [sweep_all] would. *)
let sweep_group s g =
  let removed_problem = ref 0 and removed_learnt = ref 0 in
  let a = s.arena in
  let delete c =
    delete_clause s c;
    s.dirty.(negate a.(c + 1)) <- true;
    s.dirty.(negate a.(c + 2)) <- true
  in
  List.iter
    (fun c ->
      if (not (is_deleted a c)) && root_satisfied s c then begin
        delete c;
        incr removed_problem
      end)
    g.members;
  for j = 0 to s.learnt_len - 1 do
    let c = s.learnts.(j) in
    if root_satisfied s c then begin
      delete c;
      incr removed_learnt
    end
  done;
  (* Compact each vector a deleted clause occupied, once. *)
  let compact_occupied c =
    if is_deleted a c then
      for k = 1 to 2 do
        let l = negate a.(c + k) in
        if s.dirty.(l) then begin
          s.dirty.(l) <- false;
          compact_watch s l
        end
      done
  in
  List.iter compact_occupied g.members;
  for j = 0 to s.learnt_len - 1 do
    compact_occupied s.learnts.(j)
  done;
  finish_sweep s ~removed_problem:!removed_problem ~removed_learnt:!removed_learnt

(** Permanently deactivate a group: a root unit clause falsifies its
    activation variable, then the now root-satisfied member clauses and
    their learnt descendants are physically removed. When [¬act] is the
    only root literal since the last sweep, only those clauses are visited
    ({!sweep_group}); otherwise the whole watch table is swept, as
    {!simplify} does. Idempotent. *)
let retire_group s g =
  if not g.retired then begin
    g.retired <- true;
    s.groups <- List.filter (fun h -> h != g) s.groups;
    let deact = lit_of_var g.act ~sign:false in
    add_clause s [ deact ];
    root_propagate s;
    if s.trail_len = s.swept + 1 && s.trail.(s.swept) = deact then sweep_group s g
    else sweep_all s;
    g.members <- [];
    T.count "sat.groups_retired" 1
  end

(** Reset the decision heuristic — VSIDS activities and saved phases —
    to a fresh solver's initial state (all-zero activity makes the
    decision order fall back to variable index; all-false phases match
    [create]'s default); the decision order is rebuilt to match.
    Incremental sessions reset between unrelated queries: activity
    earned on one query's fault cone is noise for the next, and with
    zero activity the search order is fixed, so stale phases can
    deterministically replay a bad subtree that restarts cannot escape —
    both were observed as orders-of-magnitude conflict blow-ups. Only
    the learnt clauses persist. Variables at or above [nvars] already
    hold zero activity and a false phase (fresh capacity is created so
    and {!shrink_vars} clears what it releases), so only the live range
    is filled. *)
let reset_activity s =
  Array.fill s.activity 0 s.nvars 0.0;
  Array.fill s.phase 0 s.nvars false;
  rebuild_order s

(** Roll variable allocation back to [n] variables. The caller must have
    removed every clause mentioning a variable [>= n] first — the
    intended discipline is per-query variables above a fixed floor,
    all guarded by one group, with {!retire_group} run before the
    shrink. Root assignments of released variables are dropped from the
    trail and their activity, saved phase and decision flag reset, so
    re-allocating the same indices behaves like fresh variables; the
    survivors' decision
    heuristic is then reset as {!reset_activity} does, ready for the
    next query, with one rebuild of the decision order. Keeps
    incremental sessions' variable range (and the decision order)
    bounded by one query's footprint instead of growing with session
    length. *)
let shrink_vars s n =
  if n < 0 || n > s.nvars then invalid_arg "Solver.shrink_vars";
  backtrack s 0;
  (* Filter the root trail; the swept mark moves with the literals it
     covers, so dropping a retired activation unit keeps the trail swept. *)
  let keep = ref 0 and swept = ref 0 in
  for i = 0 to s.trail_len - 1 do
    let l = s.trail.(i) in
    if var_of_lit l < n then begin
      s.trail.(!keep) <- l;
      incr keep
    end;
    if i < s.swept then swept := !keep
  done;
  s.trail_len <- !keep;
  s.swept <- !swept;
  s.qhead <- 0;
  for v = n to s.nvars - 1 do
    (* Released variables must be clause-free by the caller's contract. *)
    assert (s.watch_len.(2 * v) = 0 && s.watch_len.((2 * v) + 1) = 0);
    s.assign.(v) <- LUndef;
    s.vals.(2 * v) <- LUndef;
    s.vals.((2 * v) + 1) <- LUndef;
    s.level.(v) <- 0;
    s.reason.(v) <- no_clause;
    s.activity.(v) <- 0.0;
    s.phase.(v) <- false;
    s.decision.(v) <- true
  done;
  s.nvars <- n;
  reset_activity s

(** Override the automatic learnt-DB limit ([max 2000 #clauses]); [0]
    restores the automatic limit. *)
let set_learnt_limit s n = s.max_learnts <- n

(** Enable/disable periodic DB reduction (on by default). *)
let set_db_reduction s on = s.db_reduction_enabled <- on

let effective_learnt_limit s =
  if s.max_learnts > 0 then s.max_learnts else max 2000 s.num_clauses

let maybe_reduce_db s =
  if s.db_reduction_enabled then begin
    let limit = effective_learnt_limit s in
    if s.learnt_len > limit then begin
      reduce_db s;
      (* Let the DB grow a little before the next reduction. *)
      s.max_learnts <- limit + (limit / 10) + 16
    end
  end

(* The next decision literal, or [-1] when every decision variable is
   assigned: the unassigned decision variable of highest activity, ties
   to the lowest index, in its saved phase. Assigned variables still in
   the order, and variables whose flag was cleared there, are dropped as
   they surface; [backtrack] and {!set_decision} put them back. *)
let rec pick_branch s =
  let v = Var_heap.pop s.order s.activity in
  if v < 0 then -1
  else if s.assign.(v) <> LUndef || not s.decision.(v) then pick_branch s
  else lit_of_var v ~sign:s.phase.(v)

(** MiniSat's decision-variable flag: [set_decision s v false] stops the
    search from branching on [v], which then takes a value only by
    propagation. Clearing a flag is lazy (the variable leaves the order
    when it surfaces); setting one puts an unassigned variable back. *)
let set_decision s v b =
  if v < 0 || v >= s.nvars then invalid_arg "Solver.set_decision";
  s.decision.(v) <- b;
  if b && s.assign.(v) = LUndef then Var_heap.insert s.order s.activity v

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

(* Record a freshly learnt clause (length >= 2, in learnt_buf), watch it
   and enqueue its asserting literal. Runs right after backtracking. *)
let record_learnt s len lbd =
  let buf = s.learnt_buf in
  (* Watch the asserting literal and a highest-level tail literal, so the
     clause wakes up exactly when it can propagate again. *)
  let best = ref 1 in
  for j = 2 to len - 1 do
    if s.level.(var_of_lit buf.(j)) > s.level.(var_of_lit buf.(!best)) then best := j
  done;
  let tmp = buf.(1) in
  buf.(1) <- buf.(!best);
  buf.(!best) <- tmp;
  let c = alloc_clause s ~learnt:true len in
  let a = s.arena in
  Array.blit buf 0 a (c + 1) len;
  a.(c + len + 1) <- lbd;
  set_clause_activity a c s.cla_inc;
  push_learnt s c;
  s.learnt_count <- s.learnt_count + 1;
  push_watch s (negate buf.(0)) c;
  push_watch s (negate buf.(1)) c;
  if value_lit s buf.(0) = LUndef then enqueue s buf.(0) c;
  maybe_reduce_db s

(* The search loop proper; [solve] below wraps it in a telemetry span. *)
let solve_raw ?budget ~assumptions s =
  (* Back at the root, propagate from the first root literal not yet
     propagated: units enqueued by [add_clause] since the last call. The
     literals before it need no second visit, since a clause added since
     then watches no assigned literal ([add_clause] drops root-false
     literals and skips root-true clauses). A root conflict, here or in
     an earlier call, makes the answer Unsat for good. *)
  backtrack s 0;
  if s.root_conflict || propagate s <> no_clause then Unsat
  else begin
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
           new_decision s a;
           if propagate s <> no_clause then false else install rest)
    in
    if not (install assumptions) then Unsat
    else begin
      (* An assumption already true when installed opens no level, so
         count the levels actually open, not the list length: a conflict
         at a deeper level involves a free decision and refutes nothing. *)
      let assumption_levels = s.lim_len in
      while !result = None do
        let conflict = propagate s in
        if conflict <> no_clause then begin
          s.conflicts <- s.conflicts + 1;
          (* One budget step per conflict; a definite Unsat at assumption
             level still wins over Unknown. *)
          let stop =
            match budget with
            | None -> None
            | Some b ->
              (match Eda_util.Budget.spend b with Ok () -> None | Error e -> Some e)
          in
          if s.lim_len <= assumption_levels then result := Some Unsat
          else begin
            match stop with
            | Some e -> result := Some (Unknown e)
            | None ->
              let len, back, lbd = analyze s conflict in
              let back = max back assumption_levels in
              backtrack s back;
              (if len = 1 then begin
                 let l = s.learnt_buf.(0) in
                 if value_lit s l = LFalse then result := Some Unsat
                 else if value_lit s l = LUndef then enqueue s l no_clause
               end
               else record_learnt s len lbd);
              decay s;
              decay_clause s;
              decr conflicts_until_restart;
              if !conflicts_until_restart <= 0 && !result = None then begin
                incr restart_count;
                s.num_restarts <- s.num_restarts + 1;
                conflicts_until_restart := 32 * luby !restart_count;
                backtrack s assumption_levels
              end
          end
        end
        else begin
          (* Deadline/cancellation check between decisions, so an instance
             propagating without conflicts still honours its budget. *)
          let stop =
            match budget with
            | Some b when s.num_decisions land 255 = 0 -> Eda_util.Budget.status b
            | Some _ | None -> None
          in
          match stop with
          | Some e -> result := Some (Unknown e)
          | None ->
            let l = pick_branch s in
            if l < 0 then result := Some Sat
            else begin
              s.num_decisions <- s.num_decisions + 1;
              new_decision s l
            end
        end
      done;
      match !result with
      | Some r -> r
      | None -> assert false
    end
  end

(** Solve under [assumptions]. The solver state is reusable across calls
    (incremental interface); learnt clauses persist — including across an
    [Unknown] answer, so a later call with a fresh budget resumes with all
    learnt clauses retained (DB reduction only ever drops cold clauses,
    never the whole database).

    [budget] is charged one step per conflict and checked at every conflict
    and periodically between decisions; without it the search is unbounded
    and the answer is always [Sat]/[Unsat].

    With a telemetry sink installed, each call is one [sat.solve] span
    carrying this solve's decision/propagation/conflict/restart deltas as
    counters and a [sat.learnt_db] gauge (the per-conflict hot path itself
    is never instrumented). *)
let solve ?budget ?(assumptions = []) s =
  if not (T.active ()) then solve_raw ?budget ~assumptions s
  else
    T.with_span "sat.solve"
      ~attrs:
        [ ("vars", T.Int s.nvars);
          ("clauses", T.Int s.num_clauses);
          ("assumptions", T.Int (List.length assumptions)) ]
      (fun () ->
        let conflicts0 = s.conflicts
        and decisions0 = s.num_decisions
        and propagations0 = s.propagations
        and restarts0 = s.num_restarts in
        let result = solve_raw ?budget ~assumptions s in
        T.count "sat.conflicts" (s.conflicts - conflicts0);
        T.count "sat.decisions" (s.num_decisions - decisions0);
        T.count "sat.propagations" (s.propagations - propagations0);
        T.count "sat.restarts" (s.num_restarts - restarts0);
        T.gauge "sat.learnt_db" (float_of_int s.learnt_len);
        T.note "sat.result"
          ~attrs:
            [ ("result",
               T.Str
                 (match result with
                  | Sat -> "sat"
                  | Unsat -> "unsat"
                  | Unknown e -> "unknown: " ^ Eda_util.Budget.describe_exhaustion e)) ];
        result)

(** Model access after a [Sat] answer. Unassigned variables read as false. *)
let model_value s v =
  if v < s.nvars then
    match s.assign.(v) with LTrue -> true | LFalse | LUndef -> false
  else false

let learnt_clauses s =
  List.init s.learnt_len (fun j ->
      let c = s.learnts.(j) in
      Array.sub s.arena (c + 1) (size_of s.arena c))

type stats = {
  vars : int;
  clauses : int;  (* live problem clauses *)
  conflicts : int;
  decisions : int;
  propagations : int;
  learnt : int;  (* total clauses ever learnt *)
  learnt_live : int;  (* learnt clauses currently in the database *)
  restarts : int;
  db_reductions : int;
  clauses_deleted : int;
}

let stats s =
  { vars = s.nvars;
    clauses = s.num_clauses;
    conflicts = s.conflicts;
    decisions = s.num_decisions;
    propagations = s.propagations;
    learnt = s.learnt_count;
    learnt_live = s.learnt_len;
    restarts = s.num_restarts;
    db_reductions = s.db_reductions;
    clauses_deleted = s.clauses_deleted }
