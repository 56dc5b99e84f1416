(** Grid placement by simulated annealing on half-perimeter wirelength
    (HPWL) — the physical-synthesis substrate (Fig. 1's place-and-route
    stage). Proximity is the attack surface of split manufacturing: a
    PPA-optimal placer puts connected cells next to each other, which is
    precisely the hint [52]-style attackers exploit. *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng

type t = {
  circuit : Circuit.t;
  cols : int;
  rows : int;
  position : (int * int) array;  (* per node: (col, row) *)
}

(* --- Nets in CSR form --------------------------------------------------- *)

(* Net k is the k-th node with fanout, in ascending id order. Its pins are
   [pins.(pin_start.(k))] (the driver) up to [pins.(pin_start.(k + 1) - 1)],
   one entry per fanin reference. Node v's incident nets are
   [incident.(inc_start.(v))] up to [incident.(inc_start.(v + 1) - 1)], in
   ascending net order with one entry per pin occurrence: a gate that reads
   a net twice lists it twice, so a move's cost counts that net twice, as
   does a net touching both swapped cells. *)
type csr = {
  pin_start : int array;
  pins : int array;
  inc_start : int array;
  incident : int array;
}

let csr circuit =
  let n = Circuit.node_count circuit in
  let { Circuit.fanout_start = start; fanout; _ } = Circuit.view circuit in
  let nets =
    List.filter_map
      (fun d ->
        let degree = start.(d + 1) - start.(d) in
        if degree = 0 then None else Some (Array.append [| d |] (Array.sub fanout start.(d) degree)))
      (List.init n Fun.id)
  in
  let pins = Array.concat nets in
  let pin_start = Array.make (List.length nets + 1) 0 in
  List.iteri (fun k net -> pin_start.(k + 1) <- pin_start.(k) + Array.length net) nets;
  let inc_start = Array.make (n + 1) 0 in
  Array.iter (fun v -> inc_start.(v + 1) <- inc_start.(v + 1) + 1) pins;
  for v = 1 to n do
    inc_start.(v) <- inc_start.(v) + inc_start.(v - 1)
  done;
  let incident = Array.make (Array.length pins) 0 in
  let fill = Array.sub inc_start 0 n in
  List.iteri
    (fun k net ->
      Array.iter
        (fun v ->
          incident.(fill.(v)) <- k;
          fill.(v) <- fill.(v) + 1)
        net)
    nets;
  { pin_start; pins; inc_start; incident }

let net_count g = Array.length g.pin_start - 1

let net_hpwl g xs ys k =
  let p0 = g.pin_start.(k) in
  let d = g.pins.(p0) in
  let lx = ref xs.(d) and hx = ref xs.(d) and ly = ref ys.(d) and hy = ref ys.(d) in
  for p = p0 + 1 to g.pin_start.(k + 1) - 1 do
    let v = g.pins.(p) in
    let x = xs.(v) and y = ys.(v) in
    if x < !lx then lx := x else if x > !hx then hx := x;
    if y < !ly then ly := y else if y > !hy then hy := y
  done;
  !hx - !lx + (!hy - !ly)

(* The perturbation defense's privacy term: minus the summed
   driver-to-consumer distances, which rewards spreading a net apart. *)
let net_privacy g xs ys k =
  let p0 = g.pin_start.(k) in
  let d = g.pins.(p0) in
  let xd = xs.(d) and yd = ys.(d) in
  let acc = ref 0 in
  for p = p0 + 1 to g.pin_start.(k + 1) - 1 do
    let v = g.pins.(p) in
    acc := !acc - (abs (xd - xs.(v)) + abs (yd - ys.(v)))
  done;
  !acc

(* --- The move kernel ---------------------------------------------------- *)

(* Annealing state over flat arrays. [hpwl] (and, when the perturbation
   defense sets [lambda], the privacy term) is cached per net: a move's
   "before" cost is a sum of cached values, its "after" cost rescans the
   touched nets' pins into the [fresh_*] scratch, and an accepted move
   writes the scratch back. *)
type kernel = {
  g : csr;
  xs : int array;
  ys : int array;
  hpwl : int array;
  lambda : float option;  (* price HPWL + lambda x privacy, folded in float *)
  privacy : int array;
  fresh_hpwl : int array;
  fresh_privacy : int array;
}

let kernel ?lambda g position =
  let n = Array.length position in
  let xs = Array.init n (fun v -> fst position.(v)) in
  let ys = Array.init n (fun v -> snd position.(v)) in
  let nets = net_count g in
  let max_degree = ref 0 in
  for v = 0 to n - 1 do
    max_degree := max !max_degree (g.inc_start.(v + 1) - g.inc_start.(v))
  done;
  let scratch = 2 * !max_degree in
  { g;
    xs;
    ys;
    hpwl = Array.init nets (net_hpwl g xs ys);
    lambda;
    privacy = (if Option.is_some lambda then Array.init nets (net_privacy g xs ys) else [||]);
    fresh_hpwl = Array.make scratch 0;
    fresh_privacy = Array.make (if Option.is_some lambda then scratch else 0) 0 }

let wirelength_of k = Array.fold_left ( + ) 0 k.hpwl

let swap k a b =
  let x = k.xs.(a) and y = k.ys.(a) in
  k.xs.(a) <- k.xs.(b);
  k.ys.(a) <- k.ys.(b);
  k.xs.(b) <- x;
  k.ys.(b) <- y

let positions k = Array.init (Array.length k.xs) (fun v -> (k.xs.(v), k.ys.(v)))

type run = { performed : int; accepted : int; rejected : int; final_temp : float }

(* The one annealing loop: pairwise swaps under geometric cooling from
   temperature 8 to 0.05. [budget] is charged one step per attempted move
   and checked every 64 moves. Rng draws per move: two [int]s, then one
   [float] only when the move would raise the cost. The only allocation
   per move is that [float]'s box; [traced] samples the temperature every
   1024 moves. *)
let run k rng ~budget ~traced ~moves =
  let module T = Eda_util.Telemetry in
  let g = k.g in
  let n = Array.length k.xs in
  let t_start = 8.0 and t_end = 0.05 in
  let alpha = (t_end /. t_start) ** (1.0 /. float_of_int moves) in
  let temp = ref t_start in
  let performed = ref 0 and accepted = ref 0 and rejected = ref 0 in
  (* an empty placement has no pair to draw *)
  let stopped = ref (n = 0) in
  while (not !stopped) && !performed < moves do
    (match budget with
     | Some b when !performed land 63 = 0 ->
       Eda_util.Budget.tick ~cost:(min 64 (moves - !performed)) b;
       if Eda_util.Budget.exhausted b then stopped := true
     | Some _ | None -> ());
    if not !stopped then begin
      let a = Rng.int rng n and b = Rng.int rng n in
      if a <> b then begin
        swap k a b;
        (* "before" from the cache, "after" by rescanning, in the order
           the incidence lists give: [a]'s nets, then [b]'s *)
        let touched = ref 0 in
        let before = ref 0 and after = ref 0 in
        let before_f = ref 0.0 and after_f = ref 0.0 in
        for pass = 0 to 1 do
          let v = if pass = 0 then a else b in
          for e = g.inc_start.(v) to g.inc_start.(v + 1) - 1 do
            let net = g.incident.(e) in
            let h = net_hpwl g k.xs k.ys net in
            k.fresh_hpwl.(!touched) <- h;
            (match k.lambda with
             | Some lambda ->
               let p = net_privacy g k.xs k.ys net in
               k.fresh_privacy.(!touched) <- p;
               before_f :=
                 !before_f +. float_of_int k.hpwl.(net)
                 +. (lambda *. float_of_int k.privacy.(net));
               after_f := !after_f +. float_of_int h +. (lambda *. float_of_int p)
             | None ->
               before := !before + k.hpwl.(net);
               after := !after + h);
            incr touched
          done
        done;
        let delta =
          match k.lambda with
          | Some _ -> !after_f -. !before_f
          | None -> float_of_int (!after - !before)
        in
        if delta <= 0.0 || Rng.float rng < exp (-.delta /. !temp) then begin
          incr accepted;
          let j = ref 0 in
          for pass = 0 to 1 do
            let v = if pass = 0 then a else b in
            for e = g.inc_start.(v) to g.inc_start.(v + 1) - 1 do
              let net = g.incident.(e) in
              k.hpwl.(net) <- k.fresh_hpwl.(!j);
              if Option.is_some k.lambda then k.privacy.(net) <- k.fresh_privacy.(!j);
              incr j
            done
          done
        end
        else begin
          incr rejected;
          swap k a b
        end
      end;
      temp := !temp *. alpha;
      incr performed;
      if traced && !performed land 1023 = 0 then T.gauge "placement.temperature" !temp
    end
  done;
  { performed = !performed; accepted = !accepted; rejected = !rejected; final_temp = !temp }

(* --- Placement ---------------------------------------------------------- *)

(** Random initial placement on the smallest near-square grid that fits
    (an empty grid for a zero-node circuit). *)
let initial rng circuit =
  let n = Circuit.node_count circuit in
  let cols = int_of_float (ceil (sqrt (float_of_int n))) in
  let rows = if cols = 0 then 0 else (n + cols - 1) / cols in
  let slots = Array.init (cols * rows) (fun i -> (i mod cols, i / cols)) in
  Rng.shuffle rng slots;
  { circuit; cols; rows; position = Array.sub slots 0 n }

(** Simulated-annealing refinement of [placement] over the nets [g]:
    pairwise swaps, geometric cooling. [budget] is charged one step per
    attempted move and checked every 64 moves; annealing is an anytime
    algorithm, so stopping early degrades quality, not validity. Returns
    the refined placement and the number of moves actually performed.

    Telemetry: a [placement.anneal] span with [placement.moves_accepted] /
    [placement.moves_rejected] counters, a periodic [placement.temperature]
    gauge (every 1024 moves) and a final [placement.final_temperature]
    gauge. Counters are accumulated locally and emitted once at the end of
    the span, so the per-move hot path stays telemetry-free. *)
let anneal_budgeted rng ?(moves = 20_000) ?budget g placement =
  let module T = Eda_util.Telemetry in
  T.with_span "placement.anneal"
    ~attrs:
      [ ("nodes", T.Int (Circuit.node_count placement.circuit));
        ("moves_requested", T.Int moves);
        ("nets", T.Int (net_count g));
        ("pins", T.Int (Array.length g.pins)) ]
  @@ fun () ->
  let k = kernel g placement.position in
  let r = run k rng ~budget ~traced:(T.active ()) ~moves in
  T.count "placement.moves_accepted" r.accepted;
  T.count "placement.moves_rejected" r.rejected;
  T.gauge "placement.final_temperature" r.final_temp;
  ({ placement with position = positions k }, r.performed)

let wirelength placement = wirelength_of (kernel (csr placement.circuit) placement.position)

(** Result of the placement entry point. *)
type outcome = {
  placement : t;
  moves_performed : int;  (* fewer than requested on exhaustion *)
}

(** Full placement flow: random initial placement plus annealing,
    optionally [?budget]-bounded. *)
let place ?moves ?budget rng circuit =
  let module T = Eda_util.Telemetry in
  T.with_span "placement.place" ~attrs:[ ("nodes", T.Int (Circuit.node_count circuit)) ]
  @@ fun () ->
  let placement, moves_performed =
    anneal_budgeted rng ?moves ?budget (csr circuit) (initial rng circuit)
  in
  { placement; moves_performed }

let distance placement a b =
  let xa, ya = placement.position.(a) and xb, yb = placement.position.(b) in
  abs (xa - xb) + abs (ya - yb)

(** Placement perturbation defense [54]: re-place with a privacy term that
    penalizes proximity of connected cells, trading wirelength for
    resistance against proximity attacks. [lambda] weighs the penalty.
    The annealer's move kernel and cooling schedule, priced in float:
    per touched net, HPWL plus [lambda] times the (negative) summed
    driver-to-consumer distance. *)
let perturb rng ~lambda ?(moves = 20_000) placement =
  let k = kernel ~lambda (csr placement.circuit) placement.position in
  ignore (run k rng ~budget:None ~traced:false ~moves : run);
  { placement with position = positions k }
