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

(* Nets as (driver, consumers); geometry treats a net as its pin set. *)
let nets circuit =
  let fanouts = Circuit.fanouts circuit in
  let nets = ref [] in
  Array.iteri
    (fun driver consumers -> if consumers <> [] then nets := (driver, consumers) :: !nets)
    fanouts;
  !nets

let hpwl_of_net position (driver, consumers) =
  let xs = List.map (fun n -> fst position.(n)) (driver :: consumers) in
  let ys = List.map (fun n -> snd position.(n)) (driver :: consumers) in
  let span vs = List.fold_left max min_int vs - List.fold_left min max_int vs in
  span xs + span ys

let total_hpwl position net_list =
  List.fold_left (fun acc net -> acc + hpwl_of_net position net) 0 net_list

(** Random initial placement on the smallest near-square grid that fits. *)
let initial rng circuit =
  let n = Circuit.node_count circuit in
  let cols = int_of_float (ceil (sqrt (float_of_int n))) in
  let rows = (n + cols - 1) / cols in
  let slots = Array.init (cols * rows) (fun i -> (i mod cols, i / cols)) in
  Rng.shuffle rng slots;
  { circuit; cols; rows; position = Array.sub slots 0 n }

(** Simulated-annealing refinement: pairwise swaps, geometric cooling.
    [budget] is charged one step per attempted move and checked every 64
    moves; annealing is an anytime algorithm, so stopping early degrades
    quality, not validity. Returns the refined placement and the number of
    moves actually performed.

    Telemetry: a [placement.anneal] span with [placement.moves_accepted] /
    [placement.moves_rejected] counters, a periodic [placement.temperature]
    gauge (every 1024 moves) and a final [placement.final_temperature]
    gauge. Counters are accumulated locally and emitted once at the end of
    the span, so the per-move hot path stays telemetry-free. *)
let anneal_budgeted rng ?(moves = 20_000) ?budget ?(t_start = 8.0) ?(t_end = 0.05) placement
    =
  let module T = Eda_util.Telemetry in
  T.with_span "placement.anneal"
    ~attrs:
      [ ("nodes", T.Int (Circuit.node_count placement.circuit));
        ("moves_requested", T.Int moves) ]
  @@ fun () ->
  let traced = T.active () in
  let accepted = ref 0 in
  let rejected = ref 0 in
  let pos = Array.copy placement.position in
  let net_list = nets placement.circuit in
  (* Incremental cost: nets touching a node. *)
  let touching = Array.make (Circuit.node_count placement.circuit) [] in
  List.iter
    (fun ((driver, consumers) as net) ->
      List.iter
        (fun n -> touching.(n) <- net :: touching.(n))
        (driver :: consumers))
    net_list;
  let n = Array.length pos in
  let cost_around a b =
    let relevant = touching.(a) @ touching.(b) in
    List.fold_left (fun acc net -> acc + hpwl_of_net pos net) 0 relevant
  in
  let alpha = (t_end /. t_start) ** (1.0 /. float_of_int moves) in
  let temp = ref t_start in
  let performed = ref 0 in
  let stopped = ref false in
  while (not !stopped) && !performed < moves do
    (match budget with
     | Some b when !performed land 63 = 0 ->
       Eda_util.Budget.tick ~cost:(min 64 (moves - !performed)) b;
       if Eda_util.Budget.exhausted b then stopped := true
     | Some _ | None -> ());
    if not !stopped then begin
      let a = Rng.int rng n and b = Rng.int rng n in
      if a <> b then begin
        let before = cost_around a b in
        let tmp = pos.(a) in
        pos.(a) <- pos.(b);
        pos.(b) <- tmp;
        let after = cost_around a b in
        let delta = float_of_int (after - before) in
        let accept = delta <= 0.0 || Rng.float rng < exp (-.delta /. !temp) in
        if accept then incr accepted
        else begin
          incr rejected;
          let tmp = pos.(a) in
          pos.(a) <- pos.(b);
          pos.(b) <- tmp
        end
      end;
      temp := !temp *. alpha;
      incr performed;
      if traced && !performed land 1023 = 0 then T.gauge "placement.temperature" !temp
    end
  done;
  T.count "placement.moves_accepted" !accepted;
  T.count "placement.moves_rejected" !rejected;
  T.gauge "placement.final_temperature" !temp;
  { placement with position = pos }, !performed

let wirelength placement = total_hpwl placement.position (nets placement.circuit)

(** Result of the unified placement entry point. *)
type outcome = {
  placement : t;
  moves_performed : int;  (* the winning start's count; fewer than requested on exhaustion *)
  starts : int;
  best_start : int;  (* index of the winning start (0 when [starts = 1]) *)
}

(** Full placement flow, one entry point: random initial placement plus
    annealing, optionally [?budget]-bounded, optionally best-of-[starts]
    multi-start (each start anneals an independent {!Rng.split} stream;
    the lowest-wirelength result wins, ties to the lowest start index),
    optionally parallel across starts via [?pool]. The selection is an
    ordered reduction over start indices, so an unbudgeted multi-start
    result is identical at any domain count; with [starts = 1] (the
    default) the result is bit-identical to the classic sequential
    placer. Under a step budget, sequential starts share the budget
    serially while pooled starts each receive the remaining allowance
    speculatively (the caller's budget is charged for all performed
    moves after the join) — coverage differs at the margin, validity
    never. *)
let place ?(starts = 1) ?moves ?budget ?pool rng circuit =
  let module T = Eda_util.Telemetry in
  let module P = Eda_util.Pool in
  if starts < 1 then invalid_arg "Placement.place: starts must be >= 1";
  let domains = match pool with Some p -> P.size p | None -> 1 in
  T.with_span "placement.place"
    ~attrs:
      [ ("nodes", T.Int (Circuit.node_count circuit));
        ("starts", T.Int starts);
        ("domains", T.Int domains) ]
  @@ fun () ->
  if starts = 1 then begin
    let placement, performed = anneal_budgeted rng ?moves ?budget (initial rng circuit) in
    { placement; moves_performed = performed; starts = 1; best_start = 0 }
  end
  else begin
    let streams = Rng.split rng starts in
    let run_start ?budget i =
      let r = streams.(i) in
      let placement, performed = anneal_budgeted r ?moves ?budget (initial r circuit) in
      (placement, performed, wirelength placement)
    in
    let candidates =
      match pool with
      | Some p ->
        (* any pool size, 1 included, takes this path: captured
           [pool.task] spans keep the trace shape uniform across -j *)
        let step_cap = Option.bind budget Eda_util.Budget.remaining_steps in
        let results =
          P.parallel_map ?budget ~label:"placement" p
            (Array.init starts (fun i -> i))
            ~f:(fun ctx i ->
              let tb =
                match budget with
                | None -> None
                | Some _ -> Some (ctx.P.task_budget ?steps:step_cap ())
              in
              run_start ?budget:tb i)
        in
        (* moves performed on worker domains, charged here on the caller *)
        Option.iter
          (fun b ->
            Array.iter
              (function
                | Some (_, performed, _) -> Eda_util.Budget.tick ~cost:performed b
                | None -> ())
              results)
          budget;
        results
      | None -> Array.init starts (fun i -> Some (run_start ?budget i))
    in
    let best = ref None in
    let completed = ref 0 in
    Array.iteri
      (fun i candidate ->
        match candidate with
        | None -> ()
        | Some (placement, performed, wl) ->
          incr completed;
          (match !best with
           | Some (_, _, _, best_wl) when best_wl <= wl -> ()
           | _ -> best := Some (i, placement, performed, wl)))
      candidates;
    T.count "placement.starts_completed" !completed;
    match !best with
    | Some (i, placement, performed, wl) ->
      T.gauge "placement.best_wirelength" (float_of_int wl);
      { placement; moves_performed = performed; starts; best_start = i }
    | None ->
      (* budget exhausted before any start ran: fall back to stream 0's
         unrefined initial placement — anytime semantics, never a failure *)
      { placement = initial streams.(0) circuit;
        moves_performed = 0;
        starts;
        best_start = 0 }
  end

let distance placement a b =
  let xa, ya = placement.position.(a) and xb, yb = placement.position.(b) in
  abs (xa - xb) + abs (ya - yb)

(** Placement perturbation defense [54]: re-place with a privacy term that
    penalizes proximity of connected cells, trading wirelength for
    resistance against proximity attacks. [lambda] weighs the penalty. *)
let perturb rng ~lambda ?(moves = 20_000) placement =
  let pos = Array.copy placement.position in
  let net_list = nets placement.circuit in
  let touching = Array.make (Circuit.node_count placement.circuit) [] in
  List.iter
    (fun ((driver, consumers) as net) ->
      List.iter (fun n -> touching.(n) <- net :: touching.(n)) (driver :: consumers))
    net_list;
  let n = Array.length pos in
  (* Privacy cost: negative sum of pairwise driver-consumer distances
     (we *reward* spreading connected pins apart). *)
  let privacy_of_net (driver, consumers) =
    List.fold_left
      (fun acc c ->
        let xd, yd = pos.(driver) and xc, yc = pos.(c) in
        acc - (abs (xd - xc) + abs (yd - yc)))
      0 consumers
  in
  let cost_around a b =
    let relevant = touching.(a) @ touching.(b) in
    List.fold_left
      (fun acc net ->
        acc +. float_of_int (hpwl_of_net pos net)
        +. (lambda *. float_of_int (privacy_of_net net)))
      0.0 relevant
  in
  let temp = ref 8.0 in
  let alpha = (0.05 /. 8.0) ** (1.0 /. float_of_int moves) in
  for _ = 1 to moves do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then begin
      let before = cost_around a b in
      let tmp = pos.(a) in
      pos.(a) <- pos.(b);
      pos.(b) <- tmp;
      let after = cost_around a b in
      let delta = after -. before in
      let accept = delta <= 0.0 || Rng.float rng < exp (-.delta /. !temp) in
      if not accept then begin
        let tmp = pos.(a) in
        pos.(a) <- pos.(b);
        pos.(b) <- tmp
      end
    end;
    temp := !temp *. alpha
  done;
  { placement with position = pos }
