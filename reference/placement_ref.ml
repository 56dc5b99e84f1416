(** The list-based placement annealer, perturbation defense, wirelength
    and proximity attack that {!Physical.Placement}'s CSR move kernel and
    {!Splitmfg.Split}'s bucketed attack replaced, kept verbatim (telemetry
    aside) as their differential oracle: nets as (driver, consumer list)
    pairs, two coordinate lists per net per HPWL,
    [touching.(a) @ touching.(b)] per move, and a scan of every candidate
    for every hidden sink. *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng
module Placement = Physical.Placement
module Split = Splitmfg.Split

(* Nets as (driver, consumers); geometry treats a net as its pin set. *)
let nets circuit =
  let fanouts = Fanout_ref.consumers circuit in
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

let wirelength (placement : Placement.t) =
  total_hpwl placement.Placement.position (nets placement.Placement.circuit)

(** Random initial placement on the smallest near-square grid that fits
    (a zero-node circuit is not supported). *)
let initial rng circuit =
  let n = Circuit.node_count circuit in
  let cols = int_of_float (ceil (sqrt (float_of_int n))) in
  let rows = (n + cols - 1) / cols in
  let slots = Array.init (cols * rows) (fun i -> (i mod cols, i / cols)) in
  Rng.shuffle rng slots;
  { Placement.circuit; cols; rows; position = Array.sub slots 0 n }

(** Simulated-annealing refinement: pairwise swaps, geometric cooling,
    [budget] charged one step per attempted move and checked every 64
    moves. Returns the refined placement and the moves performed. *)
let anneal_budgeted rng ?(moves = 20_000) ?budget ?(t_start = 8.0) ?(t_end = 0.05)
    (placement : Placement.t) =
  let pos = Array.copy placement.Placement.position in
  let net_list = nets placement.Placement.circuit in
  (* Incremental cost: nets touching a node. *)
  let touching = Array.make (Circuit.node_count placement.Placement.circuit) [] in
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
        if not accept then begin
          let tmp = pos.(a) in
          pos.(a) <- pos.(b);
          pos.(b) <- tmp
        end
      end;
      temp := !temp *. alpha;
      incr performed
    end
  done;
  { placement with Placement.position = pos }, !performed

(** The sequential placement flow: initial placement plus annealing. *)
let place ?moves ?budget rng circuit =
  let placement, moves_performed = anneal_budgeted rng ?moves ?budget (initial rng circuit) in
  { Placement.placement; moves_performed }

(** Placement perturbation defense: annealing on HPWL plus [lambda]
    times a privacy term that rewards spreading connected pins apart. *)
let perturb rng ~lambda ?(moves = 20_000) (placement : Placement.t) =
  let pos = Array.copy placement.Placement.position in
  let net_list = nets placement.Placement.circuit in
  let touching = Array.make (Circuit.node_count placement.Placement.circuit) [] in
  List.iter
    (fun ((driver, consumers) as net) ->
      List.iter (fun n -> touching.(n) <- net :: touching.(n)) (driver :: consumers))
    net_list;
  let n = Array.length pos in
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
  { placement with Placement.position = pos }

(** Proximity attack by exhaustive scan: each hidden sink matched to the
    nearest candidate driver (ties to the lowest id, never the sink
    itself). Returns the correct-connection rate. *)
let proximity_attack (split_design : Split.split) =
  let placement = split_design.Split.placement in
  let candidates =
    List.sort_uniq compare
      (List.map (fun conn -> conn.Split.from_node) split_design.Split.hidden)
  in
  let correct = ref 0 in
  List.iter
    (fun conn ->
      let best = ref (-1) and best_d = ref max_int in
      List.iter
        (fun cand ->
          if cand <> conn.Split.to_node then begin
            let d = Placement.distance placement cand conn.Split.to_node in
            if d < !best_d then begin
              best := cand;
              best_d := d
            end
          end)
        candidates;
      if !best = conn.Split.from_node then incr correct)
    split_design.Split.hidden;
  if split_design.Split.hidden = [] then 1.0
  else Float.of_int !correct /. Float.of_int (List.length split_design.Split.hidden)
