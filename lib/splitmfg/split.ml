(** Split manufacturing (Table II, physical-synthesis row; [27], [53],
    [54]): the untrusted foundry fabricates the FEOL (cells and short local
    wires) while a trusted facility adds the BEOL (upper metal, the long
    wires). The attacker sees a "sea of gates with dangling wires" and must
    guess the missing connections.

    Model: after placement, every 2-pin connection longer than
    [feol_threshold] (in grid units) is routed in BEOL and hidden from the
    attacker; shorter ones stay in FEOL and are visible. Wire lifting [53]
    deliberately promotes sensitive short wires into the BEOL. *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng

type connection = { from_node : int; to_node : int; to_pin : int }

type split = {
  placement : Physical.Placement.t;
  visible : connection list;  (* FEOL: the foundry sees these *)
  hidden : connection list;  (* BEOL: to be guessed by the attacker *)
}

(* Every fanin edge of the netlist as a pin-accurate connection. *)
let all_connections circuit =
  let conns = ref [] in
  for i = 0 to Circuit.node_count circuit - 1 do
    Array.iteri
      (fun pin f -> conns := { from_node = f; to_node = i; to_pin = pin } :: !conns)
      (Circuit.fanins circuit i)
  done;
  List.rev !conns

(** Split after placement: connections spanning more than [feol_threshold]
    go to BEOL. *)
let split_by_length ~feol_threshold placement =
  let circuit = placement.Physical.Placement.circuit in
  let visible, hidden =
    List.partition
      (fun conn ->
        Physical.Placement.distance placement conn.from_node conn.to_node
        <= feol_threshold)
      (all_connections circuit)
  in
  { placement; visible; hidden }

(** Wire-lifting defense [53]: additionally hide the [lift] fraction of the
    remaining visible wires, chosen by shortest length first (the most
    informative hints). A [fraction] outside [0, 1] (or NaN) raises
    [Invalid_argument]. *)
let lift_wires ~fraction split_design =
  if not (fraction >= 0.0 && fraction <= 1.0) then
    invalid_arg "Split.lift_wires: fraction must be in [0, 1]";
  let placement = split_design.placement in
  let sorted =
    List.sort
      (fun a b ->
        compare
          (Physical.Placement.distance placement a.from_node a.to_node)
          (Physical.Placement.distance placement b.from_node b.to_node))
      split_design.visible
  in
  let n_lift =
    int_of_float (fraction *. float_of_int (List.length sorted))
  in
  let rec take k acc rest =
    if k = 0 then List.rev acc, rest
    else match rest with
      | [] -> List.rev acc, []
      | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let lifted, still_visible = take n_lift [] sorted in
  { split_design with visible = still_visible; hidden = lifted @ split_design.hidden }

(* Nearest-candidate search over square buckets tiling the candidates'
   bounding box, each bucket listing its candidates. A query visits rings
   of buckets around the sink's (clamped) bucket and stops once no unseen
   bucket can hold a candidate as close as the best so far. It returns
   exactly what a scan of every candidate returns: the smallest Manhattan
   distance, ties to the lowest id, never the sink itself, -1 when there
   is no other candidate. Positions may share a site or lie off the grid.
   The bucket side keeps the bucket count within 3 x candidates + 1, so a
   query never visits more than O(candidates) buckets: no worse than the
   scan, and O(1) buckets on a spread-out placement. *)
module Buckets = struct
  type t = {
    position : (int * int) array;
    x0 : int;
    y0 : int;
    x1 : int;
    y1 : int;
    side : int;
    cols : int;
    rows : int;
    start : int array;  (* bucket b's candidates: members.(start.(b)) .. start.(b + 1) - 1 *)
    members : int array;
    mutable best : int;
    mutable best_d : int;
    mutable scanned : int;  (* buckets visited, over all queries *)
  }

  (* [candidates] is non-empty. *)
  let create position candidates =
    let fold f init = Array.fold_left (fun acc c -> f acc position.(c)) init candidates in
    let x0 = fold (fun m (x, _) -> min m x) max_int
    and x1 = fold (fun m (x, _) -> max m x) min_int
    and y0 = fold (fun m (_, y) -> min m y) max_int
    and y1 = fold (fun m (_, y) -> max m y) min_int in
    let w = x1 - x0 + 1 and h = y1 - y0 + 1 in
    let c = Float.of_int (Array.length candidates) in
    let side =
      max 1
        (int_of_float
           (Float.max
              (ceil (sqrt (Float.of_int w *. Float.of_int h /. c)))
              (ceil (Float.of_int (max w h) /. c))))
    in
    let cols = (w + side - 1) / side and rows = (h + side - 1) / side in
    let bucket (x, y) = ((x - x0) / side) + (cols * ((y - y0) / side)) in
    let start = Array.make ((cols * rows) + 1) 0 in
    Array.iter
      (fun c ->
        let b = bucket position.(c) in
        start.(b + 1) <- start.(b + 1) + 1)
      candidates;
    for b = 1 to cols * rows do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    let members = Array.make (Array.length candidates) 0 in
    let fill = Array.sub start 0 (cols * rows) in
    Array.iter
      (fun c ->
        let b = bucket position.(c) in
        members.(fill.(b)) <- c;
        fill.(b) <- fill.(b) + 1)
      candidates;
    { position; x0; y0; x1; y1; side; cols; rows; start; members;
      best = -1; best_d = max_int; scanned = 0 }

  let visit t sink sx sy i j =
    t.scanned <- t.scanned + 1;
    let b = i + (t.cols * j) in
    for e = t.start.(b) to t.start.(b + 1) - 1 do
      let cand = t.members.(e) in
      if cand <> sink then begin
        let x, y = t.position.(cand) in
        let d = abs (x - sx) + abs (y - sy) in
        if d < t.best_d || (d = t.best_d && cand < t.best) then begin
          t.best <- cand;
          t.best_d <- d
        end
      end
    done

  let nearest t sink =
    let sx, sy = t.position.(sink) in
    let clamp v lo hi = max lo (min hi v) in
    let cx = (clamp sx t.x0 t.x1 - t.x0) / t.side
    and cy = (clamp sy t.y0 t.y1 - t.y0) / t.side in
    let last_ring = max (max cx (t.cols - 1 - cx)) (max cy (t.rows - 1 - cy)) in
    t.best <- -1;
    t.best_d <- max_int;
    let r = ref 0 in
    (* every bucket on ring r >= 1 lies at least (r - 1) * side + 1 away *)
    while !r <= last_ring && (!r = 0 || ((!r - 1) * t.side) + 1 <= t.best_d) do
      let r' = !r in
      let row j =
        for i = max 0 (cx - r') to min (t.cols - 1) (cx + r') do
          visit t sink sx sy i j
        done
      in
      if cy - r' >= 0 then row (cy - r');
      if r' > 0 && cy + r' < t.rows then row (cy + r');
      if r' > 0 && (cx - r' >= 0 || cx + r' < t.cols) then
        for j = max 0 (cy - r' + 1) to min (t.rows - 1) (cy + r' - 1) do
          if cx - r' >= 0 then visit t sink sx sy (cx - r') j;
          if cx + r' < t.cols then visit t sink sx sy (cx + r') j
        done;
      incr r
    done;
    t.best

  let scanned t = t.scanned
end

(** Proximity attack [52]-style. The attacker's decisive FEOL hint is the
    via stubs: only pins with a connection routed into the hidden BEOL
    show a dangling via, so the candidate driver pool is *exactly* the set
    of driver pins with hidden fanout — not the whole netlist. Each hidden
    sink pin is matched to the nearest candidate driver (PPA placement
    keeps truly connected pins close, which is the leak; ties go to the
    lowest node id, and a sink never matches itself). Returns the
    correct-connection rate (CCR). The nearest candidate comes from a
    bucketed search ({!Buckets}), not a scan of every candidate.

    Telemetry: a [splitmfg.proximity_attack] span ([hidden] and
    [candidates] attrs) with a [splitmfg.buckets_scanned] counter.

    This also explains why the defenses work: wire lifting inflates the
    candidate pool with decoys, and placement perturbation breaks the
    closest-is-connected prior. *)
let proximity_attack split_design =
  let module T = Eda_util.Telemetry in
  let hidden = split_design.hidden in
  let candidates =
    Array.of_list (List.sort_uniq compare (List.map (fun conn -> conn.from_node) hidden))
  in
  T.with_span "splitmfg.proximity_attack"
    ~attrs:
      [ ("hidden", T.Int (List.length hidden));
        ("candidates", T.Int (Array.length candidates)) ]
  @@ fun () ->
  if hidden = [] then 1.0
  else begin
    let grid =
      Buckets.create split_design.placement.Physical.Placement.position candidates
    in
    let correct = ref 0 in
    List.iter
      (fun conn ->
        if Buckets.nearest grid conn.to_node = conn.from_node then incr correct)
      hidden;
    T.count "splitmfg.buckets_scanned" (Buckets.scanned grid);
    Float.of_int !correct /. Float.of_int (List.length hidden)
  end

(** Expected CCR of random guessing over the same candidate pool — the
    security target [54]: a defense is ideal when the attacker does no
    better than this. *)
let random_guess_ccr split_design =
  match split_design.hidden with
  | [] -> 1.0
  | _ :: _ ->
    let candidates =
      List.sort_uniq compare (List.map (fun conn -> conn.from_node) split_design.hidden)
    in
    1.0 /. Float.of_int (max 1 (List.length candidates))

(** The adversary's end goal is the complete netlist: every FEOL-visible
    connection comes for free, every hidden one must be guessed. The
    recovery rate — (visible + correctly guessed hidden) / all — is the
    metric under which the defenses compose correctly: a shallow split
    leaves most wires readable (high recovery even with zero guessing),
    wire lifting moves readable wires into the must-guess set, and
    placement perturbation lowers the guessing success itself. *)
let netlist_recovery_rate split_design =
  let nv = List.length split_design.visible in
  let nh = List.length split_design.hidden in
  if nv + nh = 0 then 1.0
  else begin
    let ccr = proximity_attack split_design in
    (Float.of_int nv +. (ccr *. Float.of_int nh)) /. Float.of_int (nv + nh)
  end

(** Overhead metric: extra BEOL wirelength caused by a defense, relative to
    the undefended split. *)
let hidden_wirelength split_design =
  List.fold_left
    (fun acc conn ->
      acc + Physical.Placement.distance split_design.placement conn.from_node conn.to_node)
    0 split_design.hidden
