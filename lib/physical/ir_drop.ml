(** Power-grid IR-drop verification ([36]; the paper's timing-and-power-
    verification stage distinguishes *simulation* from *vectorless*
    analytical bounds — both are implemented here on a simple resistive
    grid model).

    The die is a grid of cells fed from pads at the four corners through a
    mesh of unit resistances. Each placed cell draws current proportional
    to its switching activity. The grid voltage is solved by Jacobi
    iteration of the discrete Poisson equation; the IR drop at a cell is
    Vdd minus its node voltage.

    - [simulate] uses per-cell activity from an actual input-vector pair
      (event simulation), the "simulation" flavour;
    - [vectorless_bound] uses each cell's maximum possible current (every
      gate toggles), a sound upper bound independent of vectors. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type grid = {
  cols : int;
  rows : int;
  drop : float array;  (* per grid node, in volts *)
  worst : float;
}

(* Solve the grid: pads (corners) are fixed at 0 drop; interior node drop
   is the average of neighbours plus a term proportional to local
   current draw. *)
let solve ~cols ~rows ~current ~iterations ~resistance =
  let idx x y = (y * cols) + x in
  let drop = Array.make (cols * rows) 0.0 in
  let is_pad x y =
    (x = 0 || x = cols - 1) && (y = 0 || y = rows - 1)
  in
  for _ = 1 to iterations do
    for y = 0 to rows - 1 do
      for x = 0 to cols - 1 do
        if not (is_pad x y) then begin
          let neighbours = ref [] in
          if x > 0 then neighbours := drop.(idx (x - 1) y) :: !neighbours;
          if x < cols - 1 then neighbours := drop.(idx (x + 1) y) :: !neighbours;
          if y > 0 then neighbours := drop.(idx x (y - 1)) :: !neighbours;
          if y < rows - 1 then neighbours := drop.(idx x (y + 1)) :: !neighbours;
          let avg =
            List.fold_left ( +. ) 0.0 !neighbours /. Float.of_int (List.length !neighbours)
          in
          drop.(idx x y) <- avg +. (resistance *. current.(idx x y))
        end
      done
    done
  done;
  let worst = Array.fold_left Float.max 0.0 drop in
  { cols; rows; drop; worst }

(* Per-grid-node current from per-cell energies under a placement. *)
let current_map placement energies =
  let cols = placement.Placement.cols in
  let rows = placement.Placement.rows in
  let current = Array.make (cols * rows) 0.0 in
  Array.iteri
    (fun node (x, y) ->
      if node < Array.length energies then
        current.((y * cols) + x) <- current.((y * cols) + x) +. energies.(node))
    placement.Placement.position;
  cols, rows, current

(** IR-drop for one simulated transition (vector-driven analysis). *)
let simulate ?(iterations = 200) ?(resistance = 0.01) placement ~prev_inputs ~next_inputs =
  let c = placement.Placement.circuit in
  let energies = Array.make (Circuit.node_count c) 0.0 in
  Timing.Event_sim.iter c ~prev_inputs ~next_inputs ~f:(fun _ node _ ->
      energies.(node) <- energies.(node) +. Gate.switch_energy (Circuit.kind c node));
  let cols, rows, current = current_map placement energies in
  solve ~cols ~rows ~current ~iterations ~resistance

(** Vectorless worst-case bound: every cell assumed to toggle [activity]
    times per cycle. The activity cap is the analyst's model input — with
    glitching logic a cap of 1 is *unsound* (the event simulation can
    exceed it), which is exactly the accuracy-of-models caveat the paper
    raises for timing/power verification. *)
let vectorless_bound ?(iterations = 200) ?(resistance = 0.01) ?(activity = 3.0) placement =
  let c = placement.Placement.circuit in
  let energies =
    Array.init (Circuit.node_count c) (fun i ->
        activity *. Gate.switch_energy (Circuit.kind c i))
  in
  let cols, rows, current = current_map placement energies in
  solve ~cols ~rows ~current ~iterations ~resistance

(** Verification verdict: the vectorless bound vs budget, plus a
    simulation cross-check — if any simulated vector exceeds the bound,
    the activity model was too optimistic and the sign-off is unsound. *)
let verify rng ?(vectors = 20) ?activity placement ~budget =
  let c = placement.Placement.circuit in
  let ni = Circuit.num_inputs c in
  let bound = vectorless_bound ?activity placement in
  let worst_simulated = ref 0.0 in
  for _ = 1 to vectors do
    let prev = Array.init ni (fun _ -> Eda_util.Rng.bool rng) in
    let next = Array.init ni (fun _ -> Eda_util.Rng.bool rng) in
    let g = simulate placement ~prev_inputs:prev ~next_inputs:next in
    if g.worst > !worst_simulated then worst_simulated := g.worst
  done;
  ( `Bound bound.worst,
    `Worst_simulated !worst_simulated,
    `Meets_budget (bound.worst <= budget),
    `Activity_model_sound (!worst_simulated <= bound.worst) )
