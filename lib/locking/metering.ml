(** Active hardware metering (Alkabani & Koushanfar [19]; Table II,
    high-level-synthesis x piracy cell): every fabricated chip powers up
    into a *locked* FSM state derived from its unique ID (a PUF response in
    practice), and only the IP owner — who knows the FSM's transition
    structure — can compute the per-chip unlock input sequence. The
    foundry can overproduce silicon but cannot activate it, so every
    working chip is accounted for.

    Model: [state_bits] lock flip-flops are added. Each cycle in the
    locked mode, the lock register absorbs the [unlock] input through a
    keyed next-state function; the design's outputs are gated (forced low)
    until the register reaches the all-ones unlock state. The unlock
    sequence for a chip is a fixed walk determined by the secret transition
    keys and the chip's power-up ID. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng

type metered = {
  circuit : Circuit.t;
  state_bits : int;
  (* secret per-step XOR keys of the absorbing next-state function *)
  transition_keys : bool array array;
  unlock_input_pos : int;  (* position of the serial unlock input *)
  data_positions : int array;
}

(* Next-state: s' = rotate(s) xor (unlock ? key_a : key_b) — a keyed
   permutation network; reaching all-ones requires knowing the keys. *)
let next_state ~keys s unlock =
  let n = Array.length s in
  let rotated = Array.init n (fun i -> s.((i + 1) mod n)) in
  let key = if unlock then keys.(0) else keys.(1) in
  Array.init n (fun i -> rotated.(i) <> key.(i))

(* Pack a state as an int for the BFS frontier. *)
let pack s =
  let v = ref 0 in
  for i = Array.length s - 1 downto 0 do
    v := (!v lsl 1) lor (if s.(i) then 1 else 0)
  done;
  !v

(** The owner's computation of an unlock sequence from the chip's power-up
    ID: breadth-first search over the keyed FSM's state graph (the owner
    knows the transition keys; the state space is tiny for the owner but
    the walk is infeasible to guess bit-by-bit from outside). *)
let unlock_sequence ~keys ~max_steps power_up_id =
  let n = Array.length power_up_id in
  let target = Array.make n true in
  let target_packed = pack target in
  let visited = Hashtbl.create 256 in
  let queue = Queue.create () in
  Queue.add (power_up_id, []) queue;
  Hashtbl.replace visited (pack power_up_id) ();
  let rec bfs () =
    if Queue.is_empty queue then None
    else begin
      let s, acc = Queue.pop queue in
      if pack s = target_packed then Some (List.rev acc)
      else if List.length acc >= max_steps then bfs ()
      else begin
        List.iter
          (fun bit ->
            let s' = next_state ~keys s bit in
            let key = pack s' in
            if not (Hashtbl.mem visited key) then begin
              Hashtbl.replace visited key ();
              Queue.add (s', bit :: acc) queue
            end)
          [ true; false ];
        bfs ()
      end
    end
  in
  bfs ()

(* Rank over GF(2) of the cyclic rotations of the key difference d: when
   full, every power-up state can reach the unlock state, so [meter]
   redraws keys until this holds. *)
let rotations_full_rank d =
  let n = Array.length d in
  let as_int s =
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl 1) lor (if s.(i) then 1 else 0)
    done;
    !v
  in
  let rows =
    Array.init n (fun r -> as_int (Array.init n (fun i -> d.((i + r) mod n))))
  in
  let rank = ref 0 in
  let rows = Array.copy rows in
  for col = 0 to n - 1 do
    let pivot = ref (-1) in
    for r = !rank to n - 1 do
      if !pivot < 0 && (rows.(r) lsr col) land 1 = 1 then pivot := r
    done;
    if !pivot >= 0 then begin
      let tmp = rows.(!rank) in
      rows.(!rank) <- rows.(!pivot);
      rows.(!pivot) <- tmp;
      for r = 0 to n - 1 do
        if r <> !rank && (rows.(r) lsr col) land 1 = 1 then rows.(r) <- rows.(r) lxor rows.(!rank)
      done;
      incr rank
    end
  done;
  !rank = n

let meter rng ~state_bits source =
  assert (state_bits >= 2 && state_bits <= 16);
  (* Redraw keys until the difference's rotation span is full rank, which
     guarantees every chip ID admits an unlock sequence. *)
  let rec draw_keys () =
    let keys = Array.init 2 (fun _ -> Array.init state_bits (fun _ -> Rng.bool rng)) in
    let d = Array.init state_bits (fun i -> keys.(0).(i) <> keys.(1).(i)) in
    if rotations_full_rank d then keys else draw_keys ()
  in
  let keys = draw_keys () in
  let out = Circuit.create () in
  let unlock = Circuit.add_input ~name:"unlock" out in
  (* Lock register. *)
  let lock_ffs =
    Array.init state_bits (fun k -> Circuit.add_dff ~name:(Printf.sprintf "lock%d" k) out ~d:0)
  in
  (* Copy the design. *)
  let remap = Circuit.rebuild ~into:out source (fun copy _ i -> copy i) in
  (* Lock FSM next-state logic: s' = rotate(s) xor (unlock ? keyA : keyB)
     once unlocked (all ones), hold. *)
  let unlocked = Circuit.reduce out Gate.And (Array.to_list lock_ffs) in
  Array.iteri
    (fun k ff ->
      let rotated = lock_ffs.((k + 1) mod state_bits) in
      let ka = Circuit.add_const out keys.(0).(k) in
      let kb = Circuit.add_const out keys.(1).(k) in
      let key_bit = Circuit.add_gate out Gate.Mux [ unlock; kb; ka ] in
      let stepped = Circuit.add_gate out Gate.Xor [ rotated; key_bit ] in
      (* Hold the unlocked state forever. *)
      let d = Circuit.add_gate out Gate.Mux [ unlocked; stepped; ff ] in
      Circuit.connect_dff out ff ~d)
    lock_ffs;
  (* Gate every output with the unlocked flag. *)
  Array.iter
    (fun (nm, o) ->
      let gated = Circuit.add_gate out Gate.And [ remap.(o); unlocked ] in
      Circuit.set_output out nm gated)
    (Circuit.outputs source);
  let pos_of = Circuit.input_position out in
  { circuit = out;
    state_bits;
    transition_keys = keys;
    unlock_input_pos = pos_of unlock;
    data_positions =
      Array.map (fun id -> pos_of remap.(id)) (Circuit.inputs source) }

(** Run [steps] unlock cycles with the given bit sequence, from the given
    power-up lock state; returns the final full DFF state. Lock flip-flops
    occupy the first [state_bits] positions of the state vector (they are
    declared first). *)
let drive_unlock metered ~power_up_id sequence =
  let c = metered.circuit in
  let total_ffs = Circuit.num_dffs c in
  let state = ref (Array.make total_ffs false) in
  Array.blit power_up_id 0 !state 0 metered.state_bits;
  List.iter
    (fun bit ->
      let vec = Array.make (Circuit.num_inputs c) false in
      vec.(metered.unlock_input_pos) <- bit;
      let _, next = Netlist.Sim.step c ~state:!state vec in
      state := next)
    sequence;
  !state

let is_unlocked metered state =
  let ok = ref true in
  for k = 0 to metered.state_bits - 1 do
    if not state.(k) then ok := false
  done;
  !ok

(** Evaluate the (combinational) payload under a given lock state. *)
let eval metered ~state ~data =
  let c = metered.circuit in
  let vec = Array.make (Circuit.num_inputs c) false in
  Array.iteri (fun k pos -> vec.(pos) <- data.(k)) metered.data_positions;
  fst (Netlist.Sim.step c ~state vec)

(** End-to-end activation check: owner computes the sequence for a chip ID
    and the chip starts working; a random sequence of the same length
    almost never unlocks. *)
let activation_works rng metered ~original =
  let id = Array.init metered.state_bits (fun _ -> Rng.bool rng) in
  match unlock_sequence ~keys:metered.transition_keys ~max_steps:(4 * metered.state_bits) id with
  | None -> false
  | Some seq ->
    let state = drive_unlock metered ~power_up_id:id seq in
    is_unlocked metered state
    &&
    let ni = Array.length metered.data_positions in
    let ok = ref true in
    for _ = 1 to 50 do
      let data = Array.init ni (fun _ -> Rng.bool rng) in
      if eval metered ~state ~data <> Netlist.Sim.eval original data then ok := false
    done;
    !ok
