(** Structural attacks on logic locking (SAIL [50]): the key insight is
    that key-gate neighbourhoods betray the key bit without any oracle,
    because synthesis transformations that hide the polarity are local and
    learnable. Two attacker strengths are modelled:

    - [naive]: reads only the key-gate type (XOR -> 0, XNOR -> 1). Fooled
      by inserting an inverter on the key path and swapping the gate type.
    - [local_reconstruction]: additionally traces inverters between the key
      input and the key gate — the "learned resynthesis inversion" of SAIL
      — recovering the polarity the naive rule misses. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type strength = Naive | Local_reconstruction

(* For a key input, find its consuming key gate and the inversion parity of
   the path from key input to gate. *)
let key_gate_info locked key_node =
  let c = (locked : Lock.locked).Lock.circuit in
  let { Circuit.kinds; fanout_start = start; fanout; _ } = Circuit.view c in
  let rec chase node parity =
    if start.(node + 1) - start.(node) <> 1 then None
    else
      let consumer = fanout.(start.(node)) in
      match kinds.(consumer) with
      | Gate.Not -> chase consumer (not parity)
      | Gate.Buf -> chase consumer parity
      | Gate.Xor -> Some (`Xor, parity)
      | Gate.Xnor -> Some (`Xnor, parity)
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Mux | Gate.Input
      | Gate.Const _ | Gate.Dff -> None
  in
  chase key_node false

(** Guess every key bit; returns per-bit guesses (None when the local
    structure is not a recognizable key gate). *)
let guess_key ~strength locked =
  Array.map
    (fun key_node ->
      match key_gate_info locked key_node with
      | None -> None
      | Some (gate, inverted) ->
        (match strength with
         | Naive ->
           (* XNOR gate -> key bit 1; ignores path inversions. *)
           Some (gate = `Xnor)
         | Local_reconstruction ->
           (* Correct for the traced inversion parity. *)
           Some ((gate = `Xnor) <> inverted)))
    locked.Lock.key_inputs

(** Fraction of key bits guessed correctly (unknowns count as coin flips,
    scored 0.5). *)
let accuracy ~strength locked =
  let guesses = guess_key ~strength locked in
  let score = ref 0.0 in
  Array.iteri
    (fun k g ->
      match g with
      | None -> score := !score +. 0.5
      | Some b -> if b = locked.Lock.correct_key.(k) then score := !score +. 1.0)
    guesses;
  !score /. Float.of_int (Array.length guesses)
