(** A complete AES-128 encryption core as a sequential netlist: 128 state
    flip-flops, one round per clock cycle (SubBytes via 16 shared-structure
    S-box instances, ShiftRows as wiring, MixColumns, AddRoundKey), round
    keys supplied externally per cycle (the usual core-with-external-key-
    schedule split). ~7k gates — the realistic crypto workload for the
    scan-attack, CPA and Trojan experiments, validated bit-for-bit against
    the software reference.

    Interface per cycle:
      inputs  : load, p0..p127 (plaintext), rk0..rk127 (round key),
                final (1 during the last round to skip MixColumns)
      outputs : c0..c127 (state register contents)

    Protocol (11 cycles): cycle 0 loads plaintext XOR rk[0]; cycles 1..9
    apply full rounds with rk[1..9]; cycle 10 applies the final round
    (no MixColumns) with rk[10]. After that the registers hold the
    ciphertext. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type core = {
  circuit : Circuit.t;
  load_pos : int;
  final_pos : int;
  plaintext_pos : int array;  (* 128 input positions *)
  round_key_pos : int array;  (* 128 input positions *)
}

(* Byte b of the state as its 8 register nodes (bit i = node.(i)). *)
let byte_bits state b = Array.sub state (8 * b) 8

let build () =
  let c = Circuit.create () in
  let load = Circuit.add_input ~name:"load" c in
  let final = Circuit.add_input ~name:"final" c in
  let pt = Array.init 128 (fun i -> Circuit.add_input ~name:(Printf.sprintf "p%d" i) c) in
  let rk = Array.init 128 (fun i -> Circuit.add_input ~name:(Printf.sprintf "rk%d" i) c) in
  (* State registers. *)
  let state = Array.init 128 (fun i -> Circuit.add_dff ~name:(Printf.sprintf "st%d" i) c ~d:0) in
  (* SubBytes: 16 S-box instances on the registered state. *)
  let sbox = Sbox_circuit.aes_sbox () in
  let subbed = Array.make 128 0 in
  for b = 0 to 15 do
    let outs = Circuit.inline ~into:c ~sub:sbox ~prefix:(Printf.sprintf "sb%d_" b) (byte_bits state b) in
    Array.blit outs 0 subbed (8 * b) 8
  done;
  (* ShiftRows: byte k comes from byte (4*((col+row) mod 4) + row). *)
  let shifted = Array.make 128 0 in
  for k = 0 to 15 do
    let row = k mod 4 and col = k / 4 in
    let src = (4 * ((col + row) mod 4)) + row in
    Array.blit (Array.sub subbed (8 * src) 8) 0 shifted (8 * k) 8
  done;
  (* MixColumns on each of the 4 columns. *)
  let mixed = Array.make 128 0 in
  let mc = Sbox_circuit.aes_mixcolumn () in
  for col = 0 to 3 do
    let ins = Array.sub shifted (32 * col) 32 in
    let outs = Circuit.inline ~into:c ~sub:mc ~prefix:(Printf.sprintf "mc%d_" col) ins in
    Array.blit outs 0 mixed (32 * col) 32
  done;
  (* Round datapath: final rounds skip MixColumns. *)
  let round_out =
    Array.init 128 (fun i ->
        let after_mix = Circuit.add_gate c Gate.Mux [ final; mixed.(i); shifted.(i) ] in
        Circuit.add_gate c Gate.Xor [ after_mix; rk.(i) ])
  in
  (* Load path: plaintext XOR rk (the initial AddRoundKey). *)
  let load_val = Array.init 128 (fun i -> Circuit.add_gate c Gate.Xor [ pt.(i); rk.(i) ]) in
  Array.iteri
    (fun i st ->
      let d = Circuit.add_gate c Gate.Mux [ load; round_out.(i); load_val.(i) ] in
      Circuit.connect_dff c st ~d)
    state;
  Array.iteri (fun i st -> Circuit.set_output c (Printf.sprintf "c%d" i) st) state;
  let pos_of = Circuit.input_position c in
  { circuit = c;
    load_pos = pos_of load;
    final_pos = pos_of final;
    plaintext_pos = Array.map pos_of pt;
    round_key_pos = Array.map pos_of rk }

(* Bits of a 16-byte block, bit i of byte b at index 8b+i. *)
let block_to_bits block =
  Array.init 128 (fun k -> (block.(k / 8) lsr (k mod 8)) land 1 = 1)

let bits_to_block bits =
  Array.init 16 (fun b ->
      let v = ref 0 in
      for i = 7 downto 0 do
        v := (!v lsl 1) lor (if bits.((8 * b) + i) then 1 else 0)
      done;
      !v)

let input_vector core ~load ~final ~plaintext ~round_key =
  let vec = Array.make (Circuit.num_inputs core.circuit) false in
  vec.(core.load_pos) <- load;
  vec.(core.final_pos) <- final;
  let ptb = block_to_bits plaintext and rkb = block_to_bits round_key in
  Array.iteri (fun k pos -> vec.(pos) <- ptb.(k)) core.plaintext_pos;
  Array.iteri (fun k pos -> vec.(pos) <- rkb.(k)) core.round_key_pos;
  vec

(** Encrypt one block through the sequential core (11 cycles); returns the
    ciphertext and the cycle-by-cycle register states (for side-channel
    and scan experiments). *)
let encrypt core ks plaintext =
  let state = ref (Array.make (Circuit.num_dffs core.circuit) false) in
  let trace = ref [] in
  let zero = Array.make 16 0 in
  let cycle ~load ~final ~round_key =
    let vec = input_vector core ~load ~final ~plaintext:(if load then plaintext else zero) ~round_key in
    let _, next = Netlist.Sim.step core.circuit ~state:!state vec in
    state := next;
    trace := Array.copy next :: !trace
  in
  cycle ~load:true ~final:false ~round_key:ks.(0);
  for r = 1 to 9 do
    cycle ~load:false ~final:false ~round_key:ks.(r)
  done;
  cycle ~load:false ~final:true ~round_key:ks.(10);
  bits_to_block !state, List.rev !trace

(** Cross-validation against the software reference. *)
let self_test () =
  let core = build () in
  let key = Array.init 16 (fun i -> i) in
  let pt = Array.init 16 (fun i -> (i * 0x11) land 0xFF) in
  let ks = Aes.expand_key key in
  let ct, _ = encrypt core ks pt in
  ct = Aes.encrypt ks pt
