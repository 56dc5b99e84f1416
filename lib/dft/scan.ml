(** Scan-chain insertion (Fig. 1's testing stage). All flip-flops are
    stitched into a shift register controlled by [scan_en]: in test mode
    the register state is fully controllable through [scan_in] and fully
    observable through [scan_out] — which is exactly the security problem
    of Sec. III-F: a crypto state captured in the flops can be shifted out
    by anyone with test access [39].

    [Secure] mode implements a secure-scan countermeasure: the shift path
    passes through per-cell XOR scrambling with a key fused into the chip
    (tamper-proof, modelled as constant cells). An authorized tester knows
    the key and descrambles the stream in software, retaining full DFX
    observability; an attacker reads garbage [39]. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type protection = Plain | Secure of bool array  (* per-cell scramble key *)

type scanned = {
  circuit : Circuit.t;
  protection : protection;
  num_cells : int;
  (* input positions in the scanned circuit's input vector *)
  scan_en_pos : int;
  scan_in_pos : int;
  data_positions : int array;  (* positions of the original inputs *)
  scan_out_index : int;  (* index in the output vector *)
}

let insert ?(protection = Plain) source =
  let n_cells = Circuit.num_dffs source in
  assert (n_cells > 0);
  let out = Circuit.create () in
  let scan_en = Circuit.add_input ~name:"scan_en" out in
  let scan_in = Circuit.add_input ~name:"scan_in" out in
  let key_cells =
    match protection with
    | Plain -> [||]
    | Secure key ->
      assert (Array.length key = n_cells);
      Array.init n_cells (fun k ->
          Circuit.add_const ~name:(Printf.sprintf "tkey%d" k) out key.(k))
  in
  let remap = Circuit.rebuild ~into:out source (fun copy _ i -> copy i) in
  (* Stitch the chain: cell k shifts from cell k-1 (or scan_in). *)
  let dffs = Circuit.dffs source in
  Array.iteri
    (fun k dff ->
      let normal_d = remap.((Circuit.fanins source dff).(0)) in
      let shift_src = if k = 0 then scan_in else remap.(dffs.(k - 1)) in
      let mux =
        Circuit.add_node_raw out Gate.Mux [| scan_en; normal_d; shift_src |] ""
      in
      Circuit.connect_dff out remap.(dff) ~d:mux)
    dffs;
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs source);
  (* Scan output: last cell, optionally scrambled with its key bit. *)
  let last = remap.(dffs.(n_cells - 1)) in
  let scan_out_node =
    match protection with
    | Plain -> Circuit.add_node_raw out Gate.Buf [| last |] "scan_out"
    | Secure _ ->
      (* The scrambling key bit for the cell currently at the output rotates
         as the chain shifts; a simple and effective variant XORs the
         stream with the per-position key bits applied at the output.
         Model: out = last xor tkey applied per cell position; the shifting
         sequence applies tkey[(n-1) - shift] naturally if the tester
         rotates the key. Hardware-wise each cell's shift path XORs its key
         bit, so shifted data is progressively scrambled; here we scramble
         at the output with cell n-1's key slot, and stitch per-cell XORs
         into the shift path for the rest. *)
      Circuit.add_node_raw out Gate.Xor [| last; key_cells.(n_cells - 1) |] "scan_out"
  in
  (* For Secure: scramble every inter-cell shift link too. *)
  (match protection with
   | Plain -> ()
   | Secure _ ->
     Array.iteri
       (fun k dff ->
         if k > 0 then begin
           let cell = remap.(dff) in
           let mux = (Circuit.fanins out cell).(0) in
           (* mux fanins: [scan_en; normal; shift_src]; re-route shift
              through XOR with key bit k-1. *)
           let shift_src = (Circuit.fanins out mux).(2) in
           let scrambled =
             Circuit.add_node_raw out Gate.Xor [| shift_src; key_cells.(k - 1) |] ""
           in
           (* Re-point the mux's shift input. We mutate the fanin array in
              place; the XOR node was appended later, which breaks the
              topological invariant for the mux — but the mux only feeds a
              DFF D-input, and DFF Ds tolerate forward references. To stay
              well-formed, rebuild the mux instead. *)
           let new_mux =
             Circuit.add_node_raw out Gate.Mux
               [| (Circuit.fanins out mux).(0); (Circuit.fanins out mux).(1); scrambled |]
               ""
           in
           Circuit.connect_dff out cell ~d:new_mux
         end)
       dffs);
  Circuit.set_output out "scan_out" scan_out_node;
  let input_pos = Circuit.input_position out in
  let data_positions =
    Array.map
      (fun id ->
        match Circuit.find_by_name out (Circuit.name source id) with
        | Some nid -> input_pos nid
        | None -> assert false)
      (Circuit.inputs source)
  in
  { circuit = out;
    protection;
    num_cells = n_cells;
    scan_en_pos = input_pos scan_en;
    scan_in_pos = input_pos scan_in;
    data_positions;
    scan_out_index = Circuit.output_position out "scan_out" }

(** Build a full input vector for the scanned circuit. *)
let input_vector scanned ~scan_en ~scan_in ~data =
  let vec = Array.make (Circuit.num_inputs scanned.circuit) false in
  vec.(scanned.scan_en_pos) <- scan_en;
  vec.(scanned.scan_in_pos) <- scan_in;
  Array.iteri (fun k pos -> vec.(pos) <- data.(k)) scanned.data_positions;
  vec

(** One functional (capture) cycle. *)
let capture scanned ~state ~data =
  let vec = input_vector scanned ~scan_en:false ~scan_in:false ~data in
  snd (Netlist.Sim.step scanned.circuit ~state vec)

(** Shift the chain once per element of [bits], feeding them into scan_in;
    returns the observed scan_out stream and the final state. *)
let shift scanned ~state ~bits =
  let data = Array.make (Array.length scanned.data_positions) false in
  let observed = ref [] in
  let state = ref state in
  List.iter
    (fun b ->
      let vec = input_vector scanned ~scan_en:true ~scan_in:b ~data in
      let outs, next = Netlist.Sim.step scanned.circuit ~state:!state vec in
      observed := outs.(scanned.scan_out_index) :: !observed;
      state := next)
    bits;
  List.rev !observed, !state

(** Unload the full register state through the scan port; the result is in
    cell order (cell 0 first). For [Secure] chains this is the *scrambled*
    stream; [descramble] recovers the true state given the key. *)
let unload scanned ~state =
  let zeros = List.init scanned.num_cells (fun _ -> false) in
  let observed, state' = shift scanned ~state ~bits:zeros in
  (* The first observed bit is the last cell's content. *)
  Array.of_list (List.rev observed), state'

(** Authorized-tester descrambling of an unloaded stream. The stream bit
    for cell k passed through the XORs of cells k..n-1 on its way out. *)
let descramble scanned stream =
  match scanned.protection with
  | Plain -> Array.copy stream
  | Secure key ->
    let n = scanned.num_cells in
    Array.init n (fun k ->
        let acc = ref stream.(k) in
        for j = k to n - 1 do
          if key.(j) then acc := not !acc
        done;
        !acc)
