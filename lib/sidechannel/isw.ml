(** ISW private circuits (Ishai-Sahai-Wagner t-probing masking), the scheme
    of the paper's motivational example (Sec. II-B).

    Every secret value is split into [shares] = t+1 XOR shares; XOR and NOT
    operate share-wise; AND consumes fresh randomness r_ij and accumulates
    partial products in a fixed, security-critical order:

      c_i = a_i b_i  ^  z_i1 ^ ... ^ z_in   (j != i), where
      z_ij = r_ij                 for i < j
      z_ji = (r_ij ^ a_i b_j) ^ a_j b_i     for i < j  — parentheses matter.

    The transform emits exactly this association as a left-to-right chain
    and names every created node with the "isw_" prefix, which doubles as
    the order barrier ([protect] predicate) for security-aware synthesis.
    A classical flow that ignores the barriers (the [optimize] recipe) is
    free to re-associate those chains — reproducing Fig. 2. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng

type masked = {
  circuit : Circuit.t;
  shares : int;
  (* For each original input name, its share input ids in order. *)
  input_shares : (string * int array) list;
  (* Randomness inputs, in declaration order. *)
  random_inputs : int array;
  (* For each original output name, its share output names. *)
  output_shares : (string * string array) list;
}

let prefix = "isw_"

(** The order-barrier predicate: every net created by the transform. *)
let protected_name name = String.length name >= 4 && String.sub name 0 4 = prefix

let transform ?(shares = 3) source =
  assert (shares >= 2);
  let src = Synth.Pass.apply "to_and_xor_not" source in
  assert (Circuit.num_dffs src = 0);
  let c = Circuit.create () in
  let counter = ref 0 in
  let fresh tag =
    incr counter;
    Printf.sprintf "%s%s_%d" prefix tag !counter
  in
  (* Share inputs for each original primary input. *)
  let input_shares =
    Array.to_list (Circuit.inputs src)
    |> List.map (fun id ->
        let base = Circuit.name src id in
        let ids =
          Array.init shares (fun s ->
              Circuit.add_input ~name:(Printf.sprintf "%s_s%d" base s) c)
        in
        base, ids)
  in
  let random_inputs = ref [] in
  let fresh_random () =
    let id = Circuit.add_input ~name:(fresh "r") c in
    random_inputs := id :: !random_inputs;
    id
  in
  (* Map from source node to its share vector in the masked circuit. *)
  let share_map = Hashtbl.create 64 in
  List.iteri
    (fun k (_, ids) -> Hashtbl.replace share_map (Circuit.inputs src).(k) ids)
    input_shares;
  let gate kind fanins = Circuit.add_node_raw c kind (Array.of_list fanins) (fresh (Gate.name kind)) in
  for i = 0 to Circuit.node_count src - 1 do
    let nd = Circuit.node src i in
    let sh k = Hashtbl.find share_map nd.Circuit.fanins.(k) in
    match nd.Circuit.kind with
    | Gate.Input -> ()  (* already mapped *)
    | Gate.Const b ->
      (* Constant: share 0 carries the value, the rest are zero. *)
      let zero = Circuit.add_const ~name:(fresh "c0") c false in
      let v = Circuit.add_const ~name:(fresh "cv") c b in
      Hashtbl.replace share_map i (Array.init shares (fun s -> if s = 0 then v else zero))
    | Gate.Not ->
      (* Invert exactly one share. *)
      let a = sh 0 in
      let out =
        Array.mapi (fun s a_s -> if s = 0 then gate Gate.Not [ a_s ] else a_s) a
      in
      Hashtbl.replace share_map i out
    | Gate.Xor ->
      let a = sh 0 and b = sh 1 in
      Hashtbl.replace share_map i (Array.init shares (fun s -> gate Gate.Xor [ a.(s); b.(s) ]))
    | Gate.And ->
      let a = sh 0 and b = sh 1 in
      (* z.(i).(j) for i <> j. *)
      let z = Array.make_matrix shares shares (-1) in
      for p = 0 to shares - 1 do
        for q = p + 1 to shares - 1 do
          let r = fresh_random () in
          z.(p).(q) <- r;
          (* z_qp = (r ^ a_p b_q) ^ a_q b_p — the critical association. *)
          let apbq = gate Gate.And [ a.(p); b.(q) ] in
          let aqbp = gate Gate.And [ a.(q); b.(p) ] in
          let t1 = gate Gate.Xor [ r; apbq ] in
          z.(q).(p) <- gate Gate.Xor [ t1; aqbp ]
        done
      done;
      let out =
        Array.init shares (fun s ->
            let acc = ref (gate Gate.And [ a.(s); b.(s) ]) in
            for j = 0 to shares - 1 do
              if j <> s then acc := gate Gate.Xor [ !acc; z.(s).(j) ]
            done;
            !acc)
      in
      Hashtbl.replace share_map i out
    | Gate.Buf | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xnor | Gate.Mux | Gate.Dff ->
      invalid_arg "Isw.transform: circuit not in AND/XOR/NOT basis"
  done;
  let output_shares =
    Array.to_list (Circuit.outputs src)
    |> List.map (fun (nm, o) ->
        let ids = Hashtbl.find share_map o in
        let names =
          Array.mapi
            (fun s id ->
              let out_name = Printf.sprintf "%s_s%d" nm s in
              Circuit.set_output c out_name id;
              out_name)
            ids
        in
        nm, names)
  in
  { circuit = c;
    shares;
    input_shares;
    random_inputs = Array.of_list (List.rev !random_inputs);
    output_shares }

(** Re-attach a masked descriptor to a synthesized version of its circuit:
    node ids change across synthesis passes, but share and randomness input
    names are preserved, so they are re-resolved by name. *)
let rebind masked circuit =
  let resolve nm =
    match Circuit.find_by_name circuit nm with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Isw.rebind: input %s lost by synthesis" nm)
  in
  let rebind_ids old_circuit ids =
    Array.map (fun id -> resolve (Circuit.name old_circuit id)) ids
  in
  { masked with
    circuit;
    input_shares =
      List.map (fun (nm, ids) -> nm, rebind_ids masked.circuit ids) masked.input_shares;
    random_inputs = rebind_ids masked.circuit masked.random_inputs }

(** Split [value] into [shares] random XOR shares. *)
let encode rng ~shares value =
  let sh = Array.init shares (fun _ -> Rng.bool rng) in
  let parity = Array.fold_left ( <> ) false sh in
  if parity <> value then sh.(0) <- not sh.(0);
  sh

let decode sh = Array.fold_left ( <> ) false sh

(** Build the full input vector of the masked circuit from original input
    values: shares drawn fresh, randomness drawn fresh. The vector order
    matches the masked circuit's input declaration order. *)
let input_vector rng masked ~values =
  let c = masked.circuit in
  let total = Circuit.num_inputs c in
  let vec = Array.make total false in
  (* The transform interleaves share and randomness inputs, so translate
     node ids to input positions via the declaration order. *)
  let pos_of =
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun pos id -> Hashtbl.replace tbl id pos) (Circuit.inputs c);
    fun id -> Hashtbl.find tbl id
  in
  List.iter
    (fun (name, ids) ->
      let value =
        match List.assoc_opt name values with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Isw.input_vector: missing input %s" name)
      in
      let sh = encode rng ~shares:masked.shares value in
      Array.iteri (fun s id -> vec.(pos_of id) <- sh.(s)) ids)
    masked.input_shares;
  Array.iter (fun id -> vec.(pos_of id) <- Rng.bool rng) masked.random_inputs;
  vec

(** Evaluate the masked circuit on original input [values] with fresh
    masking randomness, decoding each output from its shares. *)
let eval rng masked ~values =
  let vec = input_vector rng masked ~values in
  let outs = Netlist.Sim.eval masked.circuit vec in
  let out_positions =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun pos (nm, _) -> Hashtbl.replace tbl nm pos) (Circuit.outputs masked.circuit);
    tbl
  in
  List.map
    (fun (nm, share_names) ->
      let bits = Array.map (fun sn -> outs.(Hashtbl.find out_positions sn)) share_names in
      nm, decode bits)
    masked.output_shares
