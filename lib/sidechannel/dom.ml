(** Domain-oriented masking (Groß et al. [5] — the masking scheme the
    paper's Table II cites for the HLS row).

    Like ISW, every secret is split into d+1 XOR shares ("domains"); the
    crucial difference is the *register stage*: every cross-domain product
    is remasked with fresh randomness and then REGISTERED before being
    integrated into its target domain. The registers stop intra-cycle
    glitch propagation across domains — DOM's security argument in the
    robust (glitchy) probing model, at the price of one cycle of latency
    per AND level.

    DOM-indep AND over domains i, j:
      inner terms:  a_i b_i                       (stay in domain i)
      cross terms:  reg(a_i b_j xor z_ij)         (i != j, fresh z per
                                                   unordered pair, shared:
                                                   z_ij = z_ji)
      q_i = a_i b_i xor sum_j reg(a_i b_j xor z_ij)

    The transform pipelines the whole circuit level by level: XOR/NOT are
    share-wise and free; each AND level costs one cycle. For simplicity
    every AND output is registered (also the convention in the original
    DOM pipeline), and non-AND values crossing a register level get
    pipeline registers so all paths stay aligned. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type masked = {
  circuit : Circuit.t;
  shares : int;
  latency : int;  (* clock cycles until outputs are valid *)
  input_shares : (string * int array) list;
  random_inputs : int array;
  output_shares : (string * string array) list;
}

let prefix = "dom_"

let protected_name name = String.length name >= 4 && String.sub name 0 4 = prefix

let transform ?(shares = 2) source =
  assert (shares >= 2);
  let src = Synth.Pass.apply "to_and_xor_not" source in
  assert (Circuit.num_dffs src = 0);
  let c = Circuit.create () in
  let counter = ref 0 in
  let fresh tag =
    incr counter;
    Printf.sprintf "%s%s_%d" prefix tag !counter
  in
  let input_shares =
    Array.to_list (Circuit.inputs src)
    |> List.map (fun id ->
        let base = Circuit.name src id in
        (* "<base>_s<k>": the share naming Masking.interface_of groups. *)
        let ids =
          Array.init shares (fun s ->
              Circuit.add_input ~name:(Printf.sprintf "%s_s%d" base s) c)
        in
        base, ids)
  in
  let random_inputs = ref [] in
  let fresh_random () =
    let id = Circuit.add_input ~name:(fresh "z") c in
    random_inputs := id :: !random_inputs;
    id
  in
  let gate kind fanins = Circuit.add_node_raw c kind (Array.of_list fanins) (fresh (Gate.name kind)) in
  let register node =
    let ff = Circuit.add_dff ~name:(fresh "reg") c ~d:node in
    ff
  in
  (* Per source node: its share vector and its pipeline level. *)
  let share_map = Hashtbl.create 64 in
  let level_map = Hashtbl.create 64 in
  List.iteri
    (fun k (_, ids) ->
      Hashtbl.replace share_map (Circuit.inputs src).(k) ids;
      Hashtbl.replace level_map (Circuit.inputs src).(k) 0)
    input_shares;
  (* Delay a share vector by [cycles] pipeline registers. *)
  let rec delay_to target_level current_level vec =
    if current_level >= target_level then vec
    else delay_to target_level (current_level + 1) (Array.map register vec)
  in
  let max_level = ref 0 in
  for i = 0 to Circuit.node_count src - 1 do
    let nd = Circuit.node src i in
    let sh k = Hashtbl.find share_map nd.Circuit.fanins.(k) in
    let lv k = Hashtbl.find level_map nd.Circuit.fanins.(k) in
    match nd.Circuit.kind with
    | Gate.Input -> ()
    | Gate.Const b ->
      let zero = Circuit.add_const ~name:(fresh "c0") c false in
      let v = Circuit.add_const ~name:(fresh "cv") c b in
      Hashtbl.replace share_map i (Array.init shares (fun s -> if s = 0 then v else zero));
      Hashtbl.replace level_map i 0
    | Gate.Not ->
      let a = sh 0 in
      Hashtbl.replace share_map i
        (Array.mapi (fun s a_s -> if s = 0 then gate Gate.Not [ a_s ] else a_s) a);
      Hashtbl.replace level_map i (lv 0)
    | Gate.Xor ->
      (* Align both operands to the later level, then share-wise XOR. *)
      let target = max (lv 0) (lv 1) in
      let a = delay_to target (lv 0) (sh 0) in
      let b = delay_to target (lv 1) (sh 1) in
      Hashtbl.replace share_map i (Array.init shares (fun s -> gate Gate.Xor [ a.(s); b.(s) ]));
      Hashtbl.replace level_map i target
    | Gate.And ->
      let target = max (lv 0) (lv 1) in
      let a = delay_to target (lv 0) (sh 0) in
      let b = delay_to target (lv 1) (sh 1) in
      (* Shared randomness per unordered domain pair. *)
      let z = Array.make_matrix shares shares (-1) in
      for p = 0 to shares - 1 do
        for q = p + 1 to shares - 1 do
          let r = fresh_random () in
          z.(p).(q) <- r;
          z.(q).(p) <- r
        done
      done;
      (* All terms registered (inner terms too, keeping domains aligned). *)
      let out =
        Array.init shares (fun s ->
            let inner = register (gate Gate.And [ a.(s); b.(s) ]) in
            let crosses =
              List.filter_map
                (fun j ->
                  if j = s then None
                  else begin
                    let prod = gate Gate.And [ a.(s); b.(j) ] in
                    let remasked = gate Gate.Xor [ prod; z.(s).(j) ] in
                    Some (register remasked)
                  end)
                (List.init shares (fun j -> j))
            in
            List.fold_left (fun acc x -> gate Gate.Xor [ acc; x ]) inner crosses)
      in
      Hashtbl.replace share_map i out;
      let lvl = target + 1 in
      Hashtbl.replace level_map i lvl;
      if lvl > !max_level then max_level := lvl
    | Gate.Buf | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xnor | Gate.Mux | Gate.Dff ->
      invalid_arg "Dom.transform: circuit not in AND/XOR/NOT basis"
  done;
  (* Align every output to the global latency. *)
  let output_shares =
    Array.to_list (Circuit.outputs src)
    |> List.map (fun (nm, o) ->
        let vec = delay_to !max_level (Hashtbl.find level_map o) (Hashtbl.find share_map o) in
        let names =
          Array.mapi
            (fun s id ->
              let out_name = Printf.sprintf "%s_d%d" nm s in
              Circuit.set_output c out_name id;
              out_name)
            vec
        in
        nm, names)
  in
  { circuit = c;
    shares;
    latency = !max_level;
    input_shares;
    random_inputs = Array.of_list (List.rev !random_inputs);
    output_shares }

(** Evaluate on original input [values]: shares and randomness drawn
    fresh, the pipeline clocked [latency] + 1 cycles with inputs held,
    outputs decoded from the share registers. *)
let eval rng masked ~values =
  let c = masked.circuit in
  let vec =
    Isw.stimulus rng c ~shares:masked.shares ~input_shares:masked.input_shares
      ~random_inputs:masked.random_inputs ~values
  in
  let state = ref (Array.make (Circuit.num_dffs c) false) in
  for _ = 0 to masked.latency do
    state := snd (Netlist.Sim.step c ~state:!state vec)
  done;
  (* One more settle: outputs read the registered values combinationally. *)
  let outs, _ = Netlist.Sim.step c ~state:!state vec in
  Isw.decode_outputs c ~output_shares:masked.output_shares outs

(** Cost comparison vs ISW at the same share count, for the ablation. *)
type cost = { area : float; randoms : int; latency : int; registers : int }

let cost masked =
  { area = (Circuit.stats masked.circuit).Circuit.area;
    randoms = Array.length masked.random_inputs;
    latency = masked.latency;
    registers = Circuit.num_dffs masked.circuit }
