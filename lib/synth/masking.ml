(** Order-parametric masked-gadget insertion — the toolkit's one gadget
    generator. It builds the private circuit of the Fig. 2 demo (which a
    classical flow then breaks), the pipelined DOM of Table II and, as a
    synthesis pass, masks designs inside the flow.

    Two gadget styles over the AND/XOR/NOT basis, both emitted as
    left-to-right chains whose association order is the security
    property:

    - [Isw]: the ISW private-circuit AND — per ordered share pair,
      [z_qp = (r ^ a_p b_q) ^ a_q b_p] with fresh randomness per
      unordered pair, accumulated as
      [c_i = a_i b_i ^ z_i1 ^ ...] — the private circuit of the
      paper's motivational example (Sec. II-B);
    - [Dom]: the DOM-indep AND (Groß et al. [5]) — cross products
      remasked with randomness {e shared} per unordered pair
      ([q_i = a_i b_i ^ (a_i b_j ^ z_ij) ^ ...]). Combinational, only
      the probing-model argument applies; {!pipelined} adds DOM's
      register stage, the glitch barrier: every term is registered
      before integration, at one cycle of latency per AND level.

    Masking randomness is {e distributed} deterministically: the pass
    pre-declares every randomness input and assigns them to gadgets
    through a seeded [Rng] permutation, so the emitted netlist is a pure
    function of (circuit, shares, style, seed) — reproducible across
    runs and machines.

    Every created net carries the ["mg_"] prefix, which doubles as the
    order barrier for security-aware synthesis.

    Modes:
    - {!transform} masks a whole combinational circuit, re-shaping its
      interface: each primary input [x] becomes share inputs [x_s0..],
      each output likewise, plus randomness inputs [mg_r*];
    - {!pipelined} is {!transform} at style [Dom] with the register
      stage: operands from earlier stages pass through pipeline
      registers and the outputs are aligned to the AND depth;
    - {!mask_region} splices gadgets for one annotated region {e inside}
      an otherwise untouched circuit: boundary values are split by
      XOR-encoders fed from fresh randomness inputs, the region is
      replaced by its masked counterpart, and XOR-decoders restore the
      original net names at the region exits, so the circuit's interface
      and function are preserved (for any value of the new randomness
      inputs). *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng

type style = Isw | Dom

let style_of_string = function
  | "isw" -> Isw
  | "dom" -> Dom
  | s -> invalid_arg (Printf.sprintf "Masking: unknown style %s (isw|dom)" s)

let string_of_style = function Isw -> "isw" | Dom -> "dom"

type masked = {
  circuit : Circuit.t;
  shares : int;
  style : style;
  latency : int;
  input_shares : (string * int array) list;
  random_inputs : int array;
  output_shares : (string * string array) list;
}

let prefix = "mg_"
let protected_name name = String.starts_with ~prefix name

(* --- The gadget walk --------------------------------------------------- *)

(* Randomness demand of one AND gadget: one fresh bit per unordered share
   pair, in both styles. *)
let pairs_per_and shares = shares * (shares - 1) / 2

(* One walk over the AND/XOR/NOT basis. With [registered] the DOM terms
   are registered before integration, operands from earlier stages pass
   through pipeline registers, and outputs are aligned to the AND depth;
   without it every level stays 0 and no register is built. *)
let walk ~registered ~shares ~style ~seed source =
  if shares < 2 then invalid_arg "Masking.transform: shares < 2";
  let src = Basis.to_and_xor_not source in
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
  (* Deterministic randomness distribution: declare the whole randomness
     budget up front, then deal it to AND gadgets through a seeded
     permutation. *)
  let n_and = ref 0 in
  for i = 0 to Circuit.node_count src - 1 do
    if Circuit.kind src i = Gate.And then incr n_and
  done;
  let pairs = pairs_per_and shares in
  let total = !n_and * pairs in
  let random_inputs =
    Array.init total (fun i -> Circuit.add_input ~name:(Printf.sprintf "%sr%d" prefix i) c)
  in
  let deal =
    let slots = Array.init total (fun i -> i) in
    Rng.shuffle (Rng.create (0x6d61736b + seed)) slots;
    slots
  in
  let gadget_index = ref 0 in
  let gate kind fanins =
    Circuit.add_node_raw c kind (Array.of_list fanins) (fresh (Gate.name kind))
  in
  (* One register per D net: an operand that several later gates read
     passes through one pipeline chain. *)
  let registers = Hashtbl.create 64 in
  let stage node =
    if not registered then node
    else
      match Hashtbl.find_opt registers node with
      | Some q -> q
      | None ->
        let q = Circuit.add_dff ~name:(fresh "reg") c ~d:node in
        Hashtbl.add registers node q;
        q
  in
  (* Per source node: its share vector and its pipeline level. *)
  let share_map = Hashtbl.create 64 in
  List.iteri
    (fun k (_, ids) -> Hashtbl.replace share_map (Circuit.inputs src).(k) (ids, 0))
    input_shares;
  (* A share vector delayed from [level] to [target] through pipeline
     registers. *)
  let rec delay target (vec, level) =
    if level >= target then vec else delay target (Array.map stage vec, level + 1)
  in
  let depth = ref 0 in
  for i = 0 to Circuit.node_count src - 1 do
    let nd = Circuit.node src i in
    let sh k = Hashtbl.find share_map nd.Circuit.fanins.(k) in
    (* Both operands aligned to the later of their levels. *)
    let aligned () =
      let a = sh 0 and b = sh 1 in
      let target = max (snd a) (snd b) in
      let a = delay target a in
      let b = delay target b in
      a, b, target
    in
    match nd.Circuit.kind with
    | Gate.Input -> ()
    | Gate.Const b ->
      (* Share 0 carries the value, the rest are zero. *)
      let zero = Circuit.add_const ~name:(fresh "c0") c false in
      let v = Circuit.add_const ~name:(fresh "cv") c b in
      Hashtbl.replace share_map i (Array.init shares (fun s -> if s = 0 then v else zero), 0)
    | Gate.Not ->
      let a, level = sh 0 in
      Hashtbl.replace share_map i
        (Array.mapi (fun s a_s -> if s = 0 then gate Gate.Not [ a_s ] else a_s) a, level)
    | Gate.Xor ->
      let a, b, level = aligned () in
      Hashtbl.replace share_map i
        (Array.init shares (fun s -> gate Gate.Xor [ a.(s); b.(s) ]), level)
    | Gate.And ->
      let a, b, level = aligned () in
      let slot = !gadget_index * pairs in
      incr gadget_index;
      let z = Array.make_matrix shares shares (-1) in
      let pair = ref 0 in
      for p = 0 to shares - 1 do
        for q = p + 1 to shares - 1 do
          let r = random_inputs.(deal.(slot + !pair)) in
          incr pair;
          (match style with
           | Isw ->
             z.(p).(q) <- r;
             (* z_qp = (r ^ a_p b_q) ^ a_q b_p — parentheses matter. *)
             let apbq = gate Gate.And [ a.(p); b.(q) ] in
             let aqbp = gate Gate.And [ a.(q); b.(p) ] in
             let t1 = gate Gate.Xor [ r; apbq ] in
             z.(q).(p) <- gate Gate.Xor [ t1; aqbp ]
           | Dom ->
             (* Shared randomness per unordered pair; each cross product
                is remasked before integration. *)
             z.(p).(q) <- r;
             z.(q).(p) <- r)
        done
      done;
      let out =
        Array.init shares (fun s ->
            let acc = ref (stage (gate Gate.And [ a.(s); b.(s) ])) in
            for j = 0 to shares - 1 do
              if j <> s then
                (match style with
                 | Isw -> acc := gate Gate.Xor [ !acc; z.(s).(j) ]
                 | Dom ->
                   let prod = gate Gate.And [ a.(s); b.(j) ] in
                   let remasked = stage (gate Gate.Xor [ prod; z.(s).(j) ]) in
                   acc := gate Gate.Xor [ !acc; remasked ])
            done;
            !acc)
      in
      let level = if registered then level + 1 else level in
      depth := max !depth level;
      Hashtbl.replace share_map i (out, level)
    | Gate.Buf | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xnor | Gate.Mux | Gate.Dff ->
      invalid_arg "Masking.transform: circuit not in AND/XOR/NOT basis"
  done;
  let output_shares =
    Array.to_list (Circuit.outputs src)
    |> List.map (fun (nm, o) ->
        let ids = delay !depth (Hashtbl.find share_map o) in
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
  { circuit = c; shares; style; latency = !depth; input_shares; random_inputs; output_shares }

let transform ?(shares = 3) ?(style = Isw) ?(seed = 0) source =
  walk ~registered:false ~shares ~style ~seed source

let pipelined ~shares source = walk ~registered:true ~shares ~style:Dom ~seed:0 source

(* --- Region splicing --------------------------------------------------- *)

(** Mask one annotated region in place, preserving the circuit interface
    and function for every value of the fresh [mg_] randomness inputs. *)
let mask_region ?(shares = 3) ?(style = Isw) ?(seed = 0) c ~region =
  let members = Circuit.region_members c region in
  if members = [] then
    invalid_arg (Printf.sprintf "Masking.mask_region: region %s is empty or unknown" region);
  let n = Circuit.node_count c in
  let is_member = Circuit.region_mask c region in
  List.iter
    (fun id ->
      match Circuit.kind c id with
      | Gate.Input | Gate.Dff ->
        invalid_arg
          (Printf.sprintf "Masking.mask_region: region %s contains non-combinational net %s"
             region (Circuit.name c id))
      | _ -> ())
    members;
  (* Boundary: non-member fanins of members, ascending, deduplicated. *)
  let boundary =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun m ->
        Array.iter
          (fun f -> if not is_member.(f) then Hashtbl.replace seen f ())
          (Circuit.fanins c m))
      members;
    List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) seen [])
  in
  let max_boundary = List.fold_left max (-1) boundary in
  let pos = max_boundary + 1 in
  (* Region exits: members consumed outside the region (combinationally,
     by a DFF, or as a primary output), ascending. *)
  let consumed = Array.make n false in
  for i = 0 to n - 1 do
    if not is_member.(i) then
      Array.iter (fun f -> if is_member.(f) then consumed.(f) <- true) (Circuit.fanins c i)
  done;
  Array.iter (fun (_, o) -> if is_member.(o) then consumed.(o) <- true) (Circuit.outputs c);
  let exits = List.filter (fun m -> consumed.(m)) (List.sort compare members) in
  if exits = [] then
    invalid_arg (Printf.sprintf "Masking.mask_region: region %s drives nothing" region);
  (* Every combinational consumer must be emittable after the gadget:
     the splice point is right after the last boundary net. *)
  for u = 0 to pos - 1 do
    if not is_member.(u) && Gate.is_combinational (Circuit.kind c u) then
      Array.iter
        (fun f ->
          if is_member.(f) then
            invalid_arg
              (Printf.sprintf
                 "Masking.mask_region: region %s is not convex (net %s consumes it before \
                  the boundary closes)"
                 region (Circuit.name c u)))
        (Circuit.fanins c u)
  done;
  (* Extract the region as a standalone combinational subcircuit. *)
  let sub = Circuit.create () in
  let sub_map = Hashtbl.create 32 in
  List.iter
    (fun b -> Hashtbl.replace sub_map b (Circuit.add_input ~name:(Circuit.name c b) sub))
    boundary;
  List.iter
    (fun m ->
      let nd = Circuit.node c m in
      let fanins = Array.map (fun f -> Hashtbl.find sub_map f) nd.Circuit.fanins in
      Hashtbl.replace sub_map m (Circuit.add_node_raw sub nd.Circuit.kind fanins nd.Circuit.name))
    (List.sort compare members);
  List.iter
    (fun m -> Circuit.set_output sub (Circuit.name c m) (Hashtbl.find sub_map m))
    exits;
  let m = transform ~shares ~style ~seed sub in
  (* Rebuild the host circuit with the gadget spliced at [pos]. *)
  let out = Circuit.create () in
  let fresh_pi =
    let k = ref 0 in
    fun tag ->
      incr k;
      Circuit.add_input ~name:(Printf.sprintf "%s%s_%s_%d" prefix tag region !k) out
  in
  let splice remap =
    (* Encoders: split each boundary value into [shares] XOR shares with
       fresh randomness inputs; share 0 absorbs the value through a
       left-to-right chain of protected XORs. *)
    let encoded = Hashtbl.create 16 in  (* boundary name -> share ids in [out] *)
    List.iter
      (fun b ->
        let bname = Circuit.name c b in
        let rands = Array.init (shares - 1) (fun _ -> fresh_pi "r") in
        let chain = ref remap.(b) in
        Array.iteri
          (fun k r ->
            let nm = Printf.sprintf "%senc_%s_%s_%d" prefix region bname k in
            chain := Circuit.add_gate ~name:nm out Gate.Xor [ !chain; r ])
          rands;
        Hashtbl.replace encoded bname
          (Array.init shares (fun s -> if s = 0 then !chain else rands.(s - 1))))
      boundary;
    (* Bind the masked subcircuit's inputs: share inputs to encoder nets,
       randomness inputs to fresh primary inputs of the host. *)
    let bind = Hashtbl.create 64 in  (* sub-circuit input id -> [out] id *)
    List.iter
      (fun (bname, ids) ->
        let enc = Hashtbl.find encoded bname in
        Array.iteri (fun s id -> Hashtbl.replace bind id enc.(s)) ids)
      m.input_shares;
    Array.iter (fun id -> Hashtbl.replace bind id (fresh_pi "rnd")) m.random_inputs;
    let bindings = Array.map (fun id -> Hashtbl.find bind id) (Circuit.inputs m.circuit) in
    let gadget_prefix = Printf.sprintf "%s%s_" prefix region in
    let outs = Circuit.inline ~into:out ~sub:m.circuit ~prefix:gadget_prefix bindings in
    (* Decoders: XOR the shares back together; the final gate takes over
       the original net name so downstream logic rewires transparently. *)
    List.iteri
      (fun g exit_id ->
        let exit_name = Circuit.name c exit_id in
        let chain = ref outs.(g * shares) in
        for s = 1 to shares - 1 do
          let nm =
            if s = shares - 1 then exit_name
            else Printf.sprintf "%sdec_%s_%s_%d" prefix region exit_name s
          in
          chain := Circuit.add_gate ~name:nm out Gate.Xor [ !chain; outs.((g * shares) + s) ]
        done;
        remap.(exit_id) <- !chain)
      exits
  in
  (* [pos] <= the last member's id <= n-1, so the splice always fires;
     it maps the exits, and members keep what it stored. *)
  let remap =
    Circuit.rebuild ~into:out c (fun copy remap i ->
        if i = pos then splice remap;
        if is_member.(i) then remap.(i) else copy i)
  in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs c);
  Circuit.transfer_regions ~from:c out;
  out

(* --- Interface recovery ------------------------------------------------ *)

type iface = {
  secrets : (string * int array) list;
      (** per original input: its share input ids ([|id|] when unshared) *)
  randoms : int array;  (** masking-randomness inputs, declaration order *)
}

(* "<base>_s<k>" -> Some (base, k) *)
let share_pattern nm =
  match String.rindex_opt nm '_' with
  | None -> None
  | Some u when u + 2 > String.length nm -> None
  | Some u ->
    if nm.[u + 1] <> 's' then None
    else
      let digits = String.sub nm (u + 2) (String.length nm - u - 2) in
      (match int_of_string_opt digits with
       | Some k when k >= 0 -> Some (String.sub nm 0 u, k)
       | _ -> None)

(** Reconstruct the masked interface of a circuit from its input names:
    [mg_]-prefixed inputs are masking randomness, [<base>_s<k>] groups are
    share vectors, anything else is an unshared secret. Works on the
    output of {!transform}, of {!mask_region}, and on plain unmasked
    circuits (everything lands in [secrets]) — the basis for running one
    TVLA harness over masked and unmasked designs alike. *)
let interface_of c =
  let randoms = ref [] in
  let groups = ref [] in  (* (base, (k, id) list) in first-seen order, reversed *)
  let add_share base k id =
    match List.assoc_opt base !groups with
    | Some members -> members := (k, id) :: !members
    | None -> groups := (base, ref [ (k, id) ]) :: !groups
  in
  Array.iter
    (fun id ->
      let nm = Circuit.name c id in
      if protected_name nm then randoms := id :: !randoms
      else
        match share_pattern nm with
        | Some (base, k) -> add_share base k id
        | None -> add_share nm (-1) id)
    (Circuit.inputs c);
  let secrets =
    List.rev_map
      (fun (base, members) ->
        let sorted = List.sort compare !members in
        base, Array.of_list (List.map snd sorted))
      !groups
  in
  { secrets; randoms = Array.of_list (List.rev !randoms) }
