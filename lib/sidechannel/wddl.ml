(** Wave dynamic differential logic (WDDL, Tiri & Verbauwhede [21]) — the
    "hiding" countermeasure of the paper's logic-synthesis row, the main
    alternative to masking.

    Every signal is carried on a complementary rail pair (s, s̄) and every
    cycle has a precharge phase (all rails low) followed by evaluation.
    Because exactly one rail of every pair rises in every evaluation, the
    number of 0->1 transitions per cycle is a data-independent constant:
    the power signature carries no first-order information — without any
    randomness, but at ~2x area and half throughput.

    WDDL gates use only positive-monotone functions so the precharge wave
    propagates: AND -> (AND, OR on complements), OR -> (OR, AND on
    complements), NOT -> rail swap. The transform first rewrites the
    circuit into the AND/XOR/NOT basis and expresses XOR differentially. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type dual = {
  circuit : Circuit.t;
  (* Original input name -> (true rail id, false rail id). *)
  input_rails : (string * (int * int)) list;
  (* Original output name -> (true rail name, false rail name). *)
  output_rails : (string * (string * string)) list;
}

let transform source =
  let src = Synth.Pass.apply "to_and_xor_not" source in
  assert (Circuit.num_dffs src = 0);
  let c = Circuit.create () in
  let input_rails =
    Array.to_list (Circuit.inputs src)
    |> List.map (fun id ->
        let base = Circuit.name src id in
        let t = Circuit.add_input ~name:(base ^ "_t") c in
        let f = Circuit.add_input ~name:(base ^ "_f") c in
        base, (t, f))
  in
  let rails = Hashtbl.create 64 in
  List.iteri
    (fun k (_, tf) -> Hashtbl.replace rails (Circuit.inputs src).(k) tf)
    input_rails;
  let gate kind fanins = Circuit.add_gate c kind fanins in
  for i = 0 to Circuit.node_count src - 1 do
    let nd = Circuit.node src i in
    let rail k = Hashtbl.find rails nd.Circuit.fanins.(k) in
    match nd.Circuit.kind with
    | Gate.Input -> ()
    | Gate.Const b ->
      (* Constants respect precharge via tying to the rails of a dummy
         evaluation signal; modelled as complementary constants. *)
      let t = Circuit.add_const c b and f = Circuit.add_const c (not b) in
      Hashtbl.replace rails i (t, f)
    | Gate.Not ->
      let t, f = rail 0 in
      Hashtbl.replace rails i (f, t)
    | Gate.And ->
      let at, af = rail 0 and bt, bf = rail 1 in
      let t = gate Gate.And [ at; bt ] in
      let f = gate Gate.Or [ af; bf ] in
      Hashtbl.replace rails i (t, f)
    | Gate.Xor ->
      (* Differential XOR from positive gates:
         t = at*bf + af*bt ; f = at*bt + af*bf. *)
      let at, af = rail 0 and bt, bf = rail 1 in
      let t = gate Gate.Or [ gate Gate.And [ at; bf ]; gate Gate.And [ af; bt ] ] in
      let f = gate Gate.Or [ gate Gate.And [ at; bt ]; gate Gate.And [ af; bf ] ] in
      Hashtbl.replace rails i (t, f)
    | Gate.Buf | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xnor | Gate.Mux | Gate.Dff ->
      invalid_arg "Wddl.transform: not in AND/XOR/NOT basis"
  done;
  let output_rails =
    Array.to_list (Circuit.outputs src)
    |> List.map (fun (nm, o) ->
        let t, f = Hashtbl.find rails o in
        let tn = nm ^ "_t" and fn = nm ^ "_f" in
        Circuit.set_output c tn t;
        Circuit.set_output c fn f;
        nm, (tn, fn))
  in
  { circuit = c; input_rails; output_rails }

(* Input vector for an evaluation phase: rail pair (v, not v) per input. *)
let eval_inputs dual ~values =
  let c = dual.circuit in
  let vec = Array.make (Circuit.num_inputs c) false in
  let pos_of = Circuit.input_position c in
  List.iter
    (fun (name, (t, f)) ->
      let v =
        match List.assoc_opt name values with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Wddl.eval_inputs: missing %s" name)
      in
      vec.(pos_of t) <- v;
      vec.(pos_of f) <- not v)
    dual.input_rails;
  vec

(* Precharge phase: all rails low. *)
let precharge_inputs dual = Array.make (Circuit.num_inputs dual.circuit) false

(** Evaluate the dual-rail circuit on original input [values]; decodes each
    output from its rails (checking complementarity). *)
let eval dual ~values =
  let outs = Netlist.Sim.eval dual.circuit (eval_inputs dual ~values) in
  let pos_of = Circuit.output_position dual.circuit in
  List.map
    (fun (nm, (tn, fn)) ->
      let t = outs.(pos_of tn) and f = outs.(pos_of fn) in
      assert (t <> f);  (* complementary rails in evaluation *)
      nm, t)
    dual.output_rails

(** The WDDL invariant, measurable: number of rising transitions from the
    precharge state to an evaluation is the same for every input. *)
let rising_transitions dual ~values =
  let c = dual.circuit in
  let pre = Netlist.Sim.eval_all c (precharge_inputs dual) in
  let post = Netlist.Sim.eval_all c (eval_inputs dual ~values) in
  let rising = ref 0 in
  for i = 0 to Circuit.node_count c - 1 do
    if (not pre.(i)) && post.(i) then incr rising
  done;
  !rising

(** Precharge-evaluate power sample: the side channel of a WDDL cycle.
    [scratch]/[scratch2] are the two net-word buffers of
    {!Power.Model.hamming_distance_sample}. *)
let power_sample ?scratch ?scratch2 rng dual ~noise_sigma ~values =
  Power.Model.hamming_distance_sample rng ?scratch ?scratch2 dual.circuit ~noise_sigma
    ~prev_inputs:(precharge_inputs dual)
    ~next_inputs:(eval_inputs dual ~values)

(** TVLA on a WDDL-protected circuit with a two-secret-input interface
    (like the Fig. 2 AND target). The campaign runs on the calling
    domain, so one pair of net buffers serves every trace. *)
let tvla_campaign rng dual ~traces_per_class ~noise_sigma =
  let n = Circuit.node_count dual.circuit in
  let scratch = Array.make n 0 and scratch2 = Array.make n 0 in
  let collect stream cls =
    let a, b =
      match cls with
      | `Fixed -> true, true
      | `Random -> Eda_util.Rng.bool stream, Eda_util.Rng.bool stream
    in
    [| power_sample ~scratch ~scratch2 stream dual ~noise_sigma ~values:[ ("a", a); ("b", b) ] |]
  in
  Tvla.campaign_seeded rng ~traces_per_class ~collect
