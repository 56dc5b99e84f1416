(** XOR re-association — the paper's motivational example of a classical,
    security-oblivious optimization (Fig. 2).

    XOR is associative and commutative, so a synthesis tool is free to
    regroup any multi-input XOR tree to improve timing (balance the tree) or
    area (place structurally similar leaves next to each other so that
    factoring like a3*b1 ^ a3*b2 ^ a3*b3 = a3*(b1^b2^b3) becomes available).
    Functional correctness is preserved by construction.

    For a private circuit (ISW masking) the regrouping is catastrophic: the
    scheme's security rests on the *order* in which shares and randomness
    are accumulated; regrouping can create an intermediate wire that equals
    an unmasked secret-dependent value. This pass faithfully implements the
    paper's "factoring-friendly" leaf ordering: leaves of each maximal XOR
    tree are sorted so that leaves sharing a fanin become adjacent, then the
    chain is rebuilt left-to-right — exactly the transformation the paper
    warns about. Running it with [protect] covering the masked cone models a
    security-aware tool that honours order barriers. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

(* Collect the leaves of the maximal XOR/XNOR tree rooted at [root].
   Returns leaves (non-XOR fanin cones) and the output inversion parity.
   [stop] limits expansion: nodes with external fanout other than their XOR
   parent must remain (they are observable), so we only absorb single-fanout
   internal XOR nodes. *)
let collect_tree c ~fanout_count ~protect root =
  let leaves = ref [] in
  let parity = ref false in
  let rec go node ~is_root =
    let nd = Circuit.node c node in
    let absorbable =
      (not (protect node))
      && (is_root || fanout_count.(node) = 1)
      && (match nd.Circuit.kind with Gate.Xor | Gate.Xnor -> true | _ -> false)
    in
    if absorbable then begin
      (match nd.Circuit.kind with
       | Gate.Xnor -> parity := not !parity
       | _ -> ());
      Array.iter (fun f -> go f ~is_root:false) nd.Circuit.fanins
    end
    else leaves := node :: !leaves
  in
  go root ~is_root:true;
  List.rev !leaves, !parity

(* Sort key grouping structurally similar leaves: leaves that are 2-input
   gates sharing their smallest fanin id sort together, which is what makes
   shared-factor extraction (and the Fig. 2 leak) happen. *)
let leaf_key c leaf =
  let nd = Circuit.node c leaf in
  match nd.Circuit.kind with
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    let a = min nd.Circuit.fanins.(0) nd.Circuit.fanins.(1) in
    (0, a, leaf)
  | Gate.Input -> (2, leaf, leaf)
  | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Dff ->
    (1, leaf, leaf)

type strategy =
  | Factoring_friendly  (* sort leaves to group shared-fanin products *)
  | Balanced  (* balanced tree for timing; leaf order preserved *)

(** Apply the re-association to every maximal XOR tree root. *)
let run ?(protect = Rewrite.no_protection) ?(strategy = Factoring_friendly) c =
  let protect i = protect (Circuit.name c i) in
  let n = Circuit.node_count c in
  let { Circuit.fanout_start = start; fanout; _ } = Circuit.view c in
  let fanout_count = Array.init n (fun i -> start.(i + 1) - start.(i)) in
  (* Mark outputs and DFF D-inputs as extra fanout so observable XORs stay
     put as roots. *)
  Array.iter
    (fun (_, o) -> fanout_count.(o) <- fanout_count.(o) + 1)
    (Circuit.outputs c);
  Array.iter
    (fun dff ->
      let d = (Circuit.fanins c dff).(0) in
      fanout_count.(d) <- fanout_count.(d) + 1)
    (Circuit.dffs c);
  (* Roots: XOR/XNOR nodes that are not absorbed by an XOR parent, i.e.
     with some non-XOR consumer or fanout <> 1, and unprotected. *)
  let is_xor i =
    match Circuit.kind c i with Gate.Xor | Gate.Xnor -> true | _ -> false
  in
  let is_root = Array.make n false in
  for i = 0 to n - 1 do
    if is_xor i && not (protect i) then begin
      let absorbed =
        fanout_count.(i) = 1
        && start.(i + 1) - start.(i) = 1
        && is_xor fanout.(start.(i))
        && not (protect fanout.(start.(i)))
      in
      is_root.(i) <- not absorbed
    end
  done;
  let out = Circuit.create () in
  let remap =
    Circuit.rebuild ~into:out c (fun copy remap i ->
        if is_root.(i) then begin
          let leaves, parity = collect_tree c ~fanout_count ~protect i in
          let leaves =
            match strategy with
            | Factoring_friendly ->
              List.stable_sort (fun a b -> compare (leaf_key c a) (leaf_key c b)) leaves
            | Balanced -> leaves
          in
          let mapped = List.map (fun l -> remap.(l)) leaves in
          List.iter (fun m -> assert (m >= 0)) mapped;
          let tree =
            match strategy with
            | Factoring_friendly -> Circuit.reduce_chain out Gate.Xor mapped
            | Balanced -> Circuit.reduce out Gate.Xor mapped
          in
          let name () = Circuit.free_name out (Circuit.name c i) in
          if parity then Circuit.add_node_raw out Gate.Not [| tree |] (name ())
          else if List.length leaves = 1 then
            (* Degenerate: single leaf; keep a buffer to carry the name. *)
            Circuit.add_node_raw out Gate.Buf [| tree |] (name ())
          else tree
        end
        else if is_xor i && not (protect i) then
          (* Absorbed into a root built later, which reads its leaves,
             never this node. *)
          -1
        else copy i)
  in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs c);
  fst (Circuit.sweep out)
