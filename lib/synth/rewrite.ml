(** Local logic rewriting: constant propagation, algebraic identities and
    structural hashing (common-subexpression elimination).

    Every pass maps an input circuit to a fresh, functionally equivalent
    circuit, expressed as an old-node -> new-node substitution built in one
    topological sweep. Passes accept a [protect] predicate: nodes for which
    it returns true are copied verbatim and never merged, simplified or
    re-expressed — the hook through which security-aware synthesis keeps its
    hands off masked logic (see [Xor_reassoc] for why that matters). *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

let no_protection _ = false

(* Rebuild [c] mapping each node through [rewrite out copy remap i], which
   receives the partially built output circuit and returns the node's new
   id; outputs follow the map. *)
let rebuild c rewrite =
  let out = Circuit.create () in
  let remap = Circuit.rebuild ~into:out c (rewrite out) in
  Array.iter (fun (nm, o) -> Circuit.set_output out nm remap.(o)) (Circuit.outputs c);
  out

(** Constant propagation and algebraic simplification:
    AND(x,0)=0, AND(x,1)=x, XOR(x,0)=x, XOR(x,x)=0, NOT(NOT x)=x, etc. *)
let constant_propagation ?(protect = no_protection) c =
  (* Protection is by net name so that it survives the id renumbering a
     pass pipeline performs; protected nodes keep their names verbatim. *)
  let protect i = protect (Circuit.name c i) in
  (* Track, for each new node, whether it is a known constant, and expose
     double negations. *)
  let const_of = Hashtbl.create 64 in  (* new id -> bool *)
  let not_of = Hashtbl.create 64 in  (* new id -> new id it negates *)
  let constant out b =
    (* Reuse a single constant node per polarity. *)
    match
      Hashtbl.fold
        (fun id v acc -> if v = b && acc = None then Some id else acc)
        const_of None
    with
    | Some id -> id
    | None ->
      let id = Circuit.add_const out b in
      Hashtbl.replace const_of id b;
      id
  in
  let rewrite out copy remap i =
    let nd = Circuit.node c i in
    if protect i then copy i
    else begin
      let f k = remap.(nd.Circuit.fanins.(k)) in
      let cst id = Hashtbl.find_opt const_of id in
      let fresh kind fanins =
        let name = Circuit.free_name out (Circuit.name c i) in
        let id = Circuit.add_node_raw out kind (Array.of_list fanins) name in
        (match kind with
         | Gate.Const b -> Hashtbl.replace const_of id b
         | Gate.Not -> (match fanins with [ a ] -> Hashtbl.replace not_of id a | _ -> ())
         | Gate.Input | Gate.Buf | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
         | Gate.Xor | Gate.Xnor | Gate.Mux | Gate.Dff -> ());
        id
      in
      let negate a =
        (* NOT(NOT x) = x. *)
        match Hashtbl.find_opt not_of a with
        | Some inner -> inner
        | None ->
          (match cst a with
           | Some b -> constant out (not b)
           | None -> fresh Gate.Not [ a ])
      in
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff -> copy i
      | Gate.Const b -> constant out b
      | Gate.Buf -> f 0
      | Gate.Not -> negate (f 0)
      | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
        let a = f 0 and b = f 1 in
        let invert_if_needed ~inverted id = if inverted then negate id else id in
        let binop base ~inverted =
          (* base is And / Or / Xor; inverted adds an output negation. *)
          match base, cst a, cst b with
          | Gate.And, Some false, _ | Gate.And, _, Some false ->
            constant out inverted
          | Gate.And, Some true, _ -> invert_if_needed ~inverted b
          | Gate.And, _, Some true -> invert_if_needed ~inverted a
          | Gate.And, None, None ->
            if a = b then invert_if_needed ~inverted a
            else fresh (if inverted then Gate.Nand else Gate.And) [ a; b ]
          | Gate.Or, Some true, _ | Gate.Or, _, Some true ->
            constant out (not inverted)
          | Gate.Or, Some false, _ -> invert_if_needed ~inverted b
          | Gate.Or, _, Some false -> invert_if_needed ~inverted a
          | Gate.Or, None, None ->
            if a = b then invert_if_needed ~inverted a
            else fresh (if inverted then Gate.Nor else Gate.Or) [ a; b ]
          | Gate.Xor, Some ca, Some cb -> constant out (inverted <> (ca <> cb))
          | Gate.Xor, Some false, None -> invert_if_needed ~inverted b
          | Gate.Xor, None, Some false -> invert_if_needed ~inverted a
          | Gate.Xor, Some true, None -> invert_if_needed ~inverted:(not inverted) b
          | Gate.Xor, None, Some true -> invert_if_needed ~inverted:(not inverted) a
          | Gate.Xor, None, None ->
            if a = b then constant out inverted
            else fresh (if inverted then Gate.Xnor else Gate.Xor) [ a; b ]
          | (Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Nand
            | Gate.Nor | Gate.Xnor | Gate.Mux | Gate.Dff), _, _ ->
            assert false
        in
        (match nd.Circuit.kind with
         | Gate.And -> binop Gate.And ~inverted:false
         | Gate.Nand -> binop Gate.And ~inverted:true
         | Gate.Or -> binop Gate.Or ~inverted:false
         | Gate.Nor -> binop Gate.Or ~inverted:true
         | Gate.Xor -> binop Gate.Xor ~inverted:false
         | Gate.Xnor -> binop Gate.Xor ~inverted:true
         | Gate.Input | Gate.Const _ | Gate.Buf | Gate.Not | Gate.Mux | Gate.Dff ->
           assert false)
      | Gate.Mux ->
        let s = f 0 and a = f 1 and b = f 2 in
        (match cst s with
         | Some false -> a
         | Some true -> b
         | None ->
           if a = b then a
           else
             (match cst a, cst b with
              | Some false, Some true -> s
              | Some true, Some false -> negate s
              | Some false, None -> fresh Gate.And [ s; b ]
              | None, Some true -> fresh Gate.Or [ s; a ]
              | _, _ -> fresh Gate.Mux [ s; a; b ]))
    end
  in
  let out = rebuild c rewrite in
  fst (Circuit.sweep out)

(** Structural hashing: nodes with the same kind and (normalized) fanins
    collapse to one. Commutative kinds sort their fanins. *)
let strash ?(protect = no_protection) c =
  let protect i = protect (Circuit.name c i) in
  let table = Hashtbl.create 256 in  (* (kind, fanins) -> new id *)
  let rewrite out copy remap i =
    let nd = Circuit.node c i in
    if protect i then copy i
    else begin
      match nd.Circuit.kind with
      | Gate.Input | Gate.Dff | Gate.Const _ -> copy i
      | k ->
        let fanins = Array.map (fun f -> remap.(f)) nd.Circuit.fanins in
        let normalized =
          match k with
          | Gate.And | Gate.Nand | Gate.Or | Gate.Nor | Gate.Xor | Gate.Xnor ->
            let s = Array.copy fanins in
            Array.sort compare s;
            s
          | Gate.Buf | Gate.Not | Gate.Mux -> fanins
          | Gate.Input | Gate.Dff | Gate.Const _ -> assert false
        in
        let key = (k, normalized) in
        (match Hashtbl.find_opt table key with
         | Some id -> id
         | None ->
           let id = Circuit.add_node_raw out k fanins (Circuit.free_name out nd.Circuit.name) in
           Hashtbl.replace table key id;
           id)
    end
  in
  let out = rebuild c rewrite in
  fst (Circuit.sweep out)
