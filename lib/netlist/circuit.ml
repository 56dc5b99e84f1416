(** Gate-level netlist IR.

    Nodes live in a growable array; apart from DFF D-inputs, every fanin
    index refers to an earlier node, so node order is a valid topological
    order for the combinational portion and evaluation is a single pass.

    A circuit is built through the mutable interface ([create], [add_gate],
    [set_output], ...) and then treated as immutable by analyses. *)

type node = {
  kind : Gate.kind;
  mutable fanins : int array;
  name : string;
}

type t = {
  mutable nodes : node array;
  mutable n : int;  (* live prefix of [nodes] *)
  (* Input ids in declaration order — ascending, since ids are handed
     out in insertion order; live prefix [ni]. *)
  mutable inputs : int array;
  mutable ni : int;
  (* Outputs and DFF ids in declaration order; live prefixes [no], [nd]. *)
  mutable outputs : (string * int) array;
  mutable no : int;
  mutable dffs : int array;
  mutable nd : int;
  by_name : (string, int) Hashtbl.t;
  (* Region annotations: region name -> member *net names*, declaration
     order. Membership is by name, not id, so annotations survive the id
     renumbering every synthesis pass performs; names that no longer
     resolve are dropped at query time, not eagerly. *)
  mutable regions : (string * string list) list;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  { nodes = Array.make capacity { kind = Gate.Input; fanins = [||]; name = "" };
    n = 0;
    inputs = [||];
    ni = 0;
    outputs = [||];
    no = 0;
    dffs = [||];
    nd = 0;
    by_name = Hashtbl.create capacity;
    regions = [] }

let node_count c = c.n

let node c i =
  assert (i >= 0 && i < c.n);
  c.nodes.(i)

let kind c i = (node c i).kind
let fanins c i = (node c i).fanins
let name c i = (node c i).name

(* [arr] with room for one more than its live prefix [len]. *)
let room arr len ~fill =
  if len < Array.length arr then arr
  else begin
    let bigger = Array.make (max 8 (2 * len)) fill in
    Array.blit arr 0 bigger 0 len;
    bigger
  end

let grow c =
  if c.n = Array.length c.nodes then begin
    let bigger = Array.make (2 * Array.length c.nodes) c.nodes.(0) in
    Array.blit c.nodes 0 bigger 0 c.n;
    c.nodes <- bigger
  end

let fresh_name c prefix =
  let rec find k =
    let candidate = Printf.sprintf "%s%d" prefix k in
    if Hashtbl.mem c.by_name candidate then find (k + 1) else candidate
  in
  find c.n

(* Core insertion; checks fanin validity for combinational cells. A
   duplicate name is refused before anything changes, so the circuit is
   left as it was. The name is hashed twice: for that check and for the
   [add] (which, unlike [replace], does not search the bucket again). *)
let add_node c kind fanins name =
  assert (Array.length fanins = Gate.arity kind);
  if Gate.is_combinational kind then
    Array.iter (fun f -> assert (f >= 0 && f < c.n)) fanins;
  let name = if name = "" then fresh_name c "n" else name in
  if Hashtbl.mem c.by_name name then
    invalid_arg (Printf.sprintf "Circuit: duplicate net name %s" name);
  grow c;
  let id = c.n in
  c.nodes.(id) <- { kind; fanins; name };
  c.n <- c.n + 1;
  Hashtbl.add c.by_name name id;
  (match kind with
   | Gate.Input ->
     c.inputs <- room c.inputs c.ni ~fill:0;
     c.inputs.(c.ni) <- id;
     c.ni <- c.ni + 1
   | Gate.Dff ->
     c.dffs <- room c.dffs c.nd ~fill:0;
     c.dffs.(c.nd) <- id;
     c.nd <- c.nd + 1
   | Gate.Const _ | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or
   | Gate.Nor | Gate.Xor | Gate.Xnor | Gate.Mux -> ());
  id

(** Low-level insertion with an explicit fanin array; used by synthesis
    passes that rebuild circuits node by node. An empty name generates a
    fresh one. *)
let add_node_raw c kind fanins name = add_node c kind fanins name

let add_input ?(name = "") c = add_node c Gate.Input [||] name

let add_const ?(name = "") c b = add_node c (Gate.Const b) [||] name

let add_gate ?(name = "") c kind fanins = add_node c kind (Array.of_list fanins) name

(** Declare a DFF whose D input may be wired later via [connect_dff]. *)
let add_dff ?(name = "") c ~d = add_node c Gate.Dff [| d |] name

(** Re-wire a DFF D-input after its driver exists (for feedback loops). *)
let connect_dff c dff ~d =
  assert (kind c dff = Gate.Dff);
  assert (d >= 0 && d < c.n);
  (node c dff).fanins <- [| d |]

let set_output c name id =
  assert (id >= 0 && id < c.n);
  c.outputs <- room c.outputs c.no ~fill:("", 0);
  c.outputs.(c.no) <- (name, id);
  c.no <- c.no + 1

let inputs c = Array.sub c.inputs 0 c.ni
let outputs c = Array.sub c.outputs 0 c.no
let output_ids c = Array.init c.no (fun k -> snd c.outputs.(k))
let dffs c = Array.sub c.dffs 0 c.nd

let num_inputs c = c.ni
let num_outputs c = c.no
let num_dffs c = c.nd

let input_id c k =
  assert (k >= 0 && k < c.ni);
  c.inputs.(k)

let output_id c k =
  assert (k >= 0 && k < c.no);
  snd c.outputs.(k)

let dff_id c k =
  assert (k >= 0 && k < c.nd);
  c.dffs.(k)

let find_by_name c net = Hashtbl.find_opt c.by_name net

(* Binary search of the ascending input ids. *)
let rec search_input ids id lo hi =
  if lo >= hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let v = ids.(mid) in
    if v = id then mid else if v < id then search_input ids id (mid + 1) hi
    else search_input ids id lo mid
  end

let input_position c id =
  let pos = search_input c.inputs id 0 c.ni in
  if pos < 0 then begin
    let net = if id >= 0 && id < c.n then name c id else Printf.sprintf "#%d" id in
    invalid_arg (Printf.sprintf "Circuit.input_position: %s is not an input" net)
  end;
  pos

let output_position c name =
  let rec find k =
    if k >= c.no then
      invalid_arg (Printf.sprintf "Circuit.output_position: %s is not an output" name)
    else if fst c.outputs.(k) = name then k
    else find (k + 1)
  in
  find 0

(* --- Region annotations ------------------------------------------------ *)

(** Add [ids] (resolved to their current net names) to [region], creating
    it on first use. Annotating the same net twice is idempotent. *)
let annotate_region c ~region ids =
  let names = List.map (fun id -> (node c id).name) ids in
  let rec upd = function
    | [] -> [ (region, names) ]
    | (r, ms) :: rest when r = region ->
      (r, ms @ List.filter (fun n -> not (List.mem n ms)) names) :: rest
    | entry :: rest -> entry :: upd rest
  in
  c.regions <- upd c.regions

(** Region names, in declaration order. *)
let region_names c = List.map fst c.regions

(** Current member ids of [region]: member names that no longer resolve
    (dropped or renamed by a pass) are silently omitted; an unknown region
    is empty. *)
let region_members c region =
  match List.assoc_opt region c.regions with
  | None -> []
  | Some names -> List.filter_map (fun nm -> Hashtbl.find_opt c.by_name nm) names

(** Membership as a [node_count]-sized mask, for per-node sweeps. *)
let region_mask c region =
  let mask = Array.make (max 1 c.n) false in
  List.iter (fun id -> mask.(id) <- true) (region_members c region);
  mask

(** Carry [from]'s region annotations over to [c] (a rebuilt version of the
    same design). Additive: regions [c] already declares are kept as-is;
    member names that do not resolve in [c] simply stop matching. *)
let transfer_regions ~from c =
  List.iter
    (fun (r, ms) ->
      if not (List.mem_assoc r c.regions) then c.regions <- c.regions @ [ (r, ms) ])
    from.regions

(** Convenience binary-tree reduction, e.g. wide AND/XOR from 2-input cells. *)
let rec reduce c kind ids =
  match ids with
  | [] -> invalid_arg "Circuit.reduce: empty"
  | [ x ] -> x
  | _ :: _ :: _ ->
    let rec pair acc = function
      | [] -> List.rev acc
      | [ x ] -> List.rev (x :: acc)
      | a :: b :: rest -> pair (add_gate c kind [ a; b ] :: acc) rest
    in
    reduce c kind (pair [] ids)

(** Left-to-right chain reduction; preserves the exact association order,
    which matters for masked logic where evaluation order is the security
    property (see the Fig. 2 experiment). *)
let reduce_chain c kind ids =
  match ids with
  | [] -> invalid_arg "Circuit.reduce_chain: empty"
  | first :: rest ->
    List.fold_left (fun acc x -> add_gate c kind [ acc; x ]) first rest

(* --- Resolved topology --------------------------------------------------- *)

type view = {
  kinds : Gate.kind array;
  fanin : int array array;
  fanout_start : int array;
  fanout : int array;
}

let view c =
  let n = c.n in
  let kinds = Array.init n (kind c) and fanin = Array.init n (fanins c) in
  let fanout_start = Array.make (n + 1) 0 in
  Array.iter (Array.iter (fun v -> fanout_start.(v + 1) <- fanout_start.(v + 1) + 1)) fanin;
  for v = 0 to n - 1 do
    fanout_start.(v + 1) <- fanout_start.(v + 1) + fanout_start.(v)
  done;
  let fill = Array.sub fanout_start 0 n and fanout = Array.make fanout_start.(n) 0 in
  (* Visiting consumers from the last one down lists them in descending id. *)
  for i = n - 1 downto 0 do
    Array.iter
      (fun v ->
        fanout.(fill.(v)) <- i;
        fill.(v) <- fill.(v) + 1)
      fanin.(i)
  done;
  { kinds; fanin; fanout_start; fanout }

(** Structural statistics used for PPA reporting. *)
type stats = {
  gates : int;  (* combinational cells, excluding constants *)
  area : float;
  inputs : int;
  outputs : int;
  flip_flops : int;
  by_kind : (string * int) list;
}

let stats c =
  let gates = ref 0 and area = ref 0.0 in
  let kinds = Hashtbl.create 16 in
  for i = 0 to c.n - 1 do
    let k = kind c i in
    area := !area +. Gate.area k;
    (match k with
     | Gate.Buf | Gate.Not | Gate.And | Gate.Nand | Gate.Or | Gate.Nor
     | Gate.Xor | Gate.Xnor | Gate.Mux -> incr gates
     | Gate.Input | Gate.Const _ | Gate.Dff -> ());
    let key = Gate.name k in
    Hashtbl.replace kinds key (1 + Option.value ~default:0 (Hashtbl.find_opt kinds key))
  done;
  { gates = !gates;
    area = !area;
    inputs = num_inputs c;
    outputs = num_outputs c;
    flip_flops = num_dffs c;
    by_kind = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []) }

(** Deep copy, for transforms that modify in place. *)
let copy c =
  { nodes = Array.map (fun nd -> { nd with fanins = Array.copy nd.fanins }) (Array.sub c.nodes 0 (max 1 c.n));
    n = c.n;
    inputs = inputs c;
    ni = c.ni;
    outputs = outputs c;
    no = c.no;
    dffs = dffs c;
    nd = c.nd;
    by_name = Hashtbl.copy c.by_name;
    regions = c.regions }

(** Nodes reachable backwards from the outputs (and DFF D-inputs); the live
    cone. Dead nodes are synthesis garbage. *)
let live_set c =
  let live = Array.make c.n false in
  let rec visit i =
    if not live.(i) then begin
      live.(i) <- true;
      Array.iter visit (fanins c i)
    end
  in
  Array.iter (fun (_, o) -> visit o) (outputs c);
  Array.iter visit (dffs c);
  (* Primary inputs are part of the interface and always survive. *)
  Array.iter visit (inputs c);
  live

(** [nm] when [c] does not define it yet, else [""], which makes the
    insertion functions generate a fresh name. *)
let free_name c nm = if Hashtbl.mem c.by_name nm then "" else nm

(** Rebuild [src] into [into] node by node; see the .mli. *)
let rebuild ~into src f =
  let remap = Array.make src.n (-1) in
  let dffs = ref [] in
  let copy i =
    let nd = node src i in
    let name = free_name into nd.name in
    if nd.kind = Gate.Dff then begin
      (* The D-input may be a forward reference: wired after the loop. *)
      let id = add_node into Gate.Dff [| 0 |] name in
      dffs := (id, nd.fanins.(0)) :: !dffs;
      id
    end
    else add_node into nd.kind (Array.map (fun f -> remap.(f)) nd.fanins) name
  in
  for i = 0 to src.n - 1 do
    remap.(i) <- f copy remap i
  done;
  List.iter (fun (id, d) -> connect_dff into id ~d:remap.(d)) !dffs;
  remap

(** Rebuild the circuit keeping only live nodes; returns the new circuit and
    the old-to-new id mapping (dead nodes map to -1). *)
let sweep c =
  let live = live_set c in
  let out = create () in
  let remap = rebuild ~into:out c (fun copy _ i -> if live.(i) then copy i else -1) in
  Array.iter (fun (nm, o) -> set_output out nm remap.(o)) (outputs c);
  (* Region annotations are by name: dead members stop resolving. *)
  transfer_regions ~from:c out;
  out, remap

(** Instantiate combinational [sub] inside [into], binding [sub]'s primary
    inputs to the given [into] nodes (in declaration order). Returns the
    [into] ids of [sub]'s outputs. Net names of [sub] get [prefix]ed to
    avoid collisions. *)
let inline ~into ~sub ~prefix bindings =
  assert (num_dffs sub = 0);
  let sub_inputs = inputs sub in
  assert (Array.length bindings = Array.length sub_inputs);
  let remap = Array.make (node_count sub) (-1) in
  Array.iteri (fun k id -> remap.(id) <- bindings.(k)) sub_inputs;
  for i = 0 to node_count sub - 1 do
    let nd = node sub i in
    match nd.kind with
    | Gate.Input -> ()
    | Gate.Dff -> assert false
    | k ->
      let fanins = Array.map (fun f -> remap.(f)) nd.fanins in
      remap.(i) <- add_node into k fanins (free_name into (prefix ^ nd.name))
  done;
  Array.map (fun (_, o) -> remap.(o)) (outputs sub)

(** Structural check: every fanin of a combinational node precedes it. *)
let well_formed c =
  let ok = ref true in
  for i = 0 to c.n - 1 do
    let nd = node c i in
    if Gate.is_combinational nd.kind then
      Array.iter (fun f -> if f < 0 || f >= i then ok := false) nd.fanins
    else if nd.kind = Gate.Dff then
      Array.iter (fun f -> if f < 0 || f >= c.n then ok := false) nd.fanins
  done;
  for k = 0 to c.no - 1 do
    let o = snd c.outputs.(k) in
    if o < 0 || o >= c.n then ok := false
  done;
  !ok
