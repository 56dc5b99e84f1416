(* A test-local circuit generator that draws every combinational cell
   kind: both constants, Buf, Not, the six two-input gates and Mux.
   [Netlist.Generators.random_dag] draws none of Mux, Buf or Const, so a
   kernel with, say, the Mux data operands swapped passes every check
   built on it; its other callers keep their pinned circuits, so this
   generator lives beside the tests instead.

   Operands are drawn with replacement and biased toward recent nets, so
   a gate may read one net twice and a Mux may read one net as select
   and data; every tenth gate does so on purpose. [dffs] adds that many
   DFFs right after the inputs, read like any net, whose D inputs are
   wired to random nets once the gates exist. Outputs are the last net
   and then random nets of any kind. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng

let kinds =
  [| Gate.Const false; Gate.Const true; Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or;
     Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Mux |]

(** [circuit ~seed ~inputs ~gates ~outputs ()]: [gates] cells, each kind
    of {!kinds} at least once when [gates >= Array.length kinds]. *)
let circuit ?(dffs = 0) ~seed ~inputs ~gates ~outputs () =
  assert (inputs > 0);
  let rng = Rng.create seed in
  let c = Circuit.create () in
  for i = 0 to inputs - 1 do
    ignore (Circuit.add_input ~name:(Printf.sprintf "pi%d" i) c)
  done;
  let qs = Array.init dffs (fun k -> Circuit.add_dff ~name:(Printf.sprintf "q%d" k) c ~d:0) in
  let order =
    Array.init gates (fun g ->
        if g < Array.length kinds then kinds.(g) else kinds.(Rng.int rng (Array.length kinds)))
  in
  Rng.shuffle rng order;
  Array.iteri
    (fun g kind ->
      let n = Circuit.node_count c in
      let pick () =
        if Rng.float rng < 0.7 then n - 1 - Rng.int rng (min n 12) else Rng.int rng n
      in
      let fanins = List.init (Gate.arity kind) (fun _ -> pick ()) in
      let fanins =
        match fanins with
        | a :: _ :: rest when g mod 10 = 9 -> a :: a :: rest
        | l -> l
      in
      ignore (Circuit.add_gate ~name:(Printf.sprintf "g%d" g) c kind fanins))
    order;
  let n = Circuit.node_count c in
  Array.iter (fun q -> Circuit.connect_dff c q ~d:(Rng.int rng n)) qs;
  for k = 0 to outputs - 1 do
    Circuit.set_output c (Printf.sprintf "po%d" k) (if k = 0 then n - 1 else Rng.int rng n)
  done;
  c
