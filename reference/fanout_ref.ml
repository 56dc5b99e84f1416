(** The consumer lists {!Netlist.Circuit.view}'s fanout CSR replaced,
    kept as its differential oracle and as the topology the other
    oracles walk, so none of them reads the view it checks. *)

module Circuit = Netlist.Circuit

(** Per node, the nodes that read it: descending consumer id, one entry
    per fanin slot, DFF consumers included. *)
let consumers c =
  let out = Array.make (Circuit.node_count c) [] in
  for i = 0 to Circuit.node_count c - 1 do
    Array.iter (fun f -> out.(f) <- i :: out.(f)) (Circuit.fanins c i)
  done;
  out
