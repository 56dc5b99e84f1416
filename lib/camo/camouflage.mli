(** IC camouflaging [23]: selected cells replaced by look-alike primitives
    (NAND / NOR / XNOR) whose layout does not reveal the function.
    De-camouflaging reduces to the SAT attack on locking. *)

(** The ambiguous cell's candidate functions, in configuration order. *)
val candidates : Netlist.Gate.kind array

type camouflaged = {
  circuit : Netlist.Circuit.t;  (** the fab view (true functions) *)
  ambiguous : (int * int) list;  (** node id, index into [candidates] *)
}

(** Camouflage up to [cells] randomly selected NAND/NOR/XNOR gates. *)
val apply : Eda_util.Rng.t -> cells:int -> Netlist.Circuit.t -> camouflaged

(** The attacker's imaging result as a locked circuit: 2 key bits select
    each ambiguous cell's function. *)
val to_locked : camouflaged -> Locking.Lock.locked

(** Area factor when every ambiguous cell must budget for its largest
    candidate (the constrained-synthesis cost). *)
val area_overhead : camouflaged -> float

(** Oracle-guided de-camouflaging; (DIPs used, functions recovered).
    @raise Invalid_argument on a sequential circuit, as {!Locking.Sat_attack.run}. *)
val decamouflage : ?max_iterations:int -> camouflaged -> int * bool
