(** Scan-chain insertion and the secure-scan countermeasure. In test mode
    ([scan_en] high) the flip-flops form a shift register, fully
    controllable through [scan_in] and observable through [scan_out] — the
    security problem of [39]. [Secure] scrambles the shift path with a
    fused per-cell key: authorized testers descramble in software,
    attackers read garbage. *)

type protection = Plain | Secure of bool array  (** per-cell scramble key *)

type scanned = {
  circuit : Netlist.Circuit.t;
  protection : protection;
  num_cells : int;
  scan_en_pos : int;
  scan_in_pos : int;
  data_positions : int array;  (** input positions of the original inputs *)
  scan_out_index : int;  (** index into the output vector *)
}

(** Stitch all DFFs into one chain. @raise Assert_failure on circuits
    without flip-flops, or when a [Secure] key length mismatches. *)
val insert : ?protection:protection -> Netlist.Circuit.t -> scanned

(** One functional (capture) cycle; returns the next register state. *)
val capture : scanned -> state:bool array -> data:bool array -> bool array

(** Shift once per element of [bits]; returns (observed scan_out stream,
    final state). *)
val shift : scanned -> state:bool array -> bits:bool list -> bool list * bool array

(** Unload the register state through the scan port, in cell order. For
    [Secure] chains this is the scrambled stream. *)
val unload : scanned -> state:bool array -> bool array * bool array

(** Authorized-tester descrambling of an unloaded stream. *)
val descramble : scanned -> bool array -> bool array
