(** ISW private circuits (Ishai–Sahai–Wagner masking) — the scheme of the
    paper's motivational example. Secrets are split into XOR shares; AND
    gates consume fresh randomness and accumulate partial products in a
    fixed, security-critical order. Every net the transform creates is
    named with the ["isw_"] prefix, which doubles as the order barrier for
    security-aware synthesis. *)

type masked = {
  circuit : Netlist.Circuit.t;
  shares : int;
  input_shares : (string * int array) list;
      (** original input name -> its share input ids *)
  random_inputs : int array;  (** mask-randomness inputs, declaration order *)
  output_shares : (string * string array) list;
      (** original output name -> its share output names *)
}

(** Prefix of every transform-created net ("isw_"). *)
val prefix : string

(** The order-barrier predicate for the [optimize_secure] recipe. *)
val protected_name : string -> bool

(** Mask a combinational circuit with [shares] XOR shares (default 3,
    i.e. second-order ISW). Cells outside the AND/XOR/NOT basis are
    rewritten first. *)
val transform : ?shares:int -> Netlist.Circuit.t -> masked

(** Re-attach a masked descriptor to a synthesized version of its circuit:
    ids change across passes, input names do not.
    @raise Invalid_argument if synthesis dropped a share/random input. *)
val rebind : masked -> Netlist.Circuit.t -> masked

(** Split [value] into fresh random XOR shares. *)
val encode : Eda_util.Rng.t -> shares:int -> bool -> bool array

(** XOR-recombine shares. *)
val decode : bool array -> bool

(** Full input vector for the masked circuit from original input [values]
    (shares and mask randomness drawn fresh from [rng]). *)
val input_vector : Eda_util.Rng.t -> masked -> values:(string * bool) list -> bool array

(** Evaluate on original inputs with fresh masking; outputs are decoded
    from their shares. *)
val eval :
  Eda_util.Rng.t -> masked -> values:(string * bool) list -> (string * bool) list
