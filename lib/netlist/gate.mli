(** Gate-level cell vocabulary and per-kind physical characteristics.

    [Mux] fanins are ordered: select, the data input chosen when select is
    0, then the one chosen when select is 1. [Dff] holds sequential state;
    its single D-input fanin is the only edge allowed to point forward in
    node order. *)

type kind =
  | Input
  | Const of bool
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor
  | Mux
  | Dff

(** Number of fanins the kind requires. *)
val arity : kind -> int

(** Canonical cell name, e.g. ["NAND"]; inverse of {!of_name}. *)
val name : kind -> string

(** Parse a cell name (case-insensitive).
    @raise Invalid_argument on unknown names. *)
val of_name : string -> kind

(** Combinational evaluation given fanin values.
    @raise Invalid_argument on stateful kinds or arity mismatch. *)
val eval : kind -> bool array -> bool

(** Bit-parallel evaluation over packed 63-slot words, reading operands
    directly out of [values] via the node's fanin-index array: on every
    lane, [eval_word_indexed k fanins values] equals
    [eval k (Array.map (fun f -> values.(f)) fanins)] on that lane's
    bits, and nothing is allocated. Fanin arity is trusted (validated at
    circuit construction).
    @raise Invalid_argument on stateful kinds. *)
val eval_word_indexed : kind -> int array -> int array -> int

(** Unit-area cost (NAND2-equivalent flavour) of the cell. *)
val area : kind -> float

(** Nominal propagation delay in picoseconds. *)
val delay : kind -> float

(** Relative switching energy per output toggle. *)
val switch_energy : kind -> float

(** True for every kind evaluated combinationally (including constants). *)
val is_combinational : kind -> bool
