(** Gate-level cell vocabulary. [Mux] fanins are ordered select, then the
    data input chosen when select is 0, then the one chosen when select is 1.
    [Dff] holds sequential state; its single fanin (the D input) is the only
    edge allowed to point forward in node order, which is how combinational
    loops are excluded by construction. *)

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

let arity = function
  | Input -> 0
  | Const _ -> 0
  | Buf | Not | Dff -> 1
  | And | Nand | Or | Nor | Xor | Xnor -> 2
  | Mux -> 3

let name = function
  | Input -> "INPUT"
  | Const false -> "CONST0"
  | Const true -> "CONST1"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"
  | Mux -> "MUX"
  | Dff -> "DFF"

let of_name s =
  match String.uppercase_ascii s with
  | "INPUT" -> Input
  | "CONST0" -> Const false
  | "CONST1" -> Const true
  | "BUF" -> Buf
  | "NOT" -> Not
  | "AND" -> And
  | "NAND" -> Nand
  | "OR" -> Or
  | "NOR" -> Nor
  | "XOR" -> Xor
  | "XNOR" -> Xnor
  | "MUX" -> Mux
  | "DFF" -> Dff
  | other -> invalid_arg (Printf.sprintf "Gate.of_name: unknown cell %s" other)

(** Combinational evaluation given fanin values. [Input], [Dff] are handled
    by the simulator, never here. *)
let eval kind fanins =
  match kind, fanins with
  | Const b, [||] -> b
  | Buf, [| a |] -> a
  | Not, [| a |] -> not a
  | And, [| a; b |] -> a && b
  | Nand, [| a; b |] -> not (a && b)
  | Or, [| a; b |] -> a || b
  | Nor, [| a; b |] -> not (a || b)
  | Xor, [| a; b |] -> a <> b
  | Xnor, [| a; b |] -> a = b
  | Mux, [| s; a; b |] -> if s then b else a
  | (Input | Dff), _ -> invalid_arg "Gate.eval: stateful cell"
  | (Const _ | Buf | Not | And | Nand | Or | Nor | Xor | Xnor | Mux), _ ->
    invalid_arg (Printf.sprintf "Gate.eval: %s arity mismatch" (name kind))

(** Combinational evaluation over packed 63-slot words, reading the
    operand words straight out of [values] through the node's fanin-index
    array: the gate kernel of every simulation sweep and of the event
    engine (no per-gate operand array is built). Fanin arity is trusted; it is validated at
    circuit construction. *)
let eval_word_indexed kind (fanins : int array) (values : int array) =
  match kind with
  | Const false -> 0
  | Const true -> -1
  | Buf -> values.(fanins.(0))
  | Not -> Stdlib.lnot values.(fanins.(0))
  | And -> values.(fanins.(0)) land values.(fanins.(1))
  | Nand -> Stdlib.lnot (values.(fanins.(0)) land values.(fanins.(1)))
  | Or -> values.(fanins.(0)) lor values.(fanins.(1))
  | Nor -> Stdlib.lnot (values.(fanins.(0)) lor values.(fanins.(1)))
  | Xor -> values.(fanins.(0)) lxor values.(fanins.(1))
  | Xnor -> Stdlib.lnot (values.(fanins.(0)) lxor values.(fanins.(1)))
  | Mux ->
    let s = values.(fanins.(0)) in
    (Stdlib.lnot s land values.(fanins.(1))) lor (s land values.(fanins.(2)))
  | Input | Dff -> invalid_arg "Gate.eval_word_indexed: stateful cell"

(** Unit-area cost per cell; the area component of the PPA model. Loosely
    NAND2-equivalent counts of typical standard-cell libraries. *)
let area = function
  | Input | Const _ -> 0.0
  | Buf -> 0.7
  | Not -> 0.5
  | Nand | Nor -> 1.0
  | And | Or -> 1.3
  | Xor | Xnor -> 2.3
  | Mux -> 2.6
  | Dff -> 4.5

(** Nominal propagation delay in picoseconds; the timing component. *)
let delay = function
  | Input | Const _ -> 0.0
  | Buf -> 35.0
  | Not -> 20.0
  | Nand | Nor -> 30.0
  | And | Or -> 45.0
  | Xor | Xnor -> 60.0
  | Mux -> 65.0
  | Dff -> 80.0

(** Relative switching energy per output toggle; the power component. *)
let switch_energy = function
  | Input | Const _ -> 0.0
  | Buf -> 0.6
  | Not -> 0.4
  | Nand | Nor -> 1.0
  | And | Or -> 1.2
  | Xor | Xnor -> 1.9
  | Mux -> 2.1
  | Dff -> 3.0

let is_combinational = function
  | Buf | Not | And | Nand | Or | Nor | Xor | Xnor | Mux | Const _ -> true
  | Input | Dff -> false
