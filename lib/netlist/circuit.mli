(** Gate-level netlist IR.

    Nodes live in a growable array; apart from DFF D-inputs, every fanin
    index refers to an earlier node, so node order is a valid topological
    order for the combinational portion and evaluation is a single pass.

    A circuit is built through the mutable interface ([create],
    [add_gate], [set_output], ...) and then treated as immutable by
    analyses. Net names are unique within a circuit. *)

type node = {
  kind : Gate.kind;
  mutable fanins : int array;
  name : string;
}

type t

(** Fresh empty circuit, with room for [capacity] nodes (default 64)
    before its node array and name table grow. *)
val create : ?capacity:int -> unit -> t

val node_count : t -> int

(** @raise Assert_failure on out-of-range ids. *)
val node : t -> int -> node

val kind : t -> int -> Gate.kind
val fanins : t -> int -> int array
val name : t -> int -> string

(** Low-level insertion with an explicit fanin array; an empty name
    generates a fresh one.
    @raise Invalid_argument on duplicate names, leaving the circuit
    unchanged (as do the other insertion functions). *)
val add_node_raw : t -> Gate.kind -> int array -> string -> int

val add_input : ?name:string -> t -> int
val add_const : ?name:string -> t -> bool -> int

(** [add_gate c kind fanins] appends a combinational cell.
    @raise Assert_failure if a fanin does not precede the new node. *)
val add_gate : ?name:string -> t -> Gate.kind -> int list -> int

(** Declare a DFF; the D input may be re-wired later via {!connect_dff}
    (the only sanctioned forward reference, for feedback loops). *)
val add_dff : ?name:string -> t -> d:int -> int

val connect_dff : t -> int -> d:int -> unit

(** Register a primary output under [name]; outputs are ordered by
    declaration. Registering a name twice keeps both entries (lint
    reports the duplicate). *)
val set_output : t -> string -> int -> unit

(** Inputs, outputs and DFFs in declaration order, each a fresh copy. *)
val inputs : t -> int array
val outputs : t -> (string * int) array
val output_ids : t -> int array
val dffs : t -> int array

(** Counts, in constant time. *)
val num_inputs : t -> int
val num_outputs : t -> int
val num_dffs : t -> int

(** The [k]-th input, output and DFF id in declaration order, in
    constant time and without a copy: per-pattern loops use these
    rather than {!inputs}, {!output_ids} and {!dffs}.
    @raise Assert_failure unless [0 <= k < ] the matching count. *)
val input_id : t -> int -> int
val output_id : t -> int -> int
val dff_id : t -> int -> int
val find_by_name : t -> string -> int option

(** Declaration position of input [id]: its index in {!inputs} and in a
    simulation input vector. Logarithmic time, no allocation.
    @raise Invalid_argument naming the net when [id] is not an input. *)
val input_position : t -> int -> int

(** Declaration position of the output named [name]: its index in
    {!outputs} and in a simulation output vector (the first, if the name
    is declared twice). Linear time, no allocation.
    @raise Invalid_argument naming [name] when no output has it. *)
val output_position : t -> string -> int

(** {2 Region annotations}

    Named node groups ("this cone is a secret", "these nets are a masked
    gadget") consumed by security-aware synthesis passes. Membership is
    stored by {e net name}, so annotations survive the id renumbering a
    pass pipeline performs; names a pass drops or renames simply stop
    matching. [copy] and [sweep] preserve annotations; pass runners carry
    them across rebuilds with {!transfer_regions}. *)

(** Add nodes to [region] (created on first use); idempotent per net. *)
val annotate_region : t -> region:string -> int list -> unit

(** Region names, in declaration order. *)
val region_names : t -> string list

(** Currently-resolvable member ids of [region]; unknown regions are
    empty. *)
val region_members : t -> string -> int list

(** Membership as a node mask, for per-node sweeps. *)
val region_mask : t -> string -> bool array

(** Carry [from]'s annotations over to a rebuilt [t] (additive; existing
    regions win). *)
val transfer_regions : from:t -> t -> unit

(** Binary-tree reduction of [ids] with 2-input cells of [kind]. *)
val reduce : t -> Gate.kind -> int list -> int

(** Left-to-right chain reduction; preserves the exact association order —
    the property masked logic depends on (see the Fig. 2 experiment). *)
val reduce_chain : t -> Gate.kind -> int list -> int

(** {2 Resolved topology} *)

(** Kinds, fanins and a fanout CSR in flat arrays, for the engines that
    walk fanouts. [kinds.(i)] and [fanin.(i)] are {!kind} and {!fanins}
    of node [i]. The consumers of net [v] are [fanout.(k)] for
    [fanout_start.(v) <= k < fanout_start.(v + 1)]: descending consumer
    id, one entry per fanin slot that reads [v], DFF consumers included.
    A snapshot, built per call and never cached; do not mutate it. *)
type view = {
  kinds : Gate.kind array;
  fanin : int array array;
  fanout_start : int array;
  fanout : int array;
}

val view : t -> view

type stats = {
  gates : int;
  area : float;
  inputs : int;
  outputs : int;
  flip_flops : int;
  by_kind : (string * int) list;
}

val stats : t -> stats

(** Deep copy, for transforms that modify in place. *)
val copy : t -> t

(** Per-node liveness: reachable backwards from outputs, DFFs or inputs. *)
val live_set : t -> bool array

(** [nm] when the circuit does not define that name yet, else [""],
    which makes the insertion functions generate a fresh name. *)
val free_name : t -> string -> string

(** [rebuild ~into src f] is the one node-by-node circuit rebuild. It
    visits [src] in id order and stores [f copy map i] as node [i]'s new
    id in [map], the old-to-new map it returns; -1 drops the node. [f]
    may add any nodes to [into]; [copy i] adds node [i]'s plain copy
    (same kind, fanins through [map], [src]'s name unless [into] already
    defines it, then a fresh one) and returns its id. After the loop,
    the D-input of every DFF that [copy] made is connected through
    [map], whatever id [f] returned for that DFF. Outputs and region
    annotations are left to the caller. *)
val rebuild : into:t -> t -> ((int -> int) -> int array -> int -> int) -> int array

(** Rebuild keeping only live nodes; returns the new circuit and the
    old-to-new id map (dead nodes map to -1). *)
val sweep : t -> t * int array

(** Instantiate combinational [sub] inside [into], binding [sub]'s inputs
    to the given [into] nodes in declaration order; returns the [into] ids
    of [sub]'s outputs. [sub] net names are prefixed to avoid collisions. *)
val inline : into:t -> sub:t -> prefix:string -> int array -> int array

(** Structural sanity: every combinational fanin precedes its consumer and
    every referenced id is in range. *)
val well_formed : t -> bool
