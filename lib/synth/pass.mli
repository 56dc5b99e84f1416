(** First-class synthesis passes and the global registry.

    Every transform in [lib/synth] is addressable as a named {!t}; recipes
    ({!Pipeline}) refer to passes by name, so new schemes plug in by
    registering a pass rather than editing a flow. The contract for a
    registered pass (see DESIGN.md §10):

    - {b purity}: the transform returns a fresh circuit and never mutates
      its input;
    - {b lint-preservation}: a lint-clean input maps to a lint-clean
      output (the optional [check] enforces this, or a stronger
      invariant);
    - {b protect fence}: nodes whose {e net name} satisfies
      [ctx.protect] are copied verbatim — never merged, simplified,
      re-associated or re-expressed;
    - {b regions}: the runner carries {!Netlist.Circuit} region
      annotations across the rebuild; passes need not handle them. *)

(** Execution context threaded through a recipe. *)
type ctx = {
  protect : string -> bool;  (** net-name fence: [true] = hands off *)
  params : (string * string) list;  (** per-pass string options *)
}

(** No protection, no parameters. *)
val default_ctx : ctx

val param : ctx -> string -> string option

(** @raise Invalid_argument when present but not an integer. *)
val param_int : ctx -> string -> default:int -> int

(** Accepts true/false, 1/0, yes/no.
    @raise Invalid_argument otherwise. *)
val param_bool : ctx -> string -> default:bool -> bool

type t = {
  name : string;
  doc : string;  (** one line, shown by [synth --list-recipes] *)
  transform : ctx -> Netlist.Circuit.t -> Netlist.Circuit.t;
  check : (ctx -> Netlist.Circuit.t -> (unit, string) result) option;
      (** post-transform invariant; failures raise {!Check_failed} *)
}

exception Check_failed of { pass : string; msg : string }

val make :
  name:string ->
  doc:string ->
  ?check:(ctx -> Netlist.Circuit.t -> (unit, string) result) ->
  (ctx -> Netlist.Circuit.t -> Netlist.Circuit.t) ->
  t

(** A pass that ignores its context. *)
val simple : name:string -> doc:string -> (Netlist.Circuit.t -> Netlist.Circuit.t) -> t

(** {2 Registry}

    Builtin passes ([constant_propagation], [strash], [xor_reassoc],
    [techmap], [to_and_xor_not], [sweep]) register at link time;
    [mask_insertion] too (see {!Masking}). Cross-library passes (e.g. the
    TVLA check in [lib/sidechannel]) export an explicit [register ()]
    entry point instead. *)

(** @raise Invalid_argument on duplicate names. *)
val register : t -> unit

val find : string -> t option

(** @raise Invalid_argument on unknown names, listing what is known. *)
val get : string -> t

(** Registered pass names, sorted. *)
val names : unit -> string list

val all : unit -> t list

(** {2 Execution} *)

(** [run ctx p c]: transform, invariant check, region carry-over. No
    telemetry or budget accounting — that is the {!Pipeline} runner's job.
    @raise Check_failed when the pass invariant fails. *)
val run : ctx -> t -> Netlist.Circuit.t -> Netlist.Circuit.t

(** One-shot by name: run one registered pass outside a recipe. *)
val apply :
  ?params:(string * string) list ->
  ?protect:(string -> bool) ->
  string ->
  Netlist.Circuit.t ->
  Netlist.Circuit.t
