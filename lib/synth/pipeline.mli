(** Synthesis recipes as data, and the runner that executes them.

    A {!t} is a tree of steps referring to registered {!Pass}es by name.
    The runner threads budget/protect through the tree, meters each
    pass (span [synth.pass.<name>], signed gate-delta counters
    [synth.gates_removed] / [synth.gates_added]), charges one budget step
    per executed pass and stops early — returning the last completed
    circuit — when the budget runs out. *)

type step =
  | Run of { pass : string; params : (string * string) list }
      (** one registered pass; [params] override recipe-level params *)
  | Fixed_point of { max_rounds : int; body : step list }
      (** iterate [body] while it strictly shrinks the gate count, at
          most [max_rounds] times; the last result is returned even when
          it grew *)
  | Protect of { prefixes : string list; body : step list }
      (** run [body] with the fence extended to net names starting with
          any of [prefixes] (OR-ed with the caller's fence) *)
  | If_param of { param : string; default : bool; body : step list }
      (** run [body] when the boolean runner param says so *)

type t = { name : string; doc : string; steps : step list }

(** Step shorthand for a plain pass. *)
val pass : ?params:(string * string) list -> string -> step

val make : name:string -> doc:string -> step list -> t

(** {2 Recipe registry}

    [optimize] and [optimize_secure] register at link time;
    [secure_synthesis] lives in [lib/sidechannel] (it needs the TVLA
    engine) and registers via [Sidechannel.Secure_synth.register ()]. *)

(** @raise Invalid_argument on duplicate names. *)
val register : t -> unit

val find : string -> t option

(** @raise Invalid_argument on unknown names, listing what is known. *)
val get : string -> t

val names : unit -> string list
val all : unit -> t list

(** Pass names a recipe mentions, in first-use order. *)
val passes_used : t -> string list

(** Net-name prefixes of masked-gadget internals ([mg_]) —
    the standard fence used by security-aware recipes. *)
val gadget_prefixes : string list

(** {2 Execution} *)

(** [run ?budget ?protect ?params ?observe t c] executes the recipe.
    [observe] sees every intermediate circuit with a global 1-based
    sequence number — the hook behind [--print-ir-after].
    @raise Pass.Check_failed when a pass invariant fails.
    @raise Invalid_argument on unregistered pass names or bad params. *)
val run :
  ?budget:Eda_util.Budget.t ->
  ?protect:(string -> bool) ->
  ?params:(string * string) list ->
  ?observe:(seq:int -> pass:string -> Netlist.Circuit.t -> unit) ->
  t ->
  Netlist.Circuit.t ->
  Netlist.Circuit.t

(** {!run} by registry name, under a [synth.recipe.<name>] span. *)
val run_recipe :
  ?budget:Eda_util.Budget.t ->
  ?protect:(string -> bool) ->
  ?params:(string * string) list ->
  ?observe:(seq:int -> pass:string -> Netlist.Circuit.t -> unit) ->
  string ->
  Netlist.Circuit.t ->
  Netlist.Circuit.t
