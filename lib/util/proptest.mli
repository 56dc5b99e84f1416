(** Zero-dependency QuickCheck-style property testing.

    A property is checked against [count] generated cases; every case
    draws from its own {!Rng.split} stream of a single seed, so a run is
    reproducible from [(seed, count)] alone and a reported failure can be
    replayed exactly (set [PROPTEST_SEED], or pass [~seed]). On failure
    the harness shrinks the counterexample with a bounded greedy descent:
    at each step the first shrink candidate that still fails becomes the
    new counterexample, until no candidate fails or the step bound is
    hit. Shrinking is pure (no fresh randomness), so the minimal
    counterexample is reproducible too.

    The harness deliberately mirrors the toolkit's determinism contract:
    generators are functions of an explicit {!Rng.t}, never of ambient
    state, which is what lets the differential suites assert bit-identity
    across domain counts. *)

(** A generator with an optional shrinker and printer. *)
type 'a arb = {
  gen : Rng.t -> 'a;
  shrink : 'a -> 'a Seq.t;  (** smaller candidates first; may be empty *)
  show : 'a -> string;
}

(** Build an arbitrary; [shrink] defaults to no candidates, [show] to a
    placeholder. *)
val make : ?shrink:('a -> 'a Seq.t) -> ?show:('a -> string) -> (Rng.t -> 'a) -> 'a arb

(** Uniform in [lo, hi] (inclusive); shrinks toward [lo].
    @raise Invalid_argument when [lo > hi]. *)
val int_range : int -> int -> int arb

val bool_arb : bool arb

(** Always [v]; no shrinking. *)
val const : 'a -> 'a arb

(** Uniform choice among a non-empty list; shrinks toward earlier
    elements. *)
val choose_from : ?show:('a -> string) -> 'a list -> 'a arb

(** Pairs/triples shrink componentwise (left component first). *)
val pair : 'a arb -> 'b arb -> ('a * 'b) arb

val triple : 'a arb -> 'b arb -> 'c arb -> ('a * 'b * 'c) arb

(** List whose length is uniform in [min_len, max_len]; shrinks by
    deleting chunks of halving length (down to single elements, at any
    position), then by shrinking elements. *)
val list_of : ?min_len:int -> max_len:int -> 'a arb -> 'a list arb

(** [map ?shrink_back f a] transforms generated values. Shrinking maps
    [a]'s candidates through [f] only when [shrink_back] recovers the
    pre-image ([None] disables shrinking through the map). *)
val map : ?shrink_back:('b -> 'a option) -> ?show:('b -> string) -> ('a -> 'b) -> 'a arb -> 'b arb

(** A failed property with its replay coordinates. *)
type failure = {
  prop_name : string;
  seed : int;
  case_index : int;  (** which generated case failed (0-based) *)
  shrink_steps : int;  (** greedy shrink steps actually taken *)
  original : string;  (** the case as generated *)
  minimal : string;  (** the case after shrinking *)
  error : string option;  (** exception text when the property raised *)
}

type outcome =
  | Passed of int  (** number of cases checked *)
  | Failed of failure

(** Replay-friendly one-line description of a failure, including the
    [PROPTEST_SEED] needed to reproduce it. *)
val describe_failure : failure -> string

(** [check ~name arb prop] runs [prop] on [count] (default 100) cases.
    [seed] defaults to [PROPTEST_SEED] when set to an integer, else
    [0xEDA]. [max_shrink_steps]
    (default 400) bounds the greedy descent. A property fails by
    returning [false] or raising. *)
val check :
  ?count:int ->
  ?seed:int ->
  ?max_shrink_steps:int ->
  name:string ->
  'a arb ->
  ('a -> bool) ->
  outcome

(** Like {!check} but raises [Failure] with {!describe_failure} text on a
    counterexample — the adapter test runners use. *)
val check_exn :
  ?count:int ->
  ?seed:int ->
  ?max_shrink_steps:int ->
  name:string ->
  'a arb ->
  ('a -> bool) ->
  unit
