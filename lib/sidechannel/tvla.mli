(** Test vector leakage assessment (TVLA [16]): the fixed-vs-random
    Welch t-test on power traces, at first and second statistical order,
    from one streaming-moments engine. *)

(** The conventional |t| pass/fail line (4.5). *)
val threshold : float

type result = {
  t_per_sample : float array;
  max_abs_t : float;
  leaky_samples : int list;  (** sample indices with |t| > threshold *)
  traces_per_class : int;
}

(** True when any sample crosses the threshold. *)
val leaks : result -> bool

(** Seeded, batchable fixed-vs-random campaign. [collect stream cls]
    must produce one trace for class [`Fixed] or [`Random], drawing
    randomness only from [stream]; pair [i] (fixed then random, as the
    TVLA procedure prescribes) uses stream [i] of
    [Eda_util.Rng.split rng traces_per_class]. Traces accumulate into
    per-sample streaming moments in fixed-size batches merged in index
    order, so the result (every t value, not just the verdict) is
    bit-identical with no pool and with a pool of any domain count, and
    memory stays O(samples).
    @raise Invalid_argument on a non-positive trace count, empty traces,
    or traces of unequal length (within or across classes). *)
val campaign_seeded :
  ?pool:Eda_util.Pool.t ->
  Eda_util.Rng.t ->
  traces_per_class:int ->
  collect:(Eda_util.Rng.t -> [ `Fixed | `Random ] -> float array) ->
  result

(** The same campaign assessed at (first, second) order from one
    accumulator. Second order centres each trace on the pooled
    per-sample mean and squares it before the t-test, exposing leakage
    in the variance — the assessment that breaks 2-share masking. The
    first-order result equals {!campaign_seeded}'s.
    @raise Invalid_argument as {!campaign_seeded}. *)
val campaign_orders :
  Eda_util.Rng.t ->
  traces_per_class:int ->
  collect:(Eda_util.Rng.t -> [ `Fixed | `Random ] -> float array) ->
  result * result
