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

(** A batch collect. Pair [i] of a campaign (one fixed then one random
    trace, as the TVLA procedure prescribes) draws only from stream [i]
    of [Eda_util.Rng.split rng traces_per_class], and the pairs are
    collected in batches of at most 32 consecutive pairs: [batch streams]
    receives the batch's streams in pair order and returns its fixed
    traces and its random traces, each array in stream order.

    Draw-order contract: a batch collect draws from each stream exactly
    what the per-trace collect of the same campaign would, in the same
    order — per stream the fixed trace's draws, then the random trace's;
    within a trace its input vector, then its noise. Streams are
    independent, so a batch may interleave its streams however it likes
    (and evaluate all its traces at once, e.g. one trace per lane of
    {!Power.Model.hamming_weight_sampler}) and still return the traces
    the per-trace collect would. *)
type batch = Eda_util.Rng.t array -> float array array * float array array

(** The trivial lift of a per-trace collect [collect stream cls] (one
    trace of class [cls], drawing only from [stream]): per stream, the
    fixed trace then the random trace. The batch holds every trace it
    collects until the pair loop reads them, so [collect] must return a
    fresh array per call. *)
val per_trace : (Eda_util.Rng.t -> [ `Fixed | `Random ] -> float array) -> batch

(** Seeded, batchable fixed-vs-random campaign. Traces accumulate into
    per-sample streaming moments, one accumulator per batch, merged in
    batch order, so the result (every t value, not just the verdict) is
    bit-identical with no pool and with a pool of any domain count, and
    memory stays O(samples + one batch of traces).
    @raise Invalid_argument on a non-positive trace count, a batch that
    does not return one trace per stream and class, empty traces, or
    traces of unequal length (within or across classes). *)
val campaign_batched :
  ?pool:Eda_util.Pool.t ->
  Eda_util.Rng.t ->
  traces_per_class:int ->
  batch:batch ->
  result

(** {!campaign_batched} on [per_trace collect], with no pool.
    @raise Invalid_argument as {!campaign_batched}. *)
val campaign_seeded :
  Eda_util.Rng.t ->
  traces_per_class:int ->
  collect:(Eda_util.Rng.t -> [ `Fixed | `Random ] -> float array) ->
  result

(** The same campaign assessed at (first, second) order from one
    accumulator. Second order centres each trace on the pooled
    per-sample mean and squares it before the t-test, exposing leakage
    in the variance — the assessment that breaks 2-share masking. The
    first-order result equals {!campaign_batched}'s.
    @raise Invalid_argument as {!campaign_batched}. *)
val campaign_orders :
  Eda_util.Rng.t ->
  traces_per_class:int ->
  batch:batch ->
  result * result
