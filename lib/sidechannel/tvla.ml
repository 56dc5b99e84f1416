(** Test vector leakage assessment (TVLA, Goodwill et al. / [16]): the
    fixed-vs-random Welch t-test on power traces, the paper's reference
    technique for pre-silicon leakage evaluation (Table II, physical-
    synthesis and timing/power-verification rows).

    Two trace populations are collected — one with a *fixed* secret input,
    one with *random* secrets — under otherwise identical conditions. For
    each time sample, Welch's t statistic is computed; |t| above the
    conventional 4.5 threshold flags first-order leakage with high
    confidence.

    Every campaign runs on one streaming engine: a flat accumulator of
    per-sample central moments (M2..M4) per class, filled by one seeded
    pair loop. First- and second-order t statistics are both read off
    the same accumulator, so memory stays O(samples), not O(traces). *)

module T = Eda_util.Telemetry

let threshold = 4.5

type result = {
  t_per_sample : float array;
  max_abs_t : float;
  leaky_samples : int list;  (* sample indices with |t| > threshold *)
  traces_per_class : int;
}

let leaks result = result.max_abs_t > threshold

(* Streaming moments of both classes: [n] traces per class so far, and
   per sample the mean and the central sums M2, M3, M4 (sum of the 2nd,
   3rd, 4th powers of the deviations from the mean). Class [c] (0 fixed,
   1 random) of sample [k] lives at index [c * samples + k]. *)
type acc = {
  samples : int;
  mutable n : int;
  mean : float array;
  m2 : float array;
  m3 : float array;
  m4 : float array;
}

let create samples =
  if samples = 0 then invalid_arg "Tvla: traces must be non-empty";
  let z () = Array.make (2 * samples) 0.0 in
  { samples; n = 0; mean = z (); m2 = z (); m3 = z (); m4 = z () }

(* One fixed and one random trace. M2 keeps its Welford form
   [m2 += delta * (x - mean')], which is what first-order results have
   always been computed with; M3 and M4 follow Pébay's one-pass update
   and read M2/M3 before they move. *)
let add_pair acc fixed random =
  if Array.length fixed <> acc.samples || Array.length random <> acc.samples then
    invalid_arg "Tvla: traces must have equal length";
  acc.n <- acc.n + 1;
  let n = Float.of_int acc.n in
  let add j x =
    let delta = x -. acc.mean.(j) in
    let delta_n = delta /. n in
    let delta_n2 = delta_n *. delta_n in
    let term1 = delta *. delta_n *. (n -. 1.0) in
    let m2 = acc.m2.(j) and m3 = acc.m3.(j) in
    acc.mean.(j) <- acc.mean.(j) +. delta_n;
    acc.m4.(j) <-
      acc.m4.(j)
      +. (term1 *. delta_n2 *. ((n *. n) -. (3.0 *. n) +. 3.0))
      +. (6.0 *. delta_n2 *. m2)
      -. (4.0 *. delta_n *. m3);
    acc.m3.(j) <- m3 +. (term1 *. delta_n *. (n -. 2.0)) -. (3.0 *. delta_n *. m2);
    acc.m2.(j) <- m2 +. (delta *. (x -. acc.mean.(j)))
  in
  for k = 0 to acc.samples - 1 do
    add k fixed.(k);
    add (acc.samples + k) random.(k)
  done

(* Fold [b] into [a] (Chan's merge for mean and M2, Pébay's for M3/M4).
   Merging batches in a fixed order gives the same moments however the
   batches were scheduled. *)
let merge_into a b =
  if a.samples <> b.samples then invalid_arg "Tvla: traces must have equal length";
  let fa = Float.of_int a.n and fb = Float.of_int b.n in
  let n = a.n + b.n in
  let fn = Float.of_int n in
  for j = 0 to (2 * a.samples) - 1 do
    let delta = b.mean.(j) -. a.mean.(j) in
    let d2 = delta *. delta in
    let m2a = a.m2.(j) and m2b = b.m2.(j) and m3a = a.m3.(j) and m3b = b.m3.(j) in
    a.mean.(j) <- a.mean.(j) +. (delta *. fb /. fn);
    a.m2.(j) <- m2a +. m2b +. (d2 *. fa *. fb /. fn);
    a.m3.(j) <-
      m3a +. m3b
      +. (d2 *. delta *. fa *. fb *. (fa -. fb) /. (fn *. fn))
      +. (3.0 *. delta *. ((fa *. m2b) -. (fb *. m2a)) /. fn);
    a.m4.(j) <-
      a.m4.(j) +. b.m4.(j)
      +. (d2 *. d2 *. fa *. fb *. ((fa *. fa) -. (fa *. fb) +. (fb *. fb)) /. (fn *. fn *. fn))
      +. (6.0 *. d2 *. ((fa *. fa *. m2b) +. (fb *. fb *. m2a)) /. (fn *. fn))
      +. (4.0 *. delta *. ((fa *. m3b) -. (fb *. m3a)) /. fn)
  done;
  a.n <- n

(* Welch's t from two (mean, sum of squared deviations) summaries over
   [n] observations each; 0 when degenerate. *)
let welch_t n ~mean_f ~ss_f ~mean_r ~ss_r =
  if n < 2 then 0.0
  else begin
    let fn = Float.of_int n and fn1 = Float.of_int (n - 1) in
    let denom = sqrt ((ss_f /. fn1 /. fn) +. (ss_r /. fn1 /. fn)) in
    if denom <= 0.0 then 0.0 else (mean_f -. mean_r) /. denom
  end

let result_of acc t_per_sample =
  { t_per_sample;
    max_abs_t = Eda_util.Stats.max_abs t_per_sample;
    leaky_samples =
      List.filter
        (fun k -> Float.abs t_per_sample.(k) > threshold)
        (List.init acc.samples Fun.id);
    traces_per_class = acc.n }

let first_order acc =
  let s = acc.samples in
  result_of acc
    (Array.init s (fun k ->
         welch_t acc.n ~mean_f:acc.mean.(k) ~ss_f:acc.m2.(k) ~mean_r:acc.mean.(s + k)
           ~ss_r:acc.m2.(s + k)))

(* Second order: each trace centred on the pooled per-sample mean and
   squared, y = (x - mu_p)^2, then first-order Welch on y. With
   d = mu_c - mu_p the class moments of y follow from the accumulator:
   mean y = M2/n + d^2 and sum (y - mean y)^2 = M4 - M2^2/n + 4 d M3
   + 4 d^2 M2. The latter is sum y^2 - n (mean y)^2 with the n d^4 terms
   cancelled algebraically rather than in floating point, so a large
   class-mean offset costs no digits (and noiseless classes give 0). *)
let second_order acc =
  let s = acc.samples and fn = Float.of_int acc.n in
  let y_moments j mu_p =
    let d = acc.mean.(j) -. mu_p in
    let d2 = d *. d in
    let m2 = acc.m2.(j) in
    ( (m2 /. fn) +. d2,
      Float.max 0.0
        (acc.m4.(j) -. (m2 *. m2 /. fn) +. (4.0 *. d *. acc.m3.(j)) +. (4.0 *. d2 *. m2)) )
  in
  result_of acc
    (Array.init s (fun k ->
         (* equal class sizes: the pooled mean is the midpoint *)
         let mu_p = (acc.mean.(k) +. acc.mean.(s + k)) /. 2.0 in
         let mean_f, ss_f = y_moments k mu_p and mean_r, ss_r = y_moments (s + k) mu_p in
         welch_t acc.n ~mean_f ~ss_f ~mean_r ~ss_r))

(* Pairs per batch. Fixed (not derived from the pool size) so the batch
   boundaries — and with them the moment-merge order — are identical at
   any domain count. *)
let batch_pairs = 32

(* A batch collect: given the streams of a batch's pairs, the pairs'
   fixed traces and their random traces, each in stream order. *)
type batch = Eda_util.Rng.t array -> float array array * float array array

(* The trivial lift of a per-trace collect: per stream, its fixed trace
   then its random trace. *)
let per_trace collect streams =
  let n = Array.length streams in
  let fixed = Array.make n [||] and random = Array.make n [||] in
  Array.iteri
    (fun j stream ->
      fixed.(j) <- collect stream `Fixed;
      random.(j) <- collect stream `Random)
    streams;
  fixed, random

(* The one pair loop. Pair [i] (one fixed then one random trace,
   interleaved as TVLA prescribes) draws only from stream [i] of
   [Rng.split rng traces_per_class]; each batch of [batch_pairs] pairs
   is collected at once, fills its own accumulator, and batches merge in
   index order. Trace values and the floating-point reduction tree are
   both functions of [rng] alone, with or without a pool. *)
let run ?pool rng ~traces_per_class ~(batch : batch) =
  if traces_per_class <= 0 then invalid_arg "Tvla: traces_per_class must be positive";
  let module P = Eda_util.Pool in
  let streams = Eda_util.Rng.split rng traces_per_class in
  let nbatches = (traces_per_class + batch_pairs - 1) / batch_pairs in
  let run_batch b =
    let lo = b * batch_pairs in
    let n = min traces_per_class (lo + batch_pairs) - lo in
    let fixed, random = batch (Array.sub streams lo n) in
    if Array.length fixed <> n || Array.length random <> n then
      invalid_arg "Tvla: a batch collect must return one trace per stream and class";
    let acc = create (Array.length fixed.(0)) in
    for j = 0 to n - 1 do
      add_pair acc fixed.(j) random.(j)
    done;
    acc
  in
  let batches =
    match pool with
    | Some p ->
      (* scheduling grain only: batch boundaries (and so the merge
         order) stay fixed by [batch_pairs] at any domain count *)
      let chunk = max 1 (nbatches / (4 * P.size p)) in
      (* [None] is unreachable: no budget is handed to the pool *)
      Array.map Option.get
        (P.parallel_map ~label:"tvla" ~chunk p (Array.init nbatches Fun.id) ~f:(fun _ctx b ->
             run_batch b))
    | None -> Array.init nbatches run_batch
  in
  for b = 1 to nbatches - 1 do
    merge_into batches.(0) batches.(b)
  done;
  T.count "tvla.traces" (2 * traces_per_class);
  batches.(0)

(** Seeded, batchable fixed-vs-random campaign over a batch collect:
    [batch streams] produces the fixed and the random traces of the
    pairs whose streams are [streams]. The result (every t value, not
    just the verdict) is bit-identical with no pool and with a pool of
    any domain count.

    Telemetry: a [tvla.campaign] span (attrs [seeded], [domains])
    counting [tvla.traces] and gauging the final [tvla.max_abs_t];
    pooled runs (any size, including 1) nest a [pool.batch] span with
    one captured [pool.task] span per batch.
    @raise Invalid_argument on a non-positive trace count, empty traces,
    or traces of unequal length (within or across classes). *)
let campaign_batched ?pool rng ~traces_per_class ~batch =
  let domains = match pool with Some p -> Eda_util.Pool.size p | None -> 1 in
  T.with_span "tvla.campaign"
    ~attrs:
      [ ("traces_per_class", T.Int traces_per_class);
        ("seeded", T.Bool true);
        ("domains", T.Int domains) ]
  @@ fun () ->
  let result = first_order (run ?pool rng ~traces_per_class ~batch) in
  T.gauge "tvla.max_abs_t" result.max_abs_t;
  result

(** {!campaign_batched} over the {!per_trace} lift of a per-trace
    collect: [collect stream cls] produces one trace for class [cls],
    drawing randomness only from [stream]. *)
let campaign_seeded rng ~traces_per_class ~collect =
  campaign_batched rng ~traces_per_class ~batch:(per_trace collect)

(** Campaign assessed at first and second order from one accumulator.
    Its first-order result equals {!campaign_batched}'s on the same
    arguments.

    Telemetry: a [tvla.campaign_orders] span counting [tvla.traces]
    consumed, with [tvla.max_abs_t] / [tvla.max_abs_t_2nd] gauges for the
    two assessment orders. *)
let campaign_orders rng ~traces_per_class ~batch =
  T.with_span "tvla.campaign_orders"
    ~attrs:[ ("traces_per_class", T.Int traces_per_class) ]
  @@ fun () ->
  let acc = run rng ~traces_per_class ~batch in
  let first = first_order acc and second = second_order acc in
  T.gauge "tvla.max_abs_t" first.max_abs_t;
  T.gauge "tvla.max_abs_t_2nd" second.max_abs_t;
  first, second
