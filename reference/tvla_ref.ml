(** The list-based TVLA t-tests that {!Sidechannel.Tvla}'s streaming
    engine replaced, kept verbatim as its differential oracle: every
    trace held in memory, one column buffer per sample, second order by
    explicit pooled-mean centring and squaring, each column tested by the
    two-pass Welch t below. *)

module Stats = Eda_util.Stats
module Tvla = Sidechannel.Tvla

let threshold = Tvla.threshold

(* Welch's t statistic between two samples; 0 when either sample is
   degenerate. *)
let welch_t xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  if nx < 2 || ny < 2 then 0.0
  else begin
    let vx = Stats.variance xs /. Float.of_int nx in
    let vy = Stats.variance ys /. Float.of_int ny in
    let denom = sqrt (vx +. vy) in
    if denom <= 0.0 then 0.0 else (Stats.mean xs -. Stats.mean ys) /. denom
  end

(** Per-sample Welch t over two trace populations (arrays of equal-length
    traces). *)
let t_test fixed_traces random_traces =
  match fixed_traces, random_traces with
  | [], _ | _, [] -> invalid_arg "Tvla.t_test: empty population"
  | f0 :: _, _ ->
    let samples = Array.length f0 in
    (* Column buffers are allocated once and refilled per sample — the
       values and their order fed to [welch_t] are identical to a
       per-sample [Array.of_list], without the per-sample allocation. *)
    let fixed = Array.of_list fixed_traces and random = Array.of_list random_traces in
    let col_f = Array.make (Array.length fixed) 0.0 in
    let col_r = Array.make (Array.length random) 0.0 in
    let t_per_sample =
      Array.init samples (fun k ->
          for j = 0 to Array.length fixed - 1 do col_f.(j) <- fixed.(j).(k) done;
          for j = 0 to Array.length random - 1 do col_r.(j) <- random.(j).(k) done;
          welch_t col_f col_r)
    in
    let leaky =
      List.filter
        (fun k -> Float.abs t_per_sample.(k) > threshold)
        (List.init samples (fun k -> k))
    in
    { Tvla.t_per_sample;
      max_abs_t = Stats.max_abs t_per_sample;
      leaky_samples = leaky;
      traces_per_class = min (List.length fixed_traces) (List.length random_traces) }

(** Second-order (univariate) TVLA: each trace is centered by the pooled
    per-sample mean and squared before the Welch t-test, exposing leakage
    in the *variance* of the power consumption. *)
let t_test_second_order fixed_traces random_traces =
  match fixed_traces, random_traces with
  | [], _ | _, [] -> invalid_arg "Tvla.t_test_second_order: empty population"
  | f0 :: _, _ ->
    let samples = Array.length f0 in
    let all = Array.of_list (fixed_traces @ random_traces) in
    let col = Array.make (Array.length all) 0.0 in
    let pooled_mean =
      Array.init samples (fun k ->
          for j = 0 to Array.length all - 1 do col.(j) <- all.(j).(k) done;
          Eda_util.Stats.mean col)
    in
    let preprocess tr =
      Array.init samples (fun k ->
          let d = tr.(k) -. pooled_mean.(k) in
          d *. d)
    in
    t_test (List.map preprocess fixed_traces) (List.map preprocess random_traces)
