(** Statistical primitives used across leakage assessment, PUF metrics and
    attack evaluation: mean and variance, Pearson correlation, simple
    histograms and entropy estimates. Welch's t-test lives in
    {!Sidechannel.Tvla}'s streaming engine. *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. Float.of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let mu = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. mu) *. (x -. mu))) 0.0 xs in
    acc /. Float.of_int (n - 1)
  end

let std xs = sqrt (variance xs)

(** Pearson correlation coefficient; the CPA decision statistic. *)
let pearson xs ys =
  let n = Array.length xs in
  assert (n = Array.length ys);
  if n < 2 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    let denom = sqrt (!sxx *. !syy) in
    if denom <= 0.0 then 0.0 else !sxy /. denom
  end

(** Population count of all 63 bits of a native int. Branch-free SWAR on
    32-bit halves (64-bit mask literals would wrap on OCaml's 63-bit
    ints), no allocation — safe to call per net word in simulation
    sweeps. *)
let popcount x =
  let half v =
    let v = v - ((v lsr 1) land 0x55555555) in
    let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
    let v = (v + (v lsr 4)) land 0x0F0F0F0F in
    (* the byte-sum multiply needs an explicit mask: OCaml ints do not
       truncate at 32 bits, so the higher partial products survive *)
    ((v * 0x01010101) lsr 24) land 0xFF
  in
  half (x land 0xFFFFFFFF) + half (x lsr 32)

(** Hamming weight of the low [bits] bits of [x]. *)
let hamming_weight ?(bits = 64) x =
  if bits >= 63 then popcount x else popcount (x land ((1 lsl bits) - 1))

let hamming_distance ?(bits = 64) x y = hamming_weight ~bits (x lxor y)

(** Shannon entropy (bits) of an empirical distribution given as counts. *)
let entropy_of_counts counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else
    Array.fold_left
      (fun acc c ->
        if c = 0 then acc
        else begin
          let p = Float.of_int c /. Float.of_int total in
          acc -. (p *. (log p /. log 2.0))
        end)
      0.0 counts

(** Histogram of integer observations into [nbins] equal bins over
    [lo, hi). Out-of-range samples are clamped into the edge bins. *)
let histogram ~nbins ~lo ~hi xs =
  assert (nbins > 0 && hi > lo);
  let counts = Array.make nbins 0 in
  let width = (hi -. lo) /. Float.of_int nbins in
  let place x =
    let b = Float.to_int ((x -. lo) /. width) in
    let b = if b < 0 then 0 else if b >= nbins then nbins - 1 else b in
    counts.(b) <- counts.(b) + 1
  in
  Array.iter place xs;
  counts

(** Max absolute value of an array; used for per-sample TVLA summaries. *)
let max_abs xs = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 xs

(** Simple argmax over an array; returns index of first maximum. *)
let argmax xs =
  let best = ref 0 in
  for i = 1 to Array.length xs - 1 do
    if xs.(i) > xs.(!best) then best := i
  done;
  !best

(** Two-proportion success-rate summary used by attack benchmarks. *)
let success_rate successes trials =
  if trials = 0 then 0.0 else Float.of_int successes /. Float.of_int trials
