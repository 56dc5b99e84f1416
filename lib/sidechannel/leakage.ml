(** The paper's motivational experiment (Fig. 2), end to end.

    A private (ISW-masked) AND gate is synthesized twice:
    - security-aware: the masked accumulation chains are protected, so the
      netlist keeps the prescribed association order;
    - security-unaware: the classical flow applies factoring-friendly XOR
      re-association, creating an intermediate wire whose value distribution
      depends on the unmasked secret.

    Both are then evaluated with fixed-vs-random TVLA under a first-order
    Hamming-weight power model. The glitch variant repeats the assessment
    with the delay-annotated event simulation, reproducing the Sec. III-E
    point that glitches leak even from correctly synthesized masking. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Rng = Eda_util.Rng
module Masking = Synth.Masking

(** The paper's example target: c = a AND b, to be masked. *)
let private_and_source () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let y = Circuit.add_gate ~name:"y" c Gate.And [ a; b ] in
  Circuit.set_output c "y" y;
  c

type variant = Security_aware | Security_unaware

(** Masked-and-synthesized circuit for one flow variant. *)
let synthesize_masked ?(shares = 3) variant =
  let masked = Masking.transform ~shares (private_and_source ()) in
  let circuit =
    match variant with
    | Security_aware ->
      (* The aware recipe fences the mg_ gadget internals. *)
      Synth.Pipeline.run_recipe "optimize_secure" masked.Masking.circuit
    | Security_unaware ->
      (* The classical flow is free to re-associate (Fig. 2). *)
      Synth.Xor_reassoc.run masked.Masking.circuit
  in
  Isw.rebind masked circuit

(* The class inputs (a, b): (1, 1) when fixed, uniform when random. *)
let class_values stream cls =
  let a, b =
    match cls with
    | `Fixed -> true, true
    | `Random -> Rng.bool stream, Rng.bool stream
  in
  [ ("a", a); ("b", b) ]

(* One trace's input vector: the class inputs masked with fresh shares
   and randomness. *)
let class_vector stream masked cls =
  Isw.input_vector stream masked ~values:(class_values stream cls)

(** The batch collect of a Hamming-weight TVLA campaign on circuit [c]
    ({!Tvla.batch}). [draw stream cls words lane] writes one trace's
    input vector into lane [lane] of the (cleared) input words [words],
    drawing only from [stream]. Per stream of the batch, in order: the
    fixed vector, the fixed trace's noise, the random vector, the random
    trace's noise — the draws of a per-trace collect. Lane [j] of the
    fixed word vector and of the random one carries pair [j]; each is
    evaluated once, and each trace is its lane's energy plus its noise,
    the same float as a one-trace evaluation. Build it once per campaign:
    the sampler is resolved once and one scratch set is recycled from
    batch to batch — a pooled worker that finds it taken allocates its
    own, so the collect is safe under [?pool]. *)
let hw_batch c ~noise_sigma ~draw : Tvla.batch =
  let ni = Circuit.num_inputs c and nodes = Circuit.node_count c in
  let sample = Power.Model.hamming_weight_sampler c in
  let spare = Atomic.make None in
  fun streams ->
    let lanes = Array.length streams in
    let ((fixed, random, scratch) as s) =
      match Atomic.exchange spare None with
      | Some s -> s
      | None -> (Array.make ni 0, Array.make ni 0, Array.make nodes 0)
    in
    Array.fill fixed 0 ni 0;
    Array.fill random 0 ni 0;
    let noise = Array.make (2 * lanes) 0.0 in
    Array.iteri
      (fun j stream ->
        draw stream `Fixed fixed j;
        noise.(2 * j) <- Rng.gaussian_scaled stream ~mean:0.0 ~sigma:noise_sigma;
        draw stream `Random random j;
        noise.((2 * j) + 1) <- Rng.gaussian_scaled stream ~mean:0.0 ~sigma:noise_sigma)
      streams;
    let traces words cls =
      let e = sample ~scratch ~lanes ~inputs:words in
      Array.mapi (fun j e -> [| e +. noise.((2 * j) + cls) |]) e
    in
    let batch = traces fixed 0, traces random 1 in
    Atomic.set spare (Some s);
    batch

(* [class_vector] as a lane writer, with the input positions resolved
   once. *)
let class_lane masked =
  let c = masked.Masking.circuit in
  let pos = Circuit.input_position c in
  let groups = List.map (fun (nm, ids) -> nm, Array.map pos ids) masked.Masking.input_shares in
  let randoms = Array.map pos masked.Masking.random_inputs in
  fun stream cls words lane ->
    Isw.stimulus_lane stream ~groups ~randoms ~values:(class_values stream cls) ~words ~lane

(** Batch collect of a Hamming-weight TVLA campaign on a masked variant:
    per trace, the class inputs masked with fresh shares and randomness,
    then one noisy Hamming-weight sample ({!hw_batch}). *)
let hw_collect masked ~noise_sigma =
  hw_batch masked.Masking.circuit ~noise_sigma ~draw:(class_lane masked)

(** Fixed-vs-random TVLA on a masked variant. Fixed class: (a,b) = (1,1);
    random class: uniform (a,b). Every trace draws its randomness from the
    per-pair stream of {!Tvla.campaign_batched}, so the assessment is a
    function of [rng] alone — bit-identical with no pool and with a pool
    of any domain count. *)
let tvla_campaign ?pool rng masked ~traces_per_class ~noise_sigma =
  Tvla.campaign_batched ?pool rng ~traces_per_class ~batch:(hw_collect masked ~noise_sigma)

(** Glitch-aware variant: traces from the delay-annotated event simulation,
    with inputs switching from an all-zero reference state.
    [mask_skew_ps > 0] delays the arrival of the masking randomness inputs
    by that much — the late-mask-refresh scenario in which share products
    are transiently combined before the fresh randomness lands, the classic
    glitch-leakage mechanism of [55] (Sec. III-E). *)
let tvla_campaign_glitch ?(mask_skew_ps = 0.0) rng masked ~traces_per_class ~config =
  let c = masked.Masking.circuit in
  let ni = Circuit.num_inputs c in
  let input_arrivals =
    let arr = Array.make ni 0.0 in
    if mask_skew_ps > 0.0 then
      Array.iter
        (fun id -> arr.(Circuit.input_position c id) <- mask_skew_ps)
        masked.Masking.random_inputs;
    arr
  in
  let collect stream cls =
    Power.Model.trace stream c ~config ~input_arrivals ~prev_inputs:(Array.make ni false)
      ~next_inputs:(class_vector stream masked cls)
  in
  Tvla.campaign_seeded rng ~traces_per_class ~collect

(** Mask-failure variant: the masking randomness is stuck at zero (a dead
    TRNG — the failure mode the RNG health tests of [41] guard against).
    The shares then carry deterministic combinations of the secret and the
    "masked" circuit leaks like an unmasked one; this is the limit case of
    the timing-model question of Sec. III-E (a mask that arrives after the
    evaluation window is as good as no mask). *)
let tvla_campaign_mask_failure rng masked ~traces_per_class ~noise_sigma =
  let c = masked.Masking.circuit in
  let randoms = Array.map (Circuit.input_position c) masked.Masking.random_inputs in
  let draw = class_lane masked in
  let draw stream cls words lane =
    draw stream cls words lane;
    Array.iter (fun p -> words.(p) <- words.(p) land lnot (1 lsl lane)) randoms
  in
  Tvla.campaign_batched rng ~traces_per_class ~batch:(hw_batch c ~noise_sigma ~draw)

(** Find the most leaking internal wire of a masked circuit: a campaign
    whose trace is the vector of every node's value, then the node with
    the largest |t|. Identifies the factored wire of Fig. 2 by name. *)
let leakiest_wire rng masked ~samples =
  let c = masked.Masking.circuit in
  let values = Array.make (Circuit.node_count c) 0 in
  let collect stream cls =
    Netlist.Sim.eval_all_into c (class_vector stream masked cls) ~into:values;
    Array.map (fun w -> if w <> 0 then 1.0 else 0.0) values
  in
  let t = (Tvla.campaign_seeded rng ~traces_per_class:samples ~collect).Tvla.t_per_sample in
  let best = ref 0 in
  Array.iteri (fun i ti -> if Float.abs ti > Float.abs t.(!best) then best := i) t;
  Circuit.name c !best, Float.abs t.(!best)
