(** The [secure_synthesis] recipe and its TVLA verification pass — the
    constructive closing of the loop the paper argues for (Sec. III/IV):
    masking is inserted {e by} the synthesis flow, the re-optimization
    respects the gadget fences, and the flow itself checks the result
    leakage-free before signing it off.

    Lives here rather than in [lib/synth] because the check needs the
    {!Tvla} engine and the Hamming-weight power model, which sit above
    synthesis in the dependency order. Consequently registration is
    explicit: call {!register} once (the CLI and tests do) before asking
    the registry for [tvla_check] or [secure_synthesis].

    The assessment harness is interface-generic via
    {!Synth.Masking.interface_of}: share-group inputs are re-encoded from
    the secret per trace, [mg_] inputs draw fresh randomness, unshared
    inputs carry the secret directly. One harness therefore assesses
    masked and unmasked circuits alike — which is how {!verify} can also
    assert that the {e unmasked} design fails the very check the masked
    one passes. *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng
module Masking = Synth.Masking

(** One fixed-vs-random Hamming-weight TVLA campaign over any circuit.
    Fixed class: every secret input true; random class: uniform secrets.
    Masking randomness is fresh in both classes. *)
let assess rng c ~traces_per_class ~noise_sigma =
  let iface = Masking.interface_of c in
  (* Input positions resolved once per campaign rather than per trace. *)
  let pos = Circuit.input_position c in
  let secrets = List.map (fun (_, ids) -> Array.map pos ids) iface.Masking.secrets in
  let randoms = Array.map pos iface.Masking.randoms in
  let draw stream cls words lane =
    let bit = 1 lsl lane in
    List.iter
      (fun ps ->
        let value = match cls with `Fixed -> true | `Random -> Rng.bool stream in
        if Array.length ps > 1 then Isw.encode_lane stream value ~words ~positions:ps ~lane
        else if value then words.(ps.(0)) <- words.(ps.(0)) lor bit)
      secrets;
    Array.iter (fun p -> if Rng.bool stream then words.(p) <- words.(p) lor bit) randoms
  in
  Tvla.campaign_batched rng ~traces_per_class ~batch:(Leakage.hw_batch c ~noise_sigma ~draw)

(** Convenience verdict: does the circuit leak under {!assess}? *)
let leaks rng c ~traces_per_class ~noise_sigma =
  Tvla.leaks (assess rng c ~traces_per_class ~noise_sigma)

type verification = {
  masked_result : Tvla.result;
  unmasked_result : Tvla.result;
}

(** Assess [masked] and its unmasked [reference] under identical
    campaigns: the secure-synthesis acceptance argument is the pair
    (masked clean, reference leaking), not either verdict alone — a
    too-noisy campaign that cannot even catch the unmasked design proves
    nothing about the masked one. *)
let verify rng ~reference masked ~traces_per_class ~noise_sigma =
  { masked_result = assess rng masked ~traces_per_class ~noise_sigma;
    unmasked_result = assess rng reference ~traces_per_class ~noise_sigma }

(* --- Registration ------------------------------------------------------ *)

let param_float ctx key ~default =
  match Synth.Pass.param ctx key with
  | None -> default
  | Some v ->
    (match float_of_string_opt v with
     | Some f -> f
     | None -> invalid_arg (Printf.sprintf "tvla_check: parameter %s=%s is not a float" key v))

let tvla_pass =
  Synth.Pass.make ~name:"tvla_check"
    ~doc:
      "Leakage gate: fixed-vs-random Hamming-weight TVLA; fails the pipeline \
       on |t| > 4.5 (params: traces, noise_sigma, seed)"
    ~check:(fun ctx c ->
      let traces = Synth.Pass.param_int ctx "traces" ~default:1500 in
      let noise_sigma = param_float ctx "noise_sigma" ~default:0.8 in
      let seed = Synth.Pass.param_int ctx "seed" ~default:7 in
      let result =
        assess (Rng.create (0x74766c61 + seed)) c ~traces_per_class:traces ~noise_sigma
      in
      if Tvla.leaks result then
        Error
          (Printf.sprintf "TVLA leakage: max |t| = %.2f over %d traces/class (threshold %.1f)"
             result.Tvla.max_abs_t traces Tvla.threshold)
      else Ok ())
    (fun _ c -> c)

let secure_synthesis =
  Synth.Pipeline.make ~name:"secure_synthesis"
    ~doc:
      "Mask annotated regions (or the whole circuit), re-optimize behind the \
       gadget fence, then gate on a TVLA leakage check (params: shares, \
       style, seed, region, traces, noise_sigma)"
    [ Synth.Pipeline.pass "mask_insertion";
      Synth.Pipeline.Protect
        { prefixes = Synth.Pipeline.gadget_prefixes;
          body =
            [ Synth.Pipeline.pass "constant_propagation";
              Synth.Pipeline.pass "strash";
              Synth.Pipeline.pass "xor_reassoc" ] };
      Synth.Pipeline.pass "tvla_check" ]

let registered = ref false

(** Register [tvla_check] and [secure_synthesis]; idempotent. Explicit
    because cross-library registration cannot rely on module initializers
    of unreferenced archive members being linked. *)
let register () =
  if not !registered then begin
    registered := true;
    Synth.Pass.register tvla_pass;
    Synth.Pipeline.register secure_synthesis
  end
