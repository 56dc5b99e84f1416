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
    the secret per trace, [mg_]/[isw_]/[dom_] inputs draw fresh
    randomness, unshared inputs carry the secret directly. One harness
    therefore assesses masked and unmasked circuits alike — which is how
    {!verify} can also assert that the {e unmasked} design fails the very
    check the masked one passes. *)

module Circuit = Netlist.Circuit
module Rng = Eda_util.Rng
module Masking = Synth.Masking

(* Randomness inputs of any recognised gadget family. *)
let is_random_input name =
  Masking.protected_name name || Isw.protected_name name || Dom.protected_name name

(* The assessed interface: share groups re-encoded per trace, gadget
   randomness refreshed per trace, unshared inputs carrying the secret. *)
let harness c =
  let iface = Masking.interface_of c in
  let secrets, extra_randoms =
    List.partition (fun (nm, _) -> not (is_random_input nm)) iface.Masking.secrets
  in
  let randoms =
    Array.append iface.Masking.randoms
      (Array.concat (List.map snd extra_randoms))
  in
  (secrets, randoms)

(** One fixed-vs-random Hamming-weight TVLA campaign over any circuit.
    Fixed class: every secret input true; random class: uniform secrets.
    Masking randomness is fresh in both classes. Bit-identical at any
    pool size (see {!Tvla.campaign_seeded}). *)
let assess ?pool rng c ~traces_per_class ~noise_sigma =
  let secrets, randoms = harness c in
  let nodes = Circuit.node_count c in
  let ni = Circuit.num_inputs c in
  (* Input positions and the circuit's gate arrays, resolved once per
     campaign rather than per trace. *)
  let pos = Array.make nodes (-1) in
  Array.iteri (fun p id -> pos.(id) <- p) (Circuit.inputs c);
  let secrets = List.map (fun (_, ids) -> Array.map (fun id -> pos.(id)) ids) secrets in
  let randoms = Array.map (fun id -> pos.(id)) randoms in
  let sample = Power.Model.hamming_weight_sampler c in
  (* One net-value buffer recycled from trace to trace; a pooled worker
     that finds it taken allocates its own. *)
  let spare = Atomic.make None in
  let collect stream cls =
    let vec = Array.make ni false in
    List.iter
      (fun ps ->
        let value = match cls with `Fixed -> true | `Random -> Rng.bool stream in
        if Array.length ps = 1 then vec.(ps.(0)) <- value
        else begin
          let sh = Isw.encode stream ~shares:(Array.length ps) value in
          Array.iteri (fun s p -> vec.(p) <- sh.(s)) ps
        end)
      secrets;
    Array.iter (fun p -> vec.(p) <- Rng.bool stream) randoms;
    let scratch =
      match Atomic.exchange spare None with Some b -> b | None -> Array.make nodes false
    in
    let hw = sample stream ~scratch ~noise_sigma ~inputs:vec in
    Atomic.set spare (Some scratch);
    [| hw |]
  in
  Tvla.campaign_seeded ?pool rng ~traces_per_class ~collect

(** Convenience verdict: does the circuit leak under {!assess}? *)
let leaks ?pool rng c ~traces_per_class ~noise_sigma =
  Tvla.leaks (assess ?pool rng c ~traces_per_class ~noise_sigma)

type verification = {
  masked_result : Tvla.result;
  unmasked_result : Tvla.result;
}

(** Assess [masked] and its unmasked [reference] under identical
    campaigns: the secure-synthesis acceptance argument is the pair
    (masked clean, reference leaking), not either verdict alone — a
    too-noisy campaign that cannot even catch the unmasked design proves
    nothing about the masked one. *)
let verify ?pool rng ~reference masked ~traces_per_class ~noise_sigma =
  { masked_result = assess ?pool rng masked ~traces_per_class ~noise_sigma;
    unmasked_result = assess ?pool rng reference ~traces_per_class ~noise_sigma }

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
        assess ?pool:ctx.Synth.Pass.pool (Rng.create (0x74766c61 + seed)) c
          ~traces_per_class:traces ~noise_sigma
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
