(** Pipelines: synthesis recipes described as data and executed by one
    runner.

    A recipe is a tree of {!step}s — plain passes, bounded fixed-point
    loops, protect fences and parameter-conditioned blocks — referring to
    passes by registry name. Describing flows as data is the point of the
    redesign: recipes can be listed, composed, compared and extended
    without editing a hardcoded flow function.

    The runner threads one {!Pass.ctx} through the tree, charges one
    budget step per executed pass (stopping early — and cleanly — when the
    budget runs out), emits a [synth.pass.<name>] telemetry span with
    signed gate-delta counters ([synth.gates_removed] /
    [synth.gates_added]) around every pass, and hands each intermediate
    circuit to an [observe] callback — the hook behind
    [--print-ir-after]. *)

module Circuit = Netlist.Circuit
module T = Eda_util.Telemetry
module Budget = Eda_util.Budget

type step =
  | Run of { pass : string; params : (string * string) list }
  | Fixed_point of { max_rounds : int; body : step list }
  | Protect of { prefixes : string list; body : step list }
  | If_param of { param : string; default : bool; body : step list }

type t = { name : string; doc : string; steps : step list }

let pass ?(params = []) name = Run { pass = name; params }
let make ~name ~doc steps = { name; doc; steps }

(* --- Recipe registry --------------------------------------------------- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let register p =
  if Hashtbl.mem registry p.name then
    invalid_arg (Printf.sprintf "Pipeline.register: duplicate recipe %s" p.name);
  Hashtbl.replace registry p.name p

let find name = Hashtbl.find_opt registry name
let names () = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])
let all () = List.map (fun n -> Hashtbl.find registry n) (names ())

let get name =
  match find name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Pipeline: unknown recipe %s (have: %s)" name
         (String.concat ", " (names ())))

(** Every pass name a recipe mentions, in first-use order — what
    [--print-ir-after] validates against. *)
let passes_used t =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Run { pass; _ } ->
      if not (Hashtbl.mem seen pass) then begin
        Hashtbl.replace seen pass ();
        acc := pass :: !acc
      end
    | Fixed_point { body; _ } | Protect { body; _ } | If_param { body; _ } ->
      List.iter go body
  in
  List.iter go t.steps;
  List.rev !acc

(* --- Runner ------------------------------------------------------------ *)

(* Per-pass instrumentation: a [synth.pass.<name>] span and signed
   gate-delta counters. Growth and shrink are separate counters
   (mask insertion legitimately grows the netlist); zero deltas emit
   nothing. Inactive telemetry short-circuits so the extra
   [Circuit.stats] calls are only paid when tracing. *)
let instrument name f c =
  if not (T.active ()) then f c
  else
    T.with_span ("synth.pass." ^ name) @@ fun () ->
    let before = (Circuit.stats c).Circuit.gates in
    let c' = f c in
    let after = (Circuit.stats c').Circuit.gates in
    if before > after then T.count "synth.gates_removed" (before - after);
    if after > before then T.count "synth.gates_added" (after - before);
    T.note "synth.pass"
      ~attrs:
        [ ("pass", T.Str name); ("gates_before", T.Int before); ("gates_after", T.Int after) ];
    c'

let run ?budget ?protect ?(params = []) ?observe t c =
  let stopped = ref false in
  let seq = ref 0 in
  let exec_pass (ctx : Pass.ctx) c name step_params =
    (match budget with
     | None -> ()
     | Some b ->
       (match Budget.status b with
        | Some reason ->
          stopped := true;
          T.note "synth.pipeline.early_stop"
            ~attrs:
              [ ("recipe", T.Str t.name);
                ("reason", T.Str (Budget.describe_exhaustion reason)) ]
        | None -> Budget.tick b));
    if !stopped then c
    else begin
      let p = Pass.get name in
      (* Step params override recipe-level params of the same key. *)
      let ctx = { ctx with Pass.params = step_params @ params } in
      let c' = instrument name (Pass.run ctx p) c in
      incr seq;
      (match observe with
       | Some f -> f ~seq:!seq ~pass:name c'
       | None -> ());
      c'
    end
  in
  let rec exec_steps ctx c = function
    | [] -> c
    | s :: rest -> if !stopped then c else exec_steps ctx (exec_step ctx c s) rest
  and exec_step (ctx : Pass.ctx) c = function
    | Run { pass; params } -> exec_pass ctx c pass params
    | Protect { prefixes; body } ->
      let outer = ctx.Pass.protect in
      let fence nm =
        outer nm || List.exists (fun p -> String.starts_with ~prefix:p nm) prefixes
      in
      exec_steps { ctx with Pass.protect = fence } c body
    | If_param { param; default; body } ->
      if Pass.param_bool ctx param ~default then exec_steps ctx c body else c
    | Fixed_point { max_rounds; body } ->
      (* Bounded fixed point on gate count: iterate while the body
         strictly shrinks the netlist, at most [max_rounds] times, and
         return the last result even when it grew — matching the legacy
         [optimize] loop bit for bit. *)
      let rec loop c rounds =
        if rounds = 0 || !stopped then c
        else begin
          let c' = exec_steps ctx c body in
          if !stopped || (Circuit.stats c').Circuit.gates >= (Circuit.stats c).Circuit.gates
          then c'
          else loop c' (rounds - 1)
        end
      in
      loop c max_rounds
  in
  let ctx = { Pass.protect = Option.value ~default:(fun _ -> false) protect; params } in
  exec_steps ctx c t.steps

let run_recipe ?budget ?protect ?params ?observe name c =
  let t = get name in
  T.with_span ("synth.recipe." ^ name) @@ fun () ->
  run ?budget ?protect ?params ?observe t c

(* --- Builtin recipes --------------------------------------------------- *)

(** Net-name prefixes of masked-gadget internals; the standard fence for
    security-aware recipes. *)
let gadget_prefixes = [ Masking.prefix ]

let () =
  register
    (make ~name:"optimize"
       ~doc:
         "Classical security-oblivious flow: constant propagation, strash, \
          XOR re-association, iterated to a bounded fixed point \
          (params: reassoc=true|false)"
       [ Fixed_point
           { max_rounds = 4;
             body =
               [ pass "constant_propagation";
                 pass "strash";
                 If_param
                   { param = "reassoc"; default = true; body = [ pass "xor_reassoc" ] } ] } ]);
  register
    (make ~name:"optimize_secure"
       ~doc:
         "Security-aware flow: the same passes behind a protect fence over \
          masked-gadget internals (mg_) plus any caller fence"
       [ Protect
           { prefixes = gadget_prefixes;
             body = [ pass "constant_propagation"; pass "strash"; pass "xor_reassoc" ] } ])
