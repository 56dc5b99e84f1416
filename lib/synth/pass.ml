(** First-class synthesis passes and the global registry.

    A pass is a named, pure circuit transform plus an optional invariant
    check. Passes run inside a {!ctx} that carries the protection
    predicate and string parameters — the runner (see {!Pipeline}) threads one context through a whole recipe,
    so a transform never needs its own plumbing.

    Registration makes a transform addressable by name from pipeline
    descriptions, the CLI and tests; [Rewrite] and [Basis] (which holds
    the technology mapping) are private to the library. Builtin
    passes are registered here (not in their home modules) so that
    linking any registry user is enough to see them — module
    initializers of otherwise-unreferenced archive members are dropped
    by the linker. *)

module Circuit = Netlist.Circuit

type ctx = {
  protect : string -> bool;  (** net-name fence: true = hands off *)
  params : (string * string) list;  (** per-pass string options *)
}

let default_ctx = { protect = (fun _ -> false); params = [] }

let param ctx key = List.assoc_opt key ctx.params

let param_int ctx key ~default =
  match param ctx key with
  | None -> default
  | Some v ->
    (match int_of_string_opt v with
     | Some n -> n
     | None -> invalid_arg (Printf.sprintf "Pass: parameter %s=%s is not an integer" key v))

let param_bool ctx key ~default =
  match param ctx key with
  | None -> default
  | Some ("true" | "1" | "yes") -> true
  | Some ("false" | "0" | "no") -> false
  | Some v -> invalid_arg (Printf.sprintf "Pass: parameter %s=%s is not a boolean" key v)

type t = {
  name : string;
  doc : string;
  transform : ctx -> Circuit.t -> Circuit.t;
  check : (ctx -> Circuit.t -> (unit, string) result) option;
}

exception Check_failed of { pass : string; msg : string }

let () =
  Printexc.register_printer (function
    | Check_failed { pass; msg } ->
      Some (Printf.sprintf "Pass.Check_failed(%s): %s" pass msg)
    | _ -> None)

let make ~name ~doc ?check transform = { name; doc; transform; check }
let simple ~name ~doc f = make ~name ~doc (fun _ c -> f c)

(* --- Registry ---------------------------------------------------------- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let register p =
  if Hashtbl.mem registry p.name then
    invalid_arg (Printf.sprintf "Pass.register: duplicate pass %s" p.name);
  Hashtbl.replace registry p.name p

let find name = Hashtbl.find_opt registry name
let names () = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])
let all () = List.map (fun n -> Hashtbl.find registry n) (names ())

let get name =
  match find name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Pass: unknown pass %s (have: %s)" name
         (String.concat ", " (names ())))

(* --- Execution --------------------------------------------------------- *)

(** Run [p] under [ctx]: transform, then invariant check (raising
    {!Check_failed}), then carry region annotations across the rebuild.
    Telemetry and budget accounting live in the {!Pipeline} runner. *)
let run ctx p c =
  let c' = p.transform ctx c in
  (match p.check with
   | None -> ()
   | Some chk ->
     (match chk ctx c' with
      | Ok () -> ()
      | Error msg -> raise (Check_failed { pass = p.name; msg })));
  if c' != c then Circuit.transfer_regions ~from:c c';
  c'

let apply ?(params = []) ?protect name c =
  run { protect = Option.value ~default:default_ctx.protect protect; params } (get name) c

(* --- Builtin passes ---------------------------------------------------- *)

let lint_clean _ctx c =
  match Netlist.Lint.errors c with
  | [] -> Ok ()
  | issues -> Error (String.concat "; " (List.map Netlist.Lint.describe issues))

let strategy_of ctx =
  match param ctx "strategy" with
  | None | Some "factoring" -> Xor_reassoc.Factoring_friendly
  | Some "balanced" -> Xor_reassoc.Balanced
  | Some v -> invalid_arg (Printf.sprintf "Pass: unknown xor_reassoc strategy %s" v)

let target_of ctx =
  match param ctx "target" with
  | None | Some "nand-inv" -> Techmap.Nand_inv
  | Some "camo" -> Techmap.Nand_nor_xnor
  | Some v -> invalid_arg (Printf.sprintf "Pass: unknown techmap target %s" v)

let () =
  register
    (make ~name:"constant_propagation"
       ~doc:"Constant propagation and algebraic simplification" ~check:lint_clean
       (fun ctx c -> Rewrite.constant_propagation ~protect:ctx.protect c));
  register
    (make ~name:"strash"
       ~doc:"Structural hashing: merge identical cells (CSE)" ~check:lint_clean
       (fun ctx c -> Rewrite.strash ~protect:ctx.protect c));
  register
    (make ~name:"xor_reassoc"
       ~doc:
         "Re-associate XOR trees (strategy=factoring|balanced); the Fig. 2 \
          leak-inducing transform when unfenced"
       ~check:lint_clean
       (fun ctx c -> Xor_reassoc.run ~protect:ctx.protect ~strategy:(strategy_of ctx) c));
  register
    (make ~name:"techmap"
       ~doc:"Map onto a standard-cell target (target=nand-inv|camo)"
       ~check:(fun ctx c ->
         if Techmap.conforms (target_of ctx) c then Ok ()
         else Error "mapped circuit leaves the target library")
       (fun ctx c -> Basis.techmap (target_of ctx) c));
  register
    (make ~name:"to_and_xor_not"
       ~doc:"Rewrite into the AND/XOR/NOT masking basis"
       ~check:(fun _ c ->
         if Basis.in_basis c then Ok () else Error "circuit left the AND/XOR/NOT basis")
       (fun _ c -> Basis.to_and_xor_not c));
  register
    (simple ~name:"sweep" ~doc:"Drop logic unreachable from the outputs"
       (fun c -> fst (Circuit.sweep c)));
  register
    (make ~name:"mask_insertion"
       ~doc:
         "Replace annotated regions (or the whole circuit) with \
          order-parametric masked gadgets (params: shares, style=isw|dom, \
          seed, region)"
       ~check:lint_clean
       (fun ctx c ->
         let shares = param_int ctx "shares" ~default:3 in
         let style =
           match param ctx "style" with
           | None -> Masking.Isw
           | Some s -> Masking.style_of_string s
         in
         let seed = param_int ctx "seed" ~default:0 in
         match param ctx "region" with
         | Some region -> Masking.mask_region ~shares ~style ~seed c ~region
         | None ->
           (match Circuit.region_names c with
            | [] -> (Masking.transform ~shares ~style ~seed c).Masking.circuit
            | regions ->
              List.fold_left
                (fun c region -> Masking.mask_region ~shares ~style ~seed c ~region)
                c regions)))
