(** Zero-dependency QuickCheck-style property harness. See the .mli for
    the contract; the design notes live in DESIGN.md ("Property testing
    and shrinking").

    Reproducibility model: case [i] of a [check] draws from stream [i] of
    [Rng.split (Rng.create seed) count]. The generator never touches any
    other randomness, so (seed, count, i) pins the case exactly — the
    failure report carries all three. Shrinking consumes no randomness at
    all: it is a greedy walk over the pure [shrink] candidate sequences,
    bounded by [max_shrink_steps] so pathological shrinkers (or
    properties that fail on everything) terminate. *)

type 'a arb = {
  gen : Rng.t -> 'a;
  shrink : 'a -> 'a Seq.t;
  show : 'a -> string;
}

let no_shrink _ = Seq.empty

let make ?(shrink = no_shrink) ?(show = fun _ -> "<opaque>") gen = { gen; shrink; show }

(* Candidates for an int in [lo, v]: lo first (the biggest jump), then
   binary approach from below — the classic QuickCheck ladder, which
   reaches a local minimum in O(log v) accepted steps. *)
let shrink_int_toward lo v =
  if v = lo then Seq.empty
  else
    let rec ladder delta () =
      (* delta walks v-lo, (v-lo)/2, ..., 1; candidate = v - delta *)
      if delta = 0 then Seq.Nil
      else Seq.Cons (v - delta, ladder (delta / 2))
    in
    ladder (v - lo)

let int_range lo hi =
  if lo > hi then invalid_arg "Proptest.int_range: lo > hi";
  { gen = (fun rng -> lo + Rng.int rng (hi - lo + 1));
    shrink = (fun v -> shrink_int_toward lo v);
    show = string_of_int }

let bool_arb =
  { gen = Rng.bool;
    shrink = (fun v -> if v then Seq.return false else Seq.empty);
    show = string_of_bool }

let const v = { gen = (fun _ -> v); shrink = no_shrink; show = (fun _ -> "<const>") }

let choose_from ?(show = fun _ -> "<choice>") = function
  | [] -> invalid_arg "Proptest.choose_from: empty list"
  | choices ->
    let arr = Array.of_list choices in
    let index v =
      let rec find i = if i >= Array.length arr then None
        else if arr.(i) == v then Some i else find (i + 1)
      in
      find 0
    in
    { gen = (fun rng -> arr.(Rng.int rng (Array.length arr)));
      shrink =
        (fun v ->
          match index v with
          | None | Some 0 -> Seq.empty
          | Some i -> Seq.map (fun j -> arr.(j)) (shrink_int_toward 0 i));
      show }

let pair a b =
  { gen = (fun rng -> (a.gen rng, b.gen rng));
    shrink =
      (fun (x, y) ->
        Seq.append
          (Seq.map (fun x' -> (x', y)) (a.shrink x))
          (Seq.map (fun y' -> (x, y')) (b.shrink y)));
    show = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.show x) (b.show y)) }

let triple a b c =
  { gen = (fun rng -> (a.gen rng, b.gen rng, c.gen rng));
    shrink =
      (fun (x, y, z) ->
        Seq.append
          (Seq.map (fun x' -> (x', y, z)) (a.shrink x))
          (Seq.append
             (Seq.map (fun y' -> (x, y', z)) (b.shrink y))
             (Seq.map (fun z' -> (x, y, z')) (c.shrink z))));
    show =
      (fun (x, y, z) -> Printf.sprintf "(%s, %s, %s)" (a.show x) (b.show y) (c.show z)) }

(* Shrink a list by deleting chunks of halving length — the whole list,
   then each half, each quarter, and so on down to every single element,
   so a failure caused by a late element sheds everything around it —
   then by shrinking one element at a time. *)
let shrink_list elt l =
  let n = List.length l in
  let rec deletions len pos () =
    if len = 0 then Seq.Nil
    else if pos >= n then deletions (len / 2) 0 ()
    else
      Seq.Cons
        (List.filteri (fun i _ -> i < pos || i >= pos + len) l, deletions len (pos + len))
  in
  let elementwise =
    List.to_seq l
    |> Seq.mapi (fun i x ->
           Seq.map (fun x' -> List.mapi (fun j y -> if j = i then x' else y) l) (elt.shrink x))
    |> Seq.concat
  in
  Seq.append (deletions n 0) elementwise

let list_of ?(min_len = 0) ~max_len elt =
  if min_len < 0 || max_len < min_len then invalid_arg "Proptest.list_of: bad bounds";
  { gen =
      (fun rng ->
        let n = min_len + Rng.int rng (max_len - min_len + 1) in
        List.init n (fun _ -> elt.gen rng));
    shrink =
      (fun l ->
        Seq.filter (fun l' -> List.length l' >= min_len) (shrink_list elt l));
    show = (fun l -> "[" ^ String.concat "; " (List.map elt.show l) ^ "]") }

let map ?shrink_back ?(show = fun _ -> "<mapped>") f a =
  { gen = (fun rng -> f (a.gen rng));
    shrink =
      (fun v ->
        match shrink_back with
        | None -> Seq.empty
        | Some back ->
          (match back v with
           | None -> Seq.empty
           | Some x -> Seq.map f (a.shrink x)));
    show }

type failure = {
  prop_name : string;
  seed : int;
  case_index : int;
  shrink_steps : int;
  original : string;
  minimal : string;
  error : string option;
}

type outcome =
  | Passed of int
  | Failed of failure

let describe_failure f =
  Printf.sprintf
    "property %S: shrunk counterexample %s (case %d, %d shrink step(s), originally %s%s) \
     — replay with PROPTEST_SEED=%d"
    f.prop_name f.minimal f.case_index f.shrink_steps f.original
    (match f.error with None -> "" | Some e -> ", raised " ^ e)
    f.seed

let seed_from_env ~default =
  match Sys.getenv_opt "PROPTEST_SEED" with
  | Some s -> (match int_of_string_opt (String.trim s) with Some n -> n | None -> default)
  | None -> default

(* A property fails by returning false or raising; the raise text is
   preserved for the report (the first one encountered on the original
   counterexample — shrinking keeps whatever failure mode the candidate
   exhibits). *)
let holds prop v =
  match prop v with
  | true -> Ok ()
  | false -> Error None
  | exception e -> Error (Some (Printexc.to_string e))

let check ?(count = 100) ?seed ?(max_shrink_steps = 400) ~name arb prop =
  if count <= 0 then invalid_arg "Proptest.check: count must be positive";
  let seed = match seed with Some s -> s | None -> seed_from_env ~default:0xEDA in
  let streams = Rng.split (Rng.create seed) count in
  let failure = ref None in
  let i = ref 0 in
  while !failure = None && !i < count do
    let v = arb.gen streams.(!i) in
    (match holds prop v with
     | Ok () -> ()
     | Error err ->
       (* Greedy descent: first failing candidate wins each round. *)
       let steps = ref 0 in
       let current = ref v in
       let progress = ref true in
       while !progress && !steps < max_shrink_steps do
         progress := false;
         let candidates = arb.shrink !current in
         let rec try_candidates seq =
           if !steps >= max_shrink_steps then ()
           else
             match seq () with
             | Seq.Nil -> ()
             | Seq.Cons (cand, rest) ->
               incr steps;
               (match holds prop cand with
                | Ok () -> try_candidates rest
                | Error _ ->
                  current := cand;
                  progress := true)
         in
         try_candidates candidates
       done;
       failure :=
         Some
           { prop_name = name;
             seed;
             case_index = !i;
             shrink_steps = !steps;
             original = arb.show v;
             minimal = arb.show !current;
             error = err });
    incr i
  done;
  match !failure with
  | None -> Passed count
  | Some f -> Failed f

let check_exn ?count ?seed ?max_shrink_steps ~name arb prop =
  match check ?count ?seed ?max_shrink_steps ~name arb prop with
  | Passed _ -> ()
  | Failed f -> failwith (describe_failure f)
