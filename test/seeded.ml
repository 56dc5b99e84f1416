(* The one seed policy of every property suite. The seed is PROPTEST_SEED
   when set, else 0xEDA, and it is printed once per executable. Each
   property draws from a fresh [Random.State] of that seed, so a run is a
   pure function of the seed and a failure replays exactly; the failure
   message names the seed. *)

let seed =
  match Sys.getenv_opt "PROPTEST_SEED" with
  | None -> 0xEDA
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> n
     | None -> invalid_arg ("PROPTEST_SEED is not an integer: " ^ s))

let () = Printf.printf "property seed: %d (replay with PROPTEST_SEED=%d)\n%!" seed seed

let rand () = Random.State.make [| seed |]

let replayable run () =
  try run () with
  | (QCheck.Test.Test_fail _ | QCheck.Test.Test_error _) as e ->
    failwith (Printf.sprintf "%s\nreplay with PROPTEST_SEED=%d" (Printexc.to_string e) seed)

(** A QCheck test as an Alcotest case, under the seed. *)
let to_alcotest t =
  let name, speed, run = QCheck_alcotest.to_alcotest ~rand:(rand ()) t in
  (name, speed, replayable run)

(** Check a property inside an Alcotest case, under the seed; raises
    [Failure] naming the counterexample and the seed. *)
let check ?count ~name arb prop =
  replayable (fun () -> QCheck.Test.check_exn ~rand:(rand ()) (QCheck.Test.make ?count ~name arb prop)) ()

(** A non-shrinking arbitrary from a generator over the toolkit's own
    [Rng.t]: each case draws from a fresh stream seeded from QCheck's. *)
let of_rng ~print gen =
  QCheck.make ~print (fun st -> gen (Eda_util.Rng.create (Random.State.bits st)))
