(* Tests for Eda_util.Telemetry: span nesting under the memory sink,
   counter aggregation determinism, JSONL round-trip fidelity, and the
   null-sink-emits-nothing guarantee the engines' always-on
   instrumentation depends on. *)

module T = Eda_util.Telemetry

(* A deterministic fake clock: each reading advances by 1.0. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    let now = !t in
    t := now +. 1.0;
    now

let collect f =
  let sink, events = T.memory_sink () in
  let r = T.with_sink ~clock:(fake_clock ()) sink f in
  (r, events ())

(* --- spans -------------------------------------------------------- *)

let test_span_nesting () =
  let (), events =
    collect (fun () ->
        T.with_span "outer" (fun () ->
            T.with_span "inner_a" (fun () -> ());
            T.with_span "inner_b" (fun () -> T.note "mark")))
  in
  let starts = List.filter (fun e -> e.T.kind = T.Span_start) events in
  let ends = List.filter (fun e -> e.T.kind = T.Span_end) events in
  Alcotest.(check int) "three starts" 3 (List.length starts);
  Alcotest.(check int) "three ends" 3 (List.length ends);
  let find name = List.find (fun e -> e.T.name = name) starts in
  let outer = find "outer" and a = find "inner_a" and b = find "inner_b" in
  Alcotest.(check int) "outer is a root" 0 outer.T.parent;
  Alcotest.(check int) "inner_a under outer" outer.T.span a.T.parent;
  Alcotest.(check int) "inner_b under outer" outer.T.span b.T.parent;
  let mark = List.find (fun e -> e.T.kind = T.Point) events in
  Alcotest.(check int) "note attached to inner_b" b.T.span mark.T.span

let test_span_ids_strictly_increasing () =
  let (), events =
    collect (fun () ->
        for _ = 1 to 5 do
          T.with_span "s" (fun () -> ())
        done)
  in
  let ids =
    List.filter_map
      (fun e -> if e.T.kind = T.Span_start then Some e.T.span else None)
      events
  in
  Alcotest.(check (list int)) "ids 1..5" [ 1; 2; 3; 4; 5 ] ids

let test_span_duration_from_clock () =
  (* Fake clock ticks once at start and once at end: duration = interval. *)
  let (), events = collect (fun () -> T.with_span "timed" (fun () -> ())) in
  let e = List.find (fun e -> e.T.kind = T.Span_end) events in
  Alcotest.(check bool) "positive duration" true (e.T.value > 0.0)

let test_span_ends_on_exception () =
  let result, events =
    collect (fun () ->
        try T.with_span "boom" (fun () -> failwith "expected")
        with Failure _ -> `Raised)
  in
  Alcotest.(check bool) "exception propagated" true (result = `Raised);
  let e = List.find (fun e -> e.T.kind = T.Span_end) events in
  Alcotest.(check bool) "error attr recorded" true
    (List.mem_assoc "error" e.T.attrs)

(* --- counters / gauges ---------------------------------------------- *)

(* Whole-trace totals, rebuilt from the recorded events. *)
let trace_of events =
  match T.Trace.of_events events with
  | Ok trace -> trace
  | Error msg -> Alcotest.fail ("trace rebuild failed: " ^ msg)

let test_counter_aggregation_deterministic () =
  let run () =
    collect (fun () ->
        T.count "a" 3;
        T.count "b" 1;
        T.count "a" 4;
        T.count "zero" 0)
  in
  let (), events1 = run () in
  let (), events2 = run () in
  let totals1 = (trace_of events1).T.Trace.counter_totals in
  let totals2 = (trace_of events2).T.Trace.counter_totals in
  Alcotest.(check (option (float 1e-9))) "a total" (Some 7.0) (List.assoc_opt "a" totals1);
  Alcotest.(check bool) "totals identical across runs" true (totals1 = totals2);
  Alcotest.(check int) "same event count" (List.length events1) (List.length events2);
  Alcotest.(check bool) "sorted by name" true (totals1 = [ ("a", 7.0); ("b", 1.0) ]);
  (* A zero increment emits no event. *)
  let counts = List.filter (fun e -> e.T.kind = T.Count) events1 in
  Alcotest.(check int) "only nonzero increments emitted" 3 (List.length counts)

let test_gauge_keeps_last () =
  let (), events =
    collect (fun () ->
        T.gauge "temp" 8.0;
        T.gauge "temp" 0.5)
  in
  Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 0.5)
    (List.assoc_opt "temp" (trace_of events).T.Trace.gauge_last)

(* --- null sink / disabled state ------------------------------------ *)

let test_null_sink_adds_no_events () =
  (* Instrumentation outside any sink, and under the null sink, must both
     be invisible: no events, [active () = false]. *)
  T.with_span "orphan" (fun () -> T.count "orphan" 5);
  Alcotest.(check bool) "inactive outside with_sink" false (T.active ());
  Alcotest.(check bool) "null sink reports inactive" false
    (T.with_sink T.null (fun () -> T.active ()));
  T.with_sink T.null (fun () -> T.with_span "hidden" (fun () -> T.count "h" 1));
  let (), events =
    collect (fun () ->
        Alcotest.(check bool) "active under memory sink" true (T.active ());
        T.with_span "seen" (fun () -> ()))
  in
  Alcotest.(check int) "only this sink's events recorded" 2 (List.length events)

let test_disabled_span_allocates_nothing () =
  (* The always-on instrumentation promise: a span outside any sink is a
     sink check and a call, nothing else. A million of them must allocate
     no more minor words than the same loop without the span. The body is
     a closed closure, so neither loop allocates one per iteration. *)
  let n = 1_000_000 in
  let minor_words loop =
    let w0 = Gc.minor_words () in
    loop ();
    Gc.minor_words () -. w0
  in
  let bare =
    minor_words (fun () ->
        for _ = 1 to n do
          Sys.opaque_identity (fun () -> ()) ()
        done)
  in
  let spanned =
    minor_words (fun () ->
        for _ = 1 to n do
          T.with_span "noop" (fun () -> ())
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "disabled spans allocate %.0f words, bare loop %.0f" spanned bare)
    true (spanned <= bare)

(* --- JSONL round-trip ----------------------------------------------- *)

let test_json_value_roundtrip () =
  let open T.Json in
  let values =
    [ Null; JBool true; JBool false; JInt 0; JInt (-42); JInt max_int;
      JFloat 0.5; JFloat (-1.25e-3); JFloat 3.0; JStr ""; JStr "plain";
      JStr "esc \"q\" \\ \n \t \x01 end";
      JList [ JInt 1; JStr "two"; Null ];
      JObj [ ("k", JInt 1); ("nested", JObj [ ("x", JBool false) ]) ] ]
  in
  List.iter
    (fun v ->
      match parse (to_string v) with
      | Ok v' -> Alcotest.(check bool) ("roundtrip " ^ to_string v) true (v = v')
      | Error msg -> Alcotest.fail ("parse failed: " ^ msg))
    values

let test_json_unicode_roundtrip () =
  let open T.Json in
  (* BMP, multi-byte Latin, and astral (surrogate-pair) content. *)
  let s = "h\xc3\xa9llo \xe2\x87\x92 \xf0\x9f\x98\x80" in
  let encoded = to_string (JStr s) in
  String.iter
    (fun ch ->
      Alcotest.(check bool) "encoded output is pure ASCII" true (Char.code ch < 0x80))
    encoded;
  (match parse encoded with
   | Ok (JStr s') -> Alcotest.(check string) "unicode round-trips" s s'
   | Ok _ -> Alcotest.fail "parsed to a non-string"
   | Error msg -> Alcotest.fail ("parse failed: " ^ msg));
  (* A hand-written surrogate pair decodes to the astral code point. *)
  (match parse "\"\\uD83D\\uDE00\"" with
   | Ok (JStr got) -> Alcotest.(check string) "surrogate pair decodes" "\xf0\x9f\x98\x80" got
   | Ok _ -> Alcotest.fail "parsed to a non-string"
   | Error msg -> Alcotest.fail ("surrogate parse failed: " ^ msg));
  (* Unpaired surrogates are malformed JSON, not silent data. *)
  List.iter
    (fun bad ->
      match parse bad with
      | Ok _ -> Alcotest.fail ("accepted unpaired surrogate: " ^ bad)
      | Error _ -> ())
    [ "\"\\uD83D\""; "\"\\uD83Dx\""; "\"\\uDE00\"" ];
  (* Invalid UTF-8 bytes degrade to U+FFFD rather than corrupt output. *)
  match parse (to_string (JStr "ok\xffend")) with
  | Ok (JStr got) -> Alcotest.(check string) "lone 0xFF becomes U+FFFD" "ok\xef\xbf\xbdend" got
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error msg -> Alcotest.fail ("replacement parse failed: " ^ msg)

let test_json_rejects_garbage () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{} trailing" ] in
  List.iter
    (fun s ->
      match T.Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ s)
      | Error _ -> ())
    bad

let jsonl_of_run f =
  let sink, events = T.memory_sink () in
  T.with_sink ~clock:(fake_clock ()) sink f;
  let events = events () in
  (events, String.concat "\n" (List.map T.event_to_line events))

let instrumented_run () =
  T.with_span "root" ~attrs:[ ("design", T.Str "alu4"); ("bits", T.Int 4) ]
    (fun () ->
      T.with_span "stage_a" (fun () ->
          T.count "work" 3;
          T.note "checkpoint" ~attrs:[ ("ok", T.Bool true) ]);
      T.with_span "stage_b" (fun () -> T.gauge "level" 0.75))

let test_jsonl_roundtrip_reconstructs () =
  let events, text = jsonl_of_run instrumented_run in
  (* Every line parses back to the event that produced it. *)
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) "one line per event" (List.length events) (List.length lines);
  List.iter2
    (fun e line ->
      match T.event_of_line line with
      | Ok e' -> Alcotest.(check bool) "event round-trips" true (e = e')
      | Error msg -> Alcotest.fail ("line did not parse: " ^ msg))
    events lines;
  (* The reconstructed trace matches one built from live events. *)
  match T.Trace.of_string text, T.Trace.of_events events with
  | Error msg, _ | _, Error msg -> Alcotest.fail ("trace rebuild failed: " ^ msg)
  | Ok from_text, Ok from_events ->
    Alcotest.(check int) "span count" from_events.T.Trace.span_count
      from_text.T.Trace.span_count;
    Alcotest.(check int) "event count" (List.length events)
      from_text.T.Trace.event_count;
    (match from_text.T.Trace.roots with
     | [ root ] ->
       Alcotest.(check string) "root name" "root" root.T.Trace.name;
       Alcotest.(check int) "two children" 2 (List.length root.T.Trace.children);
       Alcotest.(check (list string)) "children in start order"
         [ "stage_a"; "stage_b" ]
         (List.map (fun s -> s.T.Trace.name) root.T.Trace.children);
       let a = List.hd root.T.Trace.children in
       Alcotest.(check (list (pair string (float 1e-9)))) "stage_a counters"
         [ ("work", 3.0) ] a.T.Trace.counters
     | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
    Alcotest.(check bool) "counter totals survive" true
      (List.mem_assoc "work" from_text.T.Trace.counter_totals);
    Alcotest.(check bool) "gauges survive" true
      (List.mem_assoc "level" from_text.T.Trace.gauge_last)

let test_trace_rejects_malformed () =
  (* Structurally broken traces must be an [Error] (the CI report step
     relies on this), not a silently-wrong profile. *)
  let end_without_start =
    "{\"kind\":\"span_end\",\"span\":7,\"parent\":0,\"name\":\"ghost\",\"time\":1.0,\"value\":1.0}"
  in
  (match T.Trace.of_string end_without_start with
   | Ok _ -> Alcotest.fail "accepted end-without-start"
   | Error _ -> ());
  (match T.Trace.of_string "not json at all" with
   | Ok _ -> Alcotest.fail "accepted non-JSON line"
   | Error _ -> ())

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_profile_prints () =
  let _, text = jsonl_of_run instrumented_run in
  match T.Trace.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok trace ->
    let rendered = Format.asprintf "%a" T.Trace.pp_profile trace in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("profile mentions " ^ needle) true
          (contains rendered needle))
      [ "root"; "stage_a"; "stage_b"; "work" ]

(* --- clock & GC cost model ------------------------------------------ *)

let test_monotonic_clock () =
  let clock = T.monotonic_clock () in
  let prev = ref (clock ()) in
  for _ = 1 to 1000 do
    let t = clock () in
    Alcotest.(check bool) "never decreases" true (t >= !prev);
    prev := t
  done;
  (* The default with_sink clock is wall time: a sleeping span still has
     positive duration (Sys.time, the old default, would report ~0). *)
  let sink, events = T.memory_sink () in
  T.with_sink sink (fun () -> T.with_span "sleep" (fun () -> Unix.sleepf 0.02));
  let e = List.find (fun e -> e.T.kind = T.Span_end) (events ()) in
  Alcotest.(check bool) "wall-clock duration covers the sleep" true (e.T.value >= 0.015)

let test_gc_span_attrs () =
  let run gc =
    let sink, events = T.memory_sink () in
    T.with_sink ~clock:(fake_clock ()) ~gc sink (fun () ->
        T.with_span "alloc" (fun () -> ignore (Sys.opaque_identity (Array.make 4096 0.0))));
    List.find (fun e -> e.T.kind = T.Span_end) (events ())
  in
  let off = run false in
  Alcotest.(check bool) "gc attrs absent by default" false
    (List.mem_assoc "gc.alloc_words" off.T.attrs);
  let on = run true in
  (match List.assoc_opt "gc.alloc_words" on.T.attrs with
   | Some (T.Float w) ->
     Alcotest.(check bool) "allocation delta covers the array" true (w >= 4096.0)
   | _ -> Alcotest.fail "gc.alloc_words missing with ~gc:true");
  Alcotest.(check bool) "major words attr present" true
    (List.mem_assoc "gc.major_words" on.T.attrs);
  (* The standalone snapshot API agrees with itself. *)
  let s0 = T.alloc_snapshot () in
  ignore (Sys.opaque_identity (Array.make 4096 0.0));
  let d = T.alloc_since s0 in
  Alcotest.(check bool) "alloc_since sees the allocation" true
    (d.T.alloc_words >= 4096.0)

(* --- capture / absorb ------------------------------------------------ *)

(* Deterministic per-task clocks: task [i] ticks from 1000*(i+1). *)
let task_clock i =
  let t = ref (1000.0 *. Float.of_int (i + 1)) in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

let test_capture_absorb_merges () =
  let sink, events = T.memory_sink () in
  let buffers = ref [] in
  T.with_sink ~clock:(fake_clock ()) ~task_clock sink (fun () ->
      T.with_span "batch" (fun () ->
          let spec = T.capture_spec () in
          (* Completion order 1 then 0 — absorb order must not care. *)
          T.capture_task spec ~task:1 ~domain:3
            ~into:(fun b -> buffers := (1, b) :: !buffers)
            (fun () ->
              T.with_span "work" (fun () -> T.count "done" 1);
              T.gauge "progress" 1.0);
          T.capture_task spec ~task:0 ~domain:2
            ~into:(fun b -> buffers := (0, b) :: !buffers)
            (fun () ->
              T.count "done" 1;
              T.gauge "progress" 0.5);
          List.iter
            (fun (_, b) -> T.absorb b)
            (List.sort (fun (a, _) (b, _) -> compare a b) !buffers)));
  let events = events () in
  match T.Trace.of_events events with
  | Error msg -> Alcotest.fail ("merged trace is structurally invalid: " ^ msg)
  | Ok trace ->
    (match trace.T.Trace.roots with
     | [ batch ] ->
       Alcotest.(check string) "one root: the batch span" "batch" batch.T.Trace.name;
       let tasks =
         List.filter (fun sp -> sp.T.Trace.name = "pool.task") batch.T.Trace.children
       in
       Alcotest.(check int) "both worker spans reparented under batch" 2
         (List.length tasks);
       Alcotest.(check (list (option int))) "absorbed in task-index order"
         [ Some 0; Some 1 ]
         (List.map
            (fun sp ->
              match List.assoc_opt "task" sp.T.Trace.attrs with
              | Some (T.Int i) -> Some i
              | _ -> None)
            tasks);
       let t1 = List.nth tasks 1 in
       Alcotest.(check (list string)) "nested worker span survives remap" [ "work" ]
         (List.map (fun s -> s.T.Trace.name) t1.T.Trace.children)
     | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
    (* Each worker increment lands in the trace once; gauges land
       task-order-last-wins. *)
    Alcotest.(check (option (float 1e-9))) "counter total merged once" (Some 2.0)
      (List.assoc_opt "done" trace.T.Trace.counter_totals);
    Alcotest.(check (option (float 1e-9))) "gauge from highest task index" (Some 1.0)
      (List.assoc_opt "progress" trace.T.Trace.gauge_last)

let test_capture_crash_delivers_buffer () =
  let sink, events = T.memory_sink () in
  let delivered = ref None in
  let raised =
    T.with_sink ~clock:(fake_clock ()) ~task_clock sink (fun () ->
        T.with_span "batch" (fun () ->
            let spec = T.capture_spec () in
            let r =
              match
                T.capture_task spec ~task:0 ~domain:1
                  ~into:(fun b -> delivered := Some b)
                  (fun () -> failwith "worker crash")
              with
              | () -> false
              | exception Failure _ -> true
            in
            (match !delivered with
             | Some b -> T.absorb b
             | None -> Alcotest.fail "buffer not delivered on crash");
            r))
  in
  Alcotest.(check bool) "exception re-raised through capture" true raised;
  match T.Trace.of_events (events ()) with
  | Error msg -> Alcotest.fail ("crashed capture broke the trace: " ^ msg)
  | Ok trace ->
    (match T.Trace.find_spans trace "pool.task" with
     | [ sp ] ->
       Alcotest.(check bool) "pool.task span closed" true (sp.T.Trace.duration <> None);
       Alcotest.(check bool) "error attribute recorded" true
         (List.mem_assoc "error" sp.T.Trace.end_attrs)
     | l -> Alcotest.failf "expected one pool.task span, got %d" (List.length l))

(* --- trace analysis --------------------------------------------------- *)

(* Two pooled TVLA campaigns on the real clock: each domain's busy time,
   summed over both batches, is shown as a share of both batches' wall
   time, so no domain can read over 100%. *)
let test_domain_busy_within_pooled_wall () =
  let masked = Sidechannel.Leakage.synthesize_masked Sidechannel.Leakage.Security_unaware in
  let sink, events = T.memory_sink () in
  T.with_sink sink (fun () ->
      Eda_util.Pool.with_pool ~num_domains:2 (fun pool ->
          for seed = 1 to 2 do
            ignore
              (Sidechannel.Leakage.tvla_campaign ~pool (Eda_util.Rng.create seed) masked
                 ~traces_per_class:300 ~noise_sigma:0.3)
          done));
  match T.Trace.of_events (events ()) with
  | Error msg -> Alcotest.fail msg
  | Ok trace ->
    Alcotest.(check bool) "two pooled batches" true
      (List.length (T.Trace.find_spans trace "pool.batch") >= 2);
    let rendered = Format.asprintf "%a" T.Trace.pp_domains trace in
    Alcotest.(check bool) "timeline header" true
      (contains rendered "per-domain busy time");
    let shares =
      List.filter_map
        (fun line ->
          match String.rindex_opt line '(' with
          | Some i when contains line "% of pooled wall)" ->
            Scanf.sscanf (String.sub line i (String.length line - i)) "(%d%%" Option.some
          | _ -> None)
        (String.split_on_char '\n' rendered)
    in
    Alcotest.(check bool) "a share per domain" true (shares <> []);
    List.iter
      (fun pct -> Alcotest.(check bool) (Printf.sprintf "%d%% <= 100%%" pct) true (pct <= 100))
      shares

(* root{a, b{c, d}} under the ticking fake clock: a/c/d last 1, b lasts
   5, root lasts 9. *)
let analysis_trace () =
  let (), events =
    collect (fun () ->
        T.with_span "root" (fun () ->
            T.with_span "a" (fun () -> ());
            T.with_span "b" (fun () ->
                T.with_span "c" (fun () -> ());
                T.with_span "d" (fun () -> ()))))
  in
  match T.Trace.of_events events with
  | Ok t -> t
  | Error msg -> Alcotest.fail msg

let test_critical_path () =
  let t = analysis_trace () in
  let path = T.Trace.critical_path t in
  Alcotest.(check (list string)) "descends the longest chain, ties earliest"
    [ "root"; "b"; "c" ]
    (List.map (fun sp -> sp.T.Trace.name) path);
  Alcotest.(check (list (float 1e-9))) "self times along the path" [ 3.0; 3.0; 1.0 ]
    (List.map T.Trace.self_time path);
  let rendered = Format.asprintf "%a" T.Trace.pp_critical_path t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("critical path mentions " ^ needle) true
        (contains rendered needle))
    [ "root"; "b"; "c"; "self" ]

let test_fold_stacks () =
  let t = analysis_trace () in
  Alcotest.(check (list (pair string (float 1e-9)))) "folded self times, path-sorted"
    [ ("root", 3.0); ("root;a", 1.0); ("root;b", 3.0); ("root;b;c", 1.0);
      ("root;b;d", 1.0) ]
    (T.Trace.fold_stacks t);
  let rendered = Format.asprintf "%a" T.Trace.pp_flame t in
  Alcotest.(check bool) "flame output in folded format" true
    (contains rendered "root;b;c 1000000")

let test_canonicalize () =
  let mk kind span parent name attrs =
    { T.kind; span; parent; name; time = 0.0; value = 0.0; attrs }
  in
  let events =
    [ mk T.Span_start 1 0 "pool.batch" [ ("label", T.Str "atpg"); ("domains", T.Int 8) ];
      mk T.Count 1 0 "pool.steals" [];
      mk T.Count 1 0 "pool.tasks" [];
      mk T.Span_end 1 0 "pool.batch"
        [ ("gc.alloc_words", T.Float 10.0); ("gc.major_words", T.Float 2.0) ] ]
  in
  let canon = T.Trace.canonicalize events in
  Alcotest.(check (list string)) "scheduling events dropped, work kept"
    [ "pool.batch"; "pool.tasks"; "pool.batch" ]
    (List.map (fun e -> e.T.name) canon);
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " stripped") false (List.mem_assoc k e.T.attrs))
        [ "domains"; "domain"; "gc.alloc_words"; "gc.major_words" ])
    canon;
  Alcotest.(check bool) "deterministic attrs survive" true
    (List.mem_assoc "label" (List.hd canon).T.attrs)

(* --- trace diff ------------------------------------------------------- *)

let span_pair ?(attrs = []) id name dur =
  [ { T.kind = T.Span_start; span = id; parent = 0; name; time = 0.0; value = 0.0;
      attrs = [] };
    { T.kind = T.Span_end; span = id; parent = 0; name; time = dur; value = dur; attrs } ]

let count_ev name v =
  { T.kind = T.Count; span = 0; parent = 0; name; time = 0.0; value = v; attrs = [] }

let gauge_ev name v =
  { T.kind = T.Gauge; span = 0; parent = 0; name; time = 0.0; value = v; attrs = [] }

let trace_of events =
  match T.Trace.of_events events with
  | Ok t -> t
  | Error msg -> Alcotest.fail msg

let test_diff_same_trace_clean () =
  let events =
    span_pair 1 "solve" 1.0 @ [ count_ev "conflicts" 100.0; gauge_ev "coverage" 0.9 ]
  in
  let d = T.Trace.diff_traces ~base:(trace_of events) (trace_of events) in
  Alcotest.(check int) "no regressions on identical traces" 0 d.T.Trace.regressions;
  Alcotest.(check bool) "every verdict unchanged" true
    (List.for_all (fun e -> e.T.Trace.diff_verdict = T.Trace.Unchanged) d.T.Trace.entries)

let test_diff_classification () =
  let base =
    trace_of
      (span_pair 1 "solve" 1.0 @ span_pair 2 "gone" 0.5
      @ [ count_ev "conflicts" 100.0; gauge_ev "coverage" 0.9 ])
  in
  let run =
    trace_of
      (span_pair 1 "solve" 2.0 @ span_pair 2 "fresh" 0.5
      @ [ count_ev "conflicts" 90.0; gauge_ev "coverage" 0.2 ])
  in
  let d = T.Trace.diff_traces ~threshold:0.25 ~base run in
  let verdict m =
    (List.find (fun e -> e.T.Trace.metric = m) d.T.Trace.entries).T.Trace.diff_verdict
  in
  Alcotest.(check bool) "2x slower span regresses" true
    (verdict "span:solve" = T.Trace.Regression);
  Alcotest.(check bool) "span only in base is removed" true
    (verdict "span:gone" = T.Trace.Removed);
  Alcotest.(check bool) "span only in run is added" true
    (verdict "span:fresh" = T.Trace.Added);
  Alcotest.(check bool) "counter within threshold unchanged" true
    (verdict "counter:conflicts" = T.Trace.Unchanged);
  Alcotest.(check bool) "gauge shift is direction-free" true
    (verdict "gauge:coverage" = T.Trace.Changed);
  Alcotest.(check int) "exactly one regression" 1 d.T.Trace.regressions;
  (* The same slowdown under min_duration filtering is ignored. *)
  let filtered = T.Trace.diff_traces ~min_duration:5.0 ~base run in
  Alcotest.(check int) "min_duration swallows small spans" 0
    filtered.T.Trace.regressions;
  (* Counter blowups are regressions too. *)
  let noisy = trace_of [ count_ev "conflicts" 100.0 ] in
  let worse = trace_of [ count_ev "conflicts" 200.0 ] in
  let d2 = T.Trace.diff_traces ~base:noisy worse in
  Alcotest.(check int) "counter regression counted" 1 d2.T.Trace.regressions;
  let d3 = T.Trace.diff_traces ~base:worse noisy in
  Alcotest.(check int) "improvement is not a regression" 0 d3.T.Trace.regressions;
  let rendered = Format.asprintf "%a" T.Trace.pp_diff d in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("diff output mentions " ^ needle) true
        (contains rendered needle))
    [ "span:solve"; "REGRESSION"; "1 regression(s)" ]

let test_diff_counter_directions () =
  (* Optimization-health counters invert the usual direction: a drop in
     session reuse or dropped faults means the incremental fast path
     stopped engaging — that IS the regression — while a rise is an
     improvement; sat.groups_retired and event_sim.transitions are
     neutral workload descriptors, while more event-sim pops are worse. *)
  let base =
    trace_of
      [ count_ev "atpg.session_reused" 100.0;
        count_ev "atpg.faults_dropped" 50.0;
        count_ev "sat.groups_retired" 40.0;
        count_ev "event_sim.transitions" 40.0;
        count_ev "event_sim.events" 100.0 ]
  in
  let run =
    trace_of
      [ count_ev "atpg.session_reused" 10.0;
        count_ev "atpg.faults_dropped" 200.0;
        count_ev "sat.groups_retired" 10.0;
        count_ev "event_sim.transitions" 10.0;
        count_ev "event_sim.events" 50.0 ]
  in
  let d = T.Trace.diff_traces ~base run in
  let verdict m =
    (List.find (fun e -> e.T.Trace.metric = m) d.T.Trace.entries).T.Trace.diff_verdict
  in
  Alcotest.(check bool) "session-reuse collapse is a regression" true
    (verdict "counter:atpg.session_reused" = T.Trace.Regression);
  Alcotest.(check bool) "more faults dropped is an improvement" true
    (verdict "counter:atpg.faults_dropped" = T.Trace.Improvement);
  Alcotest.(check bool) "groups retired is direction-free" true
    (verdict "counter:sat.groups_retired" = T.Trace.Changed);
  Alcotest.(check bool) "transitions are direction-free" true
    (verdict "counter:event_sim.transitions" = T.Trace.Changed);
  Alcotest.(check bool) "fewer event-sim pops is an improvement" true
    (verdict "counter:event_sim.events" = T.Trace.Improvement);
  Alcotest.(check int) "exactly the reuse collapse regresses" 1 d.T.Trace.regressions

(* --- budget utilization --------------------------------------------- *)

module Budget = Eda_util.Budget

let test_budget_utilization () =
  let b = Budget.create ~steps:10 () in
  Alcotest.(check (option (float 1e-9))) "fresh" (Some 0.0) (Budget.utilization b);
  Budget.tick ~cost:4 b;
  Alcotest.(check int) "consumed" 4 (Budget.consumed_steps b);
  Alcotest.(check (option (float 1e-9))) "40% used" (Some 0.4) (Budget.utilization b);
  Budget.tick ~cost:100 b;
  Alcotest.(check (option (float 1e-9))) "clamped at 1" (Some 1.0)
    (Budget.utilization b);
  (* Unlimited budgets have no meaningful utilization. *)
  let u = Budget.unlimited () in
  Budget.tick u;
  Alcotest.(check int) "steps still tracked" 1 (Budget.consumed_steps u);
  Alcotest.(check (option (float 1e-9))) "unlimited is None" None
    (Budget.utilization u)

let test_budget_sub_utilization_independent () =
  let root = Budget.create ~steps:100 () in
  let sub = Budget.sub ~steps:10 root in
  Budget.tick ~cost:5 sub;
  Alcotest.(check (option (float 1e-9))) "sub at 50%" (Some 0.5)
    (Budget.utilization sub);
  Alcotest.(check (option (float 1e-9))) "root at 5%" (Some 0.05)
    (Budget.utilization root)

let () =
  Alcotest.run "telemetry"
    [ ("spans",
       [ Alcotest.test_case "nesting" `Quick test_span_nesting;
         Alcotest.test_case "ids increase" `Quick test_span_ids_strictly_increasing;
         Alcotest.test_case "duration" `Quick test_span_duration_from_clock;
         Alcotest.test_case "exception safety" `Quick test_span_ends_on_exception ]);
      ("metrics",
       [ Alcotest.test_case "counter determinism" `Quick
           test_counter_aggregation_deterministic;
         Alcotest.test_case "gauge" `Quick test_gauge_keeps_last ]);
      ("null sink",
       [ Alcotest.test_case "adds no events" `Quick test_null_sink_adds_no_events;
         Alcotest.test_case "disabled span allocates nothing" `Quick
           test_disabled_span_allocates_nothing ]);
      ("clock & gc",
       [ Alcotest.test_case "monotonic wall clock" `Quick test_monotonic_clock;
         Alcotest.test_case "per-span gc deltas" `Quick test_gc_span_attrs ]);
      ("capture",
       [ Alcotest.test_case "absorb merges deterministically" `Quick
           test_capture_absorb_merges;
         Alcotest.test_case "crash delivers buffer" `Quick
           test_capture_crash_delivers_buffer ]);
      ("analysis",
       [ Alcotest.test_case "critical path" `Quick test_critical_path;
         Alcotest.test_case "fold stacks" `Quick test_fold_stacks;
         Alcotest.test_case "canonicalize" `Quick test_canonicalize;
         Alcotest.test_case "domain busy within pooled wall" `Quick
           test_domain_busy_within_pooled_wall ]);
      ("diff",
       [ Alcotest.test_case "same trace clean" `Quick test_diff_same_trace_clean;
         Alcotest.test_case "classification" `Quick test_diff_classification;
         Alcotest.test_case "counter directions" `Quick
           test_diff_counter_directions ]);
      ("jsonl",
       [ Alcotest.test_case "json value roundtrip" `Quick test_json_value_roundtrip;
         Alcotest.test_case "unicode roundtrip" `Quick test_json_unicode_roundtrip;
         Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
         Alcotest.test_case "trace roundtrip" `Quick test_jsonl_roundtrip_reconstructs;
         Alcotest.test_case "rejects malformed trace" `Quick test_trace_rejects_malformed;
         Alcotest.test_case "profile renders" `Quick test_profile_prints ]);
      ("budget",
       [ Alcotest.test_case "utilization" `Quick test_budget_utilization;
         Alcotest.test_case "sub-budget independence" `Quick
           test_budget_sub_utilization_independent ]) ]
