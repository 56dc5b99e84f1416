(** Zero-dependency tracing/metrics core. See the interface for the
    design rationale; the implementation notes that matter:

    - the active context is ambient *per domain* (domain-local storage)
      so engines carry no telemetry parameter; the disabled fast path is
      one DLS read and one match. Worker domains spawned by {!Pool} never
      inherit the installing domain's context; instead the pool installs
      a private *capture* context per task ({!capture_task}) whose buffer
      is merged back into the installing domain's trace after the join
      ({!absorb}) — every mutable registry is only ever touched from the
      domain that owns it, so there are no cross-domain data races;
    - span lifecycle is exception-safe: an escaping exception ends the
      span with an [error] attribute and re-raises;
    - counters/gauges/histograms aggregate in per-installation registries
      (histograms through {!Stats.moments}) in addition to streaming
      events, so totals are queryable without replaying the trace;
    - the default clock is a monotonized [Unix.gettimeofday] — wall
      seconds, never decreasing — because [Sys.time] is process CPU time
      and reads wrong on multicore runs. [?clock] still accepts fake
      clocks for deterministic tests. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type attrs = (string * value) list

type kind =
  | Span_start
  | Span_end
  | Point
  | Count
  | Gauge
  | Hist

type event = {
  kind : kind;
  span : int;
  parent : int;
  name : string;
  time : float;
  value : float;
  attrs : attrs;
}

type sink = {
  emit : event -> unit;
  flush : unit -> unit;
}

let null = { emit = ignore; flush = ignore }

let memory_sink () =
  let events = ref [] in
  ( { emit = (fun e -> events := e :: !events); flush = ignore },
    fun () -> List.rev !events )

(* Default clock: wall time forced non-decreasing (gettimeofday may step
   backwards under NTP adjustment; a negative span duration would poison
   every downstream profile). One closure per installation — the ref is
   confined to the installing domain, like the rest of the ctx. *)
let monotonic_clock () =
  let last = ref Float.neg_infinity in
  fun () ->
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

(* GC cost model shared by per-span deltas and the bench harness:
   allocated words = minor + major - promoted (the double-count-free
   total), plus the major-heap share. [Gc.counters] — not [quick_stat],
   whose copies of these counters only refresh at collection points on
   OCaml 5 — reads the live per-domain allocation counters without
   forcing a collection. *)
type alloc = {
  alloc_words : float;
  major_words : float;
}

let alloc_snapshot () =
  let minor, promoted, major = Gc.counters () in
  { alloc_words = minor +. major -. promoted; major_words = major }

let alloc_since before =
  let now = alloc_snapshot () in
  { alloc_words = now.alloc_words -. before.alloc_words;
    major_words = now.major_words -. before.major_words }

type ctx = {
  sink : sink;
  clock : unit -> float;
  task_clock : int -> unit -> float;  (* clock factory for pooled task captures *)
  gc : bool;  (* attach per-span allocation deltas to Span_end events *)
  mutable next_id : int;
  (* (span id, start time, alloc words at start, major words at start),
     innermost first; the GC marks are 0 when [gc] is off *)
  mutable stack : (int * float * float * float) list;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  moments : (string, Stats.moments) Hashtbl.t;
}

(* One ambient context per domain. A plain global ref would be shared by
   every domain in OCaml 5, and the ctx registries (Hashtbl, span stack)
   are not thread-safe; domain-local storage keeps the ambient-context
   convenience while confining each ctx to the domain that installed it. *)
let current : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_current () = Domain.DLS.get current

let set_current v = Domain.DLS.set current v

let active () = get_current () <> None

let enclosing c = match c.stack with [] -> 0 | (id, _, _, _) :: _ -> id

(* --- recording --------------------------------------------------------- *)

let now () = match get_current () with None -> 0.0 | Some c -> c.clock ()

let with_span ?(attrs = []) name f =
  match get_current () with
  | None -> f ()
  | Some c ->
    let id = c.next_id in
    c.next_id <- id + 1;
    let parent = enclosing c in
    let t0 = c.clock () in
    c.sink.emit { kind = Span_start; span = id; parent; name; time = t0; value = 0.0; attrs };
    let a0, m0 =
      if c.gc then
        let s = alloc_snapshot () in
        (s.alloc_words, s.major_words)
      else (0.0, 0.0)
    in
    c.stack <- (id, t0, a0, m0) :: c.stack;
    let finish error =
      (* Pop down to (and including) this span: a leaked child cannot
         corrupt the ancestors' bookkeeping. *)
      let rec pop = function
        | (i, start, a, mw) :: rest ->
          c.stack <- rest;
          if i = id then Some (start, a, mw) else pop rest
        | [] -> None
      in
      let popped = pop c.stack in
      let gc_attrs =
        match popped with
        | Some (_, a, mw) when c.gc ->
          let s = alloc_snapshot () in
          [ ("gc.alloc_words", Float (s.alloc_words -. a));
            ("gc.major_words", Float (s.major_words -. mw)) ]
        | _ -> []
      in
      let t1 = c.clock () in
      c.sink.emit
        { kind = Span_end;
          span = id;
          parent;
          name;
          time = t1;
          value = (match popped with Some (s, _, _) -> t1 -. s | None -> 0.0);
          attrs =
            gc_attrs @ (match error with None -> [] | Some msg -> [ ("error", Str msg) ]) }
    in
    (match f () with
     | v ->
       finish None;
       v
     | exception e ->
       finish (Some (Printexc.to_string e));
       raise e)

(* [?time] lets the pool stamp its batch-level bookkeeping events with a
   single shared clock reading, keeping the caller's clock-read count —
   and so the whole merged trace under a fake clock — independent of how
   many events the batch happens to emit. *)
let note ?time ?(attrs = []) name =
  match get_current () with
  | None -> ()
  | Some c ->
    let time = match time with Some t -> t | None -> c.clock () in
    c.sink.emit
      { kind = Point; span = enclosing c; parent = 0; name; time; value = 0.0; attrs }

let count ?time name n =
  match get_current () with
  | None -> ()
  | Some c ->
    (match Hashtbl.find_opt c.counters name with
     | Some r -> r := !r + n
     | None -> Hashtbl.replace c.counters name (ref n));
    if n <> 0 then begin
      let time = match time with Some t -> t | None -> c.clock () in
      c.sink.emit
        { kind = Count;
          span = enclosing c;
          parent = 0;
          name;
          time;
          value = Float.of_int n;
          attrs = [] }
    end

let gauge ?time name v =
  match get_current () with
  | None -> ()
  | Some c ->
    Hashtbl.replace c.gauges name v;
    let time = match time with Some t -> t | None -> c.clock () in
    c.sink.emit
      { kind = Gauge; span = enclosing c; parent = 0; name; time; value = v; attrs = [] }

let observe name x =
  match get_current () with
  | None -> ()
  | Some c ->
    let m =
      match Hashtbl.find_opt c.moments name with
      | Some m -> m
      | None ->
        let m = Stats.moments_create () in
        Hashtbl.replace c.moments name m;
        m
    in
    Stats.moments_add m x

(* --- registry access ---------------------------------------------------- *)

let counter_total name =
  match get_current () with
  | None -> 0
  | Some c -> (match Hashtbl.find_opt c.counters name with Some r -> !r | None -> 0)

let counter_totals () =
  match get_current () with
  | None -> []
  | Some c ->
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) c.counters []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let gauge_last name =
  match get_current () with None -> None | Some c -> Hashtbl.find_opt c.gauges name

let observed name =
  match get_current () with
  | None -> None
  | Some c ->
    Option.map
      (fun m ->
        (m.Stats.n, Stats.moments_mean m, sqrt (Stats.moments_variance m)))
      (Hashtbl.find_opt c.moments name)

let observed_range name =
  match get_current () with
  | None -> None
  | Some c ->
    (match Hashtbl.find_opt c.moments name with
     | Some m when m.Stats.n > 0 -> Some (m.Stats.vmin, m.Stats.vmax)
     | _ -> None)

(* --- installation ------------------------------------------------------- *)

let emit_hist_summaries c =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) c.moments []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (name, m) ->
         let mean = Stats.moments_mean m in
         c.sink.emit
           { kind = Hist;
             span = 0;
             parent = 0;
             name;
             time = c.clock ();
             value = mean;
             attrs =
               [ ("n", Int m.Stats.n);
                 ("mean", Float mean);
                 ("std", Float (sqrt (Stats.moments_variance m)));
                 ("min", Float m.Stats.vmin);
                 ("max", Float m.Stats.vmax) ] })

let with_sink ?clock ?task_clock ?(gc = false) sink f =
  if sink == null then f ()
  else begin
    let clock = match clock with Some c -> c | None -> monotonic_clock () in
    (* Per-task clocks default to fresh monotonic closures so concurrent
       captures never share a mutable [last] ref across domains. Tests
       override this with deterministic per-index fake clocks. *)
    let task_clock =
      match task_clock with Some f -> f | None -> fun _ -> monotonic_clock ()
    in
    let ctx =
      { sink;
        clock;
        task_clock;
        gc;
        next_id = 1;
        stack = [];
        counters = Hashtbl.create 16;
        gauges = Hashtbl.create 16;
        moments = Hashtbl.create 16 }
    in
    let saved = get_current () in
    set_current (Some ctx);
    Fun.protect
      ~finally:(fun () ->
        emit_hist_summaries ctx;
        sink.flush ();
        set_current saved)
      f
  end

(* --- cross-domain capture ----------------------------------------------- *)

(* A worker buffer: everything a single pooled task recorded, frozen at
   task end. Registry snapshots are sorted by name so the merge is
   independent of Hashtbl iteration order. *)
type buffer = {
  b_task : int;
  b_events : event list;  (* in emission order *)
  b_span_count : int;  (* ids used by the capture ctx: 1 .. b_span_count *)
  b_counters : (string * int) list;  (* name-sorted totals *)
  b_gauges : (string * float) list;  (* name-sorted last values *)
  b_moments : (string * Stats.moments) list;  (* name-sorted accumulators *)
}

(* What a worker needs from the installing domain's ctx to build its
   capture ctx: the task-clock factory and the gc flag. Immutable, so
   safe to share across domains by construction. *)
type worker_spec = {
  ws_task_clock : int -> unit -> float;
  ws_gc : bool;
}

let capture_spec () =
  match get_current () with
  | None -> None
  | Some c -> Some { ws_task_clock = c.task_clock; ws_gc = c.gc }

let capture_task spec ~task ~domain ~into f =
  match spec with
  | None -> f ()
  | Some spec ->
    let sink, drain = memory_sink () in
    let ctx =
      { sink;
        clock = spec.ws_task_clock task;
        task_clock = spec.ws_task_clock;
        gc = spec.ws_gc;
        next_id = 1;
        stack = [];
        counters = Hashtbl.create 8;
        gauges = Hashtbl.create 8;
        moments = Hashtbl.create 8 }
    in
    let saved = get_current () in
    set_current (Some ctx);
    Fun.protect
      ~finally:(fun () ->
        set_current saved;
        let sorted_assoc fold tbl =
          fold tbl |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        into
          { b_task = task;
            b_events = drain ();
            b_span_count = ctx.next_id - 1;
            b_counters =
              sorted_assoc
                (fun t -> Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t [])
                ctx.counters;
            b_gauges =
              sorted_assoc
                (fun t -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])
                ctx.gauges;
            b_moments =
              sorted_assoc
                (fun t -> Hashtbl.fold (fun k m acc -> (k, m) :: acc) t [])
                ctx.moments })
      (fun () ->
        with_span "pool.task"
          ~attrs:[ ("task", Int task); ("domain", Int domain) ]
          f)

let absorb buf =
  match get_current () with
  | None -> ()
  | Some c ->
    (* Remap the buffer's span ids 1..k onto a fresh contiguous block of
       the caller's id space, and reparent the buffer's roots (parent 0)
       under the caller's enclosing span — normally the pool.batch span
       that dispatched the task. *)
    let base = c.next_id - 1 in
    c.next_id <- c.next_id + buf.b_span_count;
    let here = enclosing c in
    let remap id = if id = 0 then 0 else id + base in
    let reparent id = if id = 0 then here else remap id in
    List.iter
      (fun e ->
        c.sink.emit
          { e with
            span = (match e.kind with
                    | Span_start | Span_end -> remap e.span
                    | Point | Count | Gauge | Hist -> reparent e.span);
            parent = (match e.kind with
                      | Span_start | Span_end -> reparent e.parent
                      | Point | Count | Gauge | Hist -> e.parent) })
      buf.b_events;
    (* Registries merge once from the frozen totals — the re-emitted
       Count events above are raw stream data and must not double-bump
       the caller's counters, so they bypass [count]. *)
    List.iter
      (fun (name, n) ->
        match Hashtbl.find_opt c.counters name with
        | Some r -> r := !r + n
        | None -> Hashtbl.replace c.counters name (ref n))
      buf.b_counters;
    List.iter (fun (name, v) -> Hashtbl.replace c.gauges name v) buf.b_gauges;
    List.iter
      (fun (name, m) ->
        match Hashtbl.find_opt c.moments name with
        | Some prev -> Hashtbl.replace c.moments name (Stats.moments_merge prev m)
        | None -> Hashtbl.replace c.moments name (Stats.moments_merge (Stats.moments_create ()) m))
      buf.b_moments

(* --- JSON --------------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | JBool of bool
    | JInt of int
    | JFloat of float
    | JStr of string
    | JList of t list
    | JObj of (string * t) list

  (* Strings are emitted as pure ASCII: control characters and every
     code point above U+007F become spec-compliant \uXXXX escapes (a
     surrogate pair beyond the BMP), so the JSONL survives strict
     parsers regardless of transport encoding. Input is decoded as
     UTF-8; malformed sequences degrade to U+FFFD per offending byte
     rather than corrupting the emitted document. *)
  let add_u16 buf code = Buffer.add_string buf (Printf.sprintf "\\u%04x" code)

  let add_code_point buf cp =
    if cp <= 0xFFFF then add_u16 buf cp
    else begin
      let v = cp - 0x10000 in
      add_u16 buf (0xD800 lor (v lsr 10));
      add_u16 buf (0xDC00 lor (v land 0x3FF))
    end

  (* Decode one UTF-8 sequence starting at [i]; returns (code point,
     bytes consumed), or (0xFFFD, 1) when the bytes are not UTF-8. *)
  let decode_utf8 s i =
    let n = String.length s in
    let byte k = Char.code s.[k] in
    let cont k = k < n && byte k land 0xC0 = 0x80 in
    let b0 = byte i in
    if b0 < 0x80 then (b0, 1)
    else if b0 land 0xE0 = 0xC0 && cont (i + 1) then begin
      let cp = ((b0 land 0x1F) lsl 6) lor (byte (i + 1) land 0x3F) in
      if cp >= 0x80 then (cp, 2) else (0xFFFD, 1) (* overlong *)
    end
    else if b0 land 0xF0 = 0xE0 && cont (i + 1) && cont (i + 2) then begin
      let cp =
        ((b0 land 0x0F) lsl 12)
        lor ((byte (i + 1) land 0x3F) lsl 6)
        lor (byte (i + 2) land 0x3F)
      in
      if cp >= 0x800 && not (cp >= 0xD800 && cp <= 0xDFFF) then (cp, 3)
      else (0xFFFD, 1) (* overlong or stray surrogate *)
    end
    else if b0 land 0xF8 = 0xF0 && cont (i + 1) && cont (i + 2) && cont (i + 3) then begin
      let cp =
        ((b0 land 0x07) lsl 18)
        lor ((byte (i + 1) land 0x3F) lsl 12)
        lor ((byte (i + 2) land 0x3F) lsl 6)
        lor (byte (i + 3) land 0x3F)
      in
      if cp >= 0x10000 && cp <= 0x10FFFF then (cp, 4) else (0xFFFD, 1)
    end
    else (0xFFFD, 1)

  let escape buf s =
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
       | '"' -> Buffer.add_string buf "\\\""; incr i
       | '\\' -> Buffer.add_string buf "\\\\"; incr i
       | '\n' -> Buffer.add_string buf "\\n"; incr i
       | '\r' -> Buffer.add_string buf "\\r"; incr i
       | '\t' -> Buffer.add_string buf "\\t"; incr i
       | c when Char.code c < 0x20 ->
         add_u16 buf (Char.code c);
         incr i
       | c when Char.code c < 0x80 -> Buffer.add_char buf c; incr i
       | _ ->
         let cp, used = decode_utf8 s !i in
         add_code_point buf cp;
         i := !i + used)
    done

  (* Non-finite values have no JSON number form; [null] round-trips to
     [nan]. Integral floats keep a ".0" so the parser preserves the
     int/float distinction; "%.17g" round-trips every other double. *)
  let float_repr v =
    if Float.is_nan v || Float.abs v = Float.infinity then "null"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.17g" v

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | JBool b -> Buffer.add_string buf (if b then "true" else "false")
    | JInt n -> Buffer.add_string buf (string_of_int n)
    | JFloat v -> Buffer.add_string buf (float_repr v)
    | JStr s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | JList xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | JObj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 128 in
    write buf t;
    Buffer.contents buf

  exception Bad of string

  (* Append one code point as UTF-8 (input validated by the caller). *)
  let buffer_add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end

  (* Minimal recursive-descent parser for standard JSON as this module
     emits it; \uXXXX escapes cover the full Unicode range (surrogate
     pairs included) and decode to UTF-8 bytes. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect ch =
      if peek () = Some ch then advance () else fail (Printf.sprintf "expected '%c'" ch)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                 advance ();
                 let read_u16 () =
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   if not (String.for_all (function
                             | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                             | _ -> false) hex)
                   then fail "bad \\u escape";
                   pos := !pos + 4;
                   int_of_string ("0x" ^ hex)
                 in
                 let code = read_u16 () in
                 if code >= 0xD800 && code <= 0xDBFF then begin
                   (* High surrogate: a low surrogate must follow. *)
                   if
                     !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let low = read_u16 () in
                     if low < 0xDC00 || low > 0xDFFF then fail "unpaired high surrogate";
                     buffer_add_utf8 buf
                       (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
                   end
                   else fail "unpaired high surrogate"
                 end
                 else if code >= 0xDC00 && code <= 0xDFFF then fail "unpaired low surrogate"
                 else buffer_add_utf8 buf code
               | _ -> fail "unknown escape");
            go ()
          | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
        match float_of_string_opt text with
        | Some v -> JFloat v
        | None -> fail "malformed number"
      else
        match int_of_string_opt text with
        | Some v -> JInt v
        | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> JStr (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          JObj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          JObj (List.rev !fields)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          JList []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          JList (List.rev !items)
        end
      | Some 't' -> literal "true" (JBool true)
      | Some 'f' -> literal "false" (JBool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg
end

let kind_name = function
  | Span_start -> "span_start"
  | Span_end -> "span_end"
  | Point -> "event"
  | Count -> "count"
  | Gauge -> "gauge"
  | Hist -> "hist"

let kind_of_name = function
  | "span_start" -> Some Span_start
  | "span_end" -> Some Span_end
  | "event" -> Some Point
  | "count" -> Some Count
  | "gauge" -> Some Gauge
  | "hist" -> Some Hist
  | _ -> None

let json_of_value = function
  | Bool b -> Json.JBool b
  | Int n -> Json.JInt n
  | Float v -> Json.JFloat v
  | Str s -> Json.JStr s

let value_of_json = function
  | Json.JBool b -> Ok (Bool b)
  | Json.JInt n -> Ok (Int n)
  | Json.JFloat v -> Ok (Float v)
  | Json.JStr s -> Ok (Str s)
  | Json.Null | Json.JList _ | Json.JObj _ -> Error "unsupported attribute value"

let event_to_json e =
  Json.JObj
    ([ ("kind", Json.JStr (kind_name e.kind));
       ("span", Json.JInt e.span);
       ("parent", Json.JInt e.parent);
       ("name", Json.JStr e.name);
       ("t", Json.JFloat e.time);
       ("v", Json.JFloat e.value) ]
    @
    if e.attrs = [] then []
    else [ ("attrs", Json.JObj (List.map (fun (k, v) -> (k, json_of_value v)) e.attrs)) ])

let event_of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Json.JObj fields ->
    let find key = List.assoc_opt key fields in
    let* kind =
      match find "kind" with
      | Some (Json.JStr s) ->
        (match kind_of_name s with
         | Some k -> Ok k
         | None -> Error (Printf.sprintf "unknown event kind %S" s))
      | Some _ -> Error "field \"kind\" must be a string"
      | None -> Error "missing field \"kind\""
    in
    let int_field key =
      match find key with
      | Some (Json.JInt n) -> Ok n
      | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)
      | None -> Error (Printf.sprintf "missing field %S" key)
    in
    let float_field key =
      match find key with
      | Some (Json.JFloat v) -> Ok v
      | Some (Json.JInt n) -> Ok (Float.of_int n)
      | Some Json.Null -> Ok Float.nan
      | Some _ -> Error (Printf.sprintf "field %S must be a number" key)
      | None -> Error (Printf.sprintf "missing field %S" key)
    in
    let* span = int_field "span" in
    let* parent = int_field "parent" in
    let* name =
      match find "name" with
      | Some (Json.JStr s) -> Ok s
      | Some _ -> Error "field \"name\" must be a string"
      | None -> Error "missing field \"name\""
    in
    let* time = float_field "t" in
    let* value = float_field "v" in
    let* attrs =
      match find "attrs" with
      | None -> Ok []
      | Some (Json.JObj kvs) ->
        List.fold_left
          (fun acc (k, jv) ->
            let* acc = acc in
            let* v = value_of_json jv in
            Ok ((k, v) :: acc))
          (Ok []) kvs
        |> Result.map List.rev
      | Some _ -> Error "field \"attrs\" must be an object"
    in
    Ok { kind; span; parent; name; time; value; attrs }
  | _ -> Error "event line is not a JSON object"

let event_to_line e = Json.to_string (event_to_json e)

let event_of_line line =
  match Json.parse line with
  | Error msg -> Error msg
  | Ok json -> event_of_json json

let jsonl_sink oc =
  { emit =
      (fun e ->
        output_string oc (event_to_line e);
        output_char oc '\n');
    flush = (fun () -> flush oc) }

(* --- trace reconstruction ---------------------------------------------- *)

module Trace = struct
  type span = {
    id : int;
    parent : int;
    name : string;
    start : float;
    mutable duration : float option;
    attrs : attrs;
    mutable end_attrs : attrs;
    mutable children : span list;
    mutable counters : (string * float) list;
    mutable gauges : (string * float) list;
    mutable notes : (string * attrs) list;
  }

  type t = {
    roots : span list;
    span_count : int;
    event_count : int;
    counter_totals : (string * float) list;
    gauge_last : (string * float) list;
    hists : (string * attrs) list;
  }

  let bump assoc name v =
    match List.assoc_opt name assoc with
    | Some prev -> (name, prev +. v) :: List.remove_assoc name assoc
    | None -> (name, v) :: assoc

  let set assoc name v = (name, v) :: List.remove_assoc name assoc

  let of_events events =
    let spans : (int, span) Hashtbl.t = Hashtbl.create 64 in
    let roots = ref [] in
    let counter_totals = ref [] in
    let gauge_last = ref [] in
    let hists = ref [] in
    let event_count = ref 0 in
    let error = ref None in
    let fail msg = if !error = None then error := Some msg in
    let owner ev_kind id =
      if id = 0 then None
      else
        match Hashtbl.find_opt spans id with
        | Some sp -> Some sp
        | None ->
          fail (Printf.sprintf "%s references span %d which never started" ev_kind id);
          None
    in
    List.iter
      (fun e ->
        if !error = None then begin
          incr event_count;
          match e.kind with
          | Span_start ->
            if Hashtbl.mem spans e.span then
              fail (Printf.sprintf "span %d started twice" e.span)
            else begin
              let sp =
                { id = e.span;
                  parent = e.parent;
                  name = e.name;
                  start = e.time;
                  duration = None;
                  attrs = e.attrs;
                  end_attrs = [];
                  children = [];
                  counters = [];
                  gauges = [];
                  notes = [] }
              in
              Hashtbl.replace spans e.span sp;
              match owner "span_start" e.parent with
              | Some parent -> parent.children <- sp :: parent.children
              | None -> if e.parent = 0 then roots := sp :: !roots
            end
          | Span_end ->
            (match owner "span_end" e.span with
             | Some sp ->
               if sp.duration <> None then fail (Printf.sprintf "span %d ended twice" e.span)
               else begin
                 sp.duration <- Some e.value;
                 sp.end_attrs <- e.attrs
               end
             | None -> ())
          | Count ->
            counter_totals := bump !counter_totals e.name e.value;
            (match owner "count" e.span with
             | Some sp -> sp.counters <- bump sp.counters e.name e.value
             | None -> ())
          | Gauge ->
            gauge_last := set !gauge_last e.name e.value;
            (match owner "gauge" e.span with
             | Some sp -> sp.gauges <- set sp.gauges e.name e.value
             | None -> ())
          | Point ->
            (match owner "event" e.span with
             | Some sp -> sp.notes <- (e.name, e.attrs) :: sp.notes
             | None -> ())
          | Hist -> hists := (e.name, e.attrs) :: !hists
        end)
      events;
    match !error with
    | Some msg -> Error msg
    | None ->
      let rec finalize sp =
        sp.children <- List.rev sp.children;
        sp.counters <- List.rev sp.counters;
        sp.gauges <- List.rev sp.gauges;
        sp.notes <- List.rev sp.notes;
        List.iter finalize sp.children
      in
      let roots = List.rev !roots in
      List.iter finalize roots;
      Ok
        { roots;
          span_count = Hashtbl.length spans;
          event_count = !event_count;
          counter_totals = List.sort compare (List.rev !counter_totals);
          gauge_last = List.rev !gauge_last;
          hists = List.rev !hists }

  let of_string text =
    let lines = String.split_on_char '\n' text in
    let ( let* ) = Result.bind in
    let* events =
      List.fold_left
        (fun acc (lineno, line) ->
          let* acc = acc in
          if String.trim line = "" then Ok acc
          else
            match event_of_line line with
            | Ok e -> Ok (e :: acc)
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
        (Ok [])
        (List.mapi (fun i l -> (i + 1, l)) lines)
      |> Result.map List.rev
    in
    of_events events

  let of_file path =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> of_string text
    | exception Sys_error msg -> Error msg

  let find_spans t name =
    let acc = ref [] in
    let rec go sp =
      if sp.name = name then acc := sp :: !acc;
      List.iter go sp.children
    in
    List.iter go t.roots;
    List.rev !acc

  (* --- profile printing ------------------------------------------------ *)

  let pp_value fmt = function
    | Bool b -> Format.fprintf fmt "%b" b
    | Int n -> Format.fprintf fmt "%d" n
    | Float v -> Format.fprintf fmt "%g" v
    | Str s -> Format.fprintf fmt "%s" s

  let pp_attrs fmt attrs =
    List.iteri
      (fun i (k, v) ->
        Format.fprintf fmt "%s%s=%a" (if i > 0 then ", " else "") k pp_value v)
      attrs

  let pretty_duration d =
    if d >= 1.0 then Printf.sprintf "%8.3f s " d
    else if d >= 1e-3 then Printf.sprintf "%8.3f ms" (d *. 1e3)
    else Printf.sprintf "%8.1f us" (d *. 1e6)

  let pp_metric_value fmt v =
    if Float.is_integer v && Float.abs v < 1e15 then Format.fprintf fmt "%.0f" v
    else Format.fprintf fmt "%g" v

  let pp_profile fmt t =
    Format.fprintf fmt "trace: %d event(s), %d span(s)@." t.event_count t.span_count;
    let rec pp_span depth sp =
      let indent = String.make (2 * depth) ' ' in
      let label =
        if sp.attrs = [] then sp.name
        else Format.asprintf "%s (%a)" sp.name pp_attrs sp.attrs
      in
      let time =
        match sp.duration with
        | Some d -> pretty_duration d
        | None -> "   (open)  "
      in
      Format.fprintf fmt "%s%-*s %s@." indent (max 1 (56 - (2 * depth))) label time;
      List.iter
        (fun (name, v) ->
          Format.fprintf fmt "%s  . %s = %a@." indent name pp_metric_value v)
        sp.counters;
      List.iter
        (fun (name, v) ->
          Format.fprintf fmt "%s  ~ %s = %a@." indent name pp_metric_value v)
        sp.gauges;
      List.iter
        (fun (name, attrs) ->
          if attrs = [] then Format.fprintf fmt "%s  ! %s@." indent name
          else Format.fprintf fmt "%s  ! %s (%a)@." indent name pp_attrs attrs)
        sp.notes;
      List.iter (pp_span (depth + 1)) sp.children
    in
    List.iter (pp_span 0) t.roots;
    if t.counter_totals <> [] then begin
      Format.fprintf fmt "@.counter totals:@.";
      List.iter
        (fun (name, v) -> Format.fprintf fmt "  %-40s %a@." name pp_metric_value v)
        t.counter_totals
    end;
    if t.gauge_last <> [] then begin
      Format.fprintf fmt "@.gauges (last value):@.";
      List.iter
        (fun (name, v) -> Format.fprintf fmt "  %-40s %g@." name v)
        (List.sort compare t.gauge_last)
    end;
    if t.hists <> [] then begin
      Format.fprintf fmt "@.histograms:@.";
      List.iter
        (fun (name, attrs) -> Format.fprintf fmt "  %-40s %a@." name pp_attrs attrs)
        (List.sort compare t.hists)
    end

  (* --- analysis --------------------------------------------------------- *)

  let duration sp = match sp.duration with Some d -> d | None -> 0.0

  (* Self time: a span's duration minus its children's. Clamped at zero —
     overlapping child intervals (merged worker spans run concurrently in
     wall time) can sum past the parent. *)
  let self_time sp =
    let kids = List.fold_left (fun acc ch -> acc +. duration ch) 0.0 sp.children in
    Float.max 0.0 (duration sp -. kids)

  (* Critical path: from the longest root, repeatedly descend into the
     longest child. Ties break to the earliest span in start order, so
     the path is deterministic on deterministic traces. *)
  let critical_path t =
    let widest = function
      | [] -> None
      | first :: rest ->
        Some
          (List.fold_left
             (fun best sp -> if duration sp > duration best then sp else best)
             first rest)
    in
    match widest t.roots with
    | None -> []
    | Some root ->
      let rec go sp acc =
        match widest sp.children with
        | None -> List.rev (sp :: acc)
        | Some ch -> go ch (sp :: acc)
      in
      go root []

  let pp_critical_path fmt t =
    match critical_path t with
    | [] -> Format.fprintf fmt "critical path: (no spans)@."
    | path ->
      let total = duration (List.hd path) in
      Format.fprintf fmt "critical path (%s total):@."
        (String.trim (pretty_duration total));
      List.iteri
        (fun depth sp ->
          Format.fprintf fmt "%s%-*s %s  self %s@."
            (String.make (2 * depth) ' ')
            (max 1 (48 - (2 * depth)))
            sp.name
            (pretty_duration (duration sp))
            (String.trim (pretty_duration (self_time sp))))
        path

  (* Folded stacks: one line per distinct root-to-span name path, value =
     total self time. The format Brendan Gregg's flamegraph.pl and every
     speedscope-style viewer ingest directly. *)
  let fold_stacks t =
    let acc : (string, float) Hashtbl.t = Hashtbl.create 64 in
    let rec go prefix sp =
      let path = if prefix = "" then sp.name else prefix ^ ";" ^ sp.name in
      let prev = Option.value (Hashtbl.find_opt acc path) ~default:0.0 in
      Hashtbl.replace acc path (prev +. self_time sp);
      List.iter (go path) sp.children
    in
    List.iter (go "") t.roots;
    Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let pp_flame fmt t =
    List.iter
      (fun (path, self) ->
        Format.fprintf fmt "%s %.0f@." path (Float.max 0.0 (self *. 1e6)))
      (fold_stacks t)

  (* Per-domain busy accounting from merged pool.task spans:
     (domain, tasks run, busy seconds), sorted by domain id. *)
  let domain_timeline t =
    let tbl : (int, int * float) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun sp ->
        match List.assoc_opt "domain" sp.attrs with
        | Some (Int d) ->
          let tasks, busy =
            Option.value (Hashtbl.find_opt tbl d) ~default:(0, 0.0)
          in
          Hashtbl.replace tbl d (tasks + 1, busy +. duration sp)
        | _ -> ())
      (find_spans t "pool.task");
    Hashtbl.fold (fun d (tasks, busy) acc -> (d, tasks, busy) :: acc) tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

  let pp_domains fmt t =
    match domain_timeline t with
    | [] -> ()
    | rows ->
      let wall =
        List.fold_left
          (fun acc sp -> Float.max acc (duration sp))
          0.0 (find_spans t "pool.batch")
      in
      Format.fprintf fmt "@.per-domain busy time (pool.task spans):@.";
      List.iter
        (fun (d, tasks, busy) ->
          if wall > 0.0 then
            Format.fprintf fmt "  domain %-3d %4d task(s)  busy %s (%.0f%% of longest batch)@."
              d tasks (pretty_duration busy)
              (100.0 *. busy /. wall)
          else
            Format.fprintf fmt "  domain %-3d %4d task(s)  busy %s@." d tasks
              (pretty_duration busy))
        rows

  (* --- canonical projection -------------------------------------------- *)

  (* Scheduling telemetry is honest about where work ran, which is
     exactly what varies with pool size; the canonical projection drops
     it so deterministic workloads compare bit-identical at 1/2/8
     domains. pool.tasks counts survive (the executed task set is
     pool-size-independent); placement attrs and GC deltas do not. *)
  let scheduling_event (e : event) =
    match e.name with
    | "pool.steals" | "pool.utilization" | "pool.domain" -> true
    | _ -> false

  let nondeterministic_attr (k, _) =
    match k with
    | "domain" | "domains" | "slot" | "busy_s" | "gc.alloc_words" | "gc.major_words" ->
      true
    | _ -> false

  let canonicalize events =
    List.filter_map
      (fun (e : event) ->
        if scheduling_event e then None
        else
          Some
            { e with attrs = List.filter (fun a -> not (nondeterministic_attr a)) e.attrs })
      events

  (* --- trace diff ------------------------------------------------------- *)

  type verdict =
    | Regression
    | Improvement
    | Unchanged
    | Added
    | Removed
    | Changed

  type diff_entry = {
    metric : string;
    base_value : float option;
    run_value : float option;
    diff_verdict : verdict;
  }

  type diff = {
    entries : diff_entry list;
    regressions : int;
  }

  let span_totals t =
    let tbl : (string, float) Hashtbl.t = Hashtbl.create 32 in
    let rec go sp =
      let prev = Option.value (Hashtbl.find_opt tbl sp.name) ~default:0.0 in
      Hashtbl.replace tbl sp.name (prev +. duration sp);
      List.iter go sp.children
    in
    List.iter go t.roots;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let diff_traces ?(threshold = 0.25) ?(min_duration = 0.0) ~base run =
    (* Symmetric relative test — avoids dividing by zero and treats the
       two traces even-handedly. Metrics are assumed nonnegative (span
       seconds, counter totals); exact equality always passes. *)
    let within b r =
      b = r || (r <= b *. (1.0 +. threshold) && b <= r *. (1.0 +. threshold))
    in
    let classify direction b r =
      if within b r then Unchanged
      else
        match direction with
        | `Neutral -> Changed
        | `Lower_better -> if r > b then Regression else Improvement
        | `Higher_better -> if r < b then Regression else Improvement
    in
    (* Per-metric improvement direction. Spans and most counters measure
       work, so bigger is worse; a handful of counters measure how well
       an optimization engaged — a drop there means the fast path
       stopped firing and IS the regression; a few are neutral workload
       descriptors. Gauges have no generic direction. *)
    let counter_direction = function
      | "atpg.session_reused" | "atpg.faults_dropped" | "atpg.covered_by_simulation"
      | "synth.gates_removed" ->
        `Higher_better
      (* gates_added is workload-shaped: masking passes grow the netlist
         on purpose, so neither direction is a regression per se; so is
         the number of net transitions a stimulus causes. Event-sim pops
         and storms keep the default: more is worse. *)
      | "sat.groups_retired" | "synth.gates_added" | "event_sim.transitions" -> `Neutral
      | _ -> `Lower_better
    in
    let join prefix ~direction ~keep bs rs =
      let names = List.sort_uniq compare (List.map fst bs @ List.map fst rs) in
      List.filter_map
        (fun name ->
          let metric = prefix ^ name in
          match (List.assoc_opt name bs, List.assoc_opt name rs) with
          | Some b, Some r ->
            if keep b r then
              Some
                { metric;
                  base_value = Some b;
                  run_value = Some r;
                  diff_verdict = classify (direction name) b r }
            else None
          | Some b, None ->
            if keep b 0.0 then
              Some { metric; base_value = Some b; run_value = None; diff_verdict = Removed }
            else None
          | None, Some r ->
            if keep 0.0 r then
              Some { metric; base_value = None; run_value = Some r; diff_verdict = Added }
            else None
          | None, None -> None)
        names
    in
    let keep_span b r = Float.max b r >= min_duration in
    let keep_all _ _ = true in
    let entries =
      join "span:" ~direction:(fun _ -> `Lower_better) ~keep:keep_span (span_totals base)
        (span_totals run)
      @ join "counter:" ~direction:counter_direction ~keep:keep_all base.counter_totals
          run.counter_totals
      @ join "gauge:" ~direction:(fun _ -> `Neutral) ~keep:keep_all
          (List.sort compare base.gauge_last)
          (List.sort compare run.gauge_last)
    in
    let regressions =
      List.length (List.filter (fun e -> e.diff_verdict = Regression) entries)
    in
    { entries; regressions }

  let verdict_name = function
    | Regression -> "REGRESSION"
    | Improvement -> "improvement"
    | Unchanged -> "unchanged"
    | Added -> "added"
    | Removed -> "removed"
    | Changed -> "changed"

  let pp_diff fmt d =
    let pp_opt fmt = function
      | None -> Format.fprintf fmt "%12s" "-"
      | Some v -> Format.fprintf fmt "%12g" v
    in
    Format.fprintf fmt "%-44s %12s %12s  %s@." "metric" "base" "run" "verdict";
    List.iter
      (fun e ->
        Format.fprintf fmt "%-44s %a %a  %s@." e.metric pp_opt e.base_value pp_opt
          e.run_value
          (verdict_name e.diff_verdict))
      d.entries;
    Format.fprintf fmt "@.%d regression(s)@." d.regressions
end
