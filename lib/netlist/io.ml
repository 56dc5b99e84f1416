(** Textual netlist format, a superset of the ISCAS `.bench` style:

    {v
    INPUT(a)
    OUTPUT(y)
    w = NAND(a, b)
    y = XOR(w, c)
    s = DFF(y)
    v}

    Gates may reference nets defined later only for DFF inputs.

    Region annotations (see {!Circuit.annotate_region}) persist through a
    comment pragma, so pre-pragma parsers skip them as comments:

    {v
    # region secret : w y
    v}

    The reader scans the text once, classifying each line in place into
    a table of offsets, then declares inputs, gates, DFF D-inputs,
    outputs and regions from the table; it copies no line and builds no
    list. Its errors come out in a fixed order, described with [build]
    below. *)

(* The name each net is written under. An output port whose driver has
   another name is written as an alias [port = BUF(driver)], which defines
   a net called [port]; a different net that already carries that name
   (say, a locked output driver whose port moved to its key gate) is
   written under a fresh name instead, so the text never defines a net
   twice. Inputs cannot be renamed without renaming a port, and an alias
   cannot be defined twice: both are rejected. *)
let net_names c =
  let names = Array.init (Circuit.node_count c) (Circuit.name c) in
  (* Net names the text defines besides the nodes' own: the aliases, then
     every fresh name handed out. *)
  let extra = Hashtbl.create 8 in
  Array.iter
    (fun (nm, o) ->
      if names.(o) <> nm then begin
        if Hashtbl.mem extra nm then
          invalid_arg (Printf.sprintf "Io: aliased output %s is declared twice" nm);
        Hashtbl.replace extra nm ()
      end)
    (Circuit.outputs c);
  let rec fresh_name base k =
    let nm = Printf.sprintf "%s_%d" base k in
    if Circuit.find_by_name c nm <> None || Hashtbl.mem extra nm then fresh_name base (k + 1)
    else nm
  in
  Array.iteri
    (fun i nm ->
      if Hashtbl.mem extra nm then begin
        if Circuit.kind c i = Gate.Input then
          invalid_arg
            (Printf.sprintf "Io: output %s names an input but is driven by another net" nm);
        let nm' = fresh_name nm 1 in
        Hashtbl.replace extra nm' ();
        names.(i) <- nm'
      end)
    names;
  names

let print_circuit fmt c =
  let pr fs = Format.fprintf fmt fs in
  let name = net_names c in
  Array.iter (fun id -> pr "INPUT(%s)@." name.(id)) (Circuit.inputs c);
  Array.iter (fun (nm, _) -> pr "OUTPUT(%s)@." nm) (Circuit.outputs c);
  for i = 0 to Circuit.node_count c - 1 do
    let nd = Circuit.node c i in
    match nd.Circuit.kind with
    | Gate.Input -> ()
    | k ->
      let args =
        Array.to_list nd.Circuit.fanins |> List.map (fun f -> name.(f)) |> String.concat ", "
      in
      pr "%s = %s(%s)@." name.(i) (Gate.name k) args
  done;
  (* Emit explicit aliases for outputs that name internal nets differently. *)
  Array.iter
    (fun (nm, o) -> if name.(o) <> nm then pr "%s = BUF(%s)@." nm name.(o))
    (Circuit.outputs c);
  (* Region pragmas: only currently-resolvable members are written, so a
     printed circuit always parses back. *)
  List.iter
    (fun region ->
      match Circuit.region_members c region with
      | [] -> ()
      | members ->
        pr "# region %s :%s@." region
          (String.concat "" (List.map (fun id -> " " ^ name.(id)) members)))
    (Circuit.region_names c)

let to_string c =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  print_circuit fmt c;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

exception Parse_error of string

(* --- The reader ----------------------------------------------------------

   One scan of the text classifies each line in place: a row of [rows]
   records the line number, what the line declares and the offsets of its
   parts. No line, argument or comment is copied. The declarations then
   run over the rows, phase by phase, allocating only what the circuit
   keeps (net names, nodes, fanin arrays, name-table entries) and the
   names it looks up; the circuit is created with room for exactly the
   nodes the rows declare.

   Errors carry the 1-based line and come out in a fixed order: the first
   syntax error in line order (the scan), then, in declaration order,
   input errors, gate errors (arity, then the first undefined operand,
   then a duplicate name), DFF D-input errors in reverse declaration
   order, output errors, region errors. Lines split on '\n' only; the
   '\r' of a CRLF ending is whitespace, trimmed from declarations and a
   word separator in region pragmas. A declaration that names no net
   ([INPUT()], [OUTPUT()], [= NOT(a)]) and an input declared as a gate
   ([x = INPUT()]) are syntax errors. The list-pipeline reader this one
   replaced, kept in reference/ as the differential oracle, gives the
   same circuit or the same error on every text, quirks included. *)

(* A failure located at a 1-based source line. *)
exception Located of int * string

let fail ln fmt = Printf.ksprintf (fun msg -> raise (Located (ln, msg))) fmt

(* What a row declares. A gate row's tag is [tag_gate] plus the index of
   its cell in [cells]. *)
let tag_input = 0
let tag_output = 1
let tag_region = 2
let tag_gate = 3

let cells =
  Gate.[| Input; Const false; Const true; Buf; Not; And; Nand; Or; Nor; Xor; Xnor; Mux; Dff |]

let cell_names = Array.map Gate.name cells

(* A row is [stride] ints: line, tag, then two spans [s0, e0) and
   [s1, e1) of the text. Input/output: the name, unused. Gate: the
   left-hand side, the text between the parentheses. Region: the region
   name, the member list. *)
let stride = 6

type rows = {
  mutable tab : int array;
  mutable len : int;  (* rows *)
  mutable nodes : int;  (* input and gate rows: the node count *)
}

let push r line tag s0 e0 s1 e1 =
  let k = r.len * stride in
  if k = Array.length r.tab then begin
    let bigger = Array.make (2 * k) 0 in
    Array.blit r.tab 0 bigger 0 k;
    r.tab <- bigger
  end;
  let t = r.tab in
  t.(k) <- line;
  t.(k + 1) <- tag;
  t.(k + 2) <- s0;
  t.(k + 3) <- e0;
  t.(k + 4) <- s1;
  t.(k + 5) <- e1;
  r.len <- r.len + 1;
  if tag <> tag_output && tag <> tag_region then r.nodes <- r.nodes + 1

(* Span helpers over [text.[i, e)]. The whitespace is String.trim's. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec skip_space text i e =
  if i < e && is_space (String.unsafe_get text i) then skip_space text (i + 1) e else i

let rec back_space text s e =
  if e > s && is_space (String.unsafe_get text (e - 1)) then back_space text s (e - 1) else e

(* First index of [ch] in [i, e), else [e]; last index, else [-1]. *)
let rec index text ch i e =
  if i >= e || String.unsafe_get text i = ch then i else index text ch (i + 1) e

let rec rindex text ch s e =
  if e <= s then -1
  else if String.unsafe_get text (e - 1) = ch then e - 1
  else rindex text ch s (e - 1)

(* Words of a region pragma are split on ' ', '\t' and '\r'. *)
let is_blank ch = ch = ' ' || ch = '\t' || ch = '\r'

let rec skip_blank text i e =
  if i < e && is_blank (String.unsafe_get text i) then skip_blank text (i + 1) e else i

let rec word_end text i e =
  if i < e && not (is_blank (String.unsafe_get text i)) then word_end text (i + 1) e else i

(* Does [text.[s, e)] spell [word] exactly ([upper] false), or once
   upper-cased ([upper] true)? *)
let rec same_from ~upper text s word k =
  k = String.length word
  ||
  let ch = String.unsafe_get text (s + k) in
  (if upper then Char.uppercase_ascii ch else ch) = String.unsafe_get word k
  && same_from ~upper text s word (k + 1)

let spells ?(upper = false) text s e word =
  e - s = String.length word && same_from ~upper text s word 0

let sub text s e = String.sub text s (e - s)

(* The cell named by [text.[s, e)], as an index of [cells]. An unknown
   name fails with {!Gate.of_name}'s message. *)
let rec cell_index ln text s e k =
  if k = Array.length cells then
    match Gate.of_name (sub text s e) with
    | _ -> assert false
    | exception Invalid_argument msg -> fail ln "%s" msg
  else if spells ~upper:true text s e cell_names.(k) then k
  else cell_index ln text s e (k + 1)

(* "# region <name> : <net> <net> ..." in the comment [text.[s, e)]: a
   region row, with the member list running from the first member to the
   end of the line. Any other comment, and a malformed pragma, is a plain
   comment, never an error. *)
let region_pragma r ln text s e =
  let w1 = skip_blank text s e in
  let w1e = word_end text w1 e in
  if spells text w1 w1e "region" then begin
    let w2 = skip_blank text w1e e in
    let w2e = word_end text w2 e in
    let w3 = skip_blank text w2e e in
    let w3e = word_end text w3 e in
    let w4 = skip_blank text w3e e in
    if w2 < w2e && spells text w3 w3e ":" && w4 < e then push r ln tag_region w2 w2e w4 e
  end

(* An input or output row of line [ln], [text.[ls, le)], naming the net
   [text.[s, e)]; an empty name fails. *)
let push_port r ln tag text ~ls ~le s e =
  if s = e then fail ln "no net name: %s" (sub text ls le);
  push r ln tag s e 0 0

(* Classify line [ln], [text.[ls0, le0)]. *)
let classify r ln text ls0 le0 =
  let hash = index text '#' ls0 le0 in
  let ls = skip_space text ls0 hash in
  let le = back_space text ls hash in
  if ls = le then begin
    if hash < le0 then region_pragma r ln text (hash + 1) le0
  end
  else if le - ls > 6 && spells ~upper:true text ls (ls + 6) "INPUT(" then begin
    (* The last byte stands for the ')' and is not checked: "INPUT(ab"
       declares [a]. Text after the last ')' of a gate is ignored. *)
    let s = skip_space text (ls + 6) (le - 1) in
    push_port r ln tag_input text ~ls ~le s (back_space text s (le - 1))
  end
  else if le - ls > 7 && spells ~upper:true text ls (ls + 7) "OUTPUT(" then begin
    let s = skip_space text (ls + 7) (le - 1) in
    push_port r ln tag_output text ~ls ~le s (back_space text s (le - 1))
  end
  else begin
    let eq = index text '=' ls le in
    if eq = le then fail ln "bad line: %s" (sub text ls le);
    let rs = skip_space text (eq + 1) le in
    let re = back_space text rs le in
    let lp = index text '(' rs re in
    if lp = re then fail ln "bad rhs: %s" (sub text rs re);
    let close = rindex text ')' rs re in
    if close < 0 then fail ln "missing ): %s" (sub text rs re);
    if close < lp then fail ln "misplaced ): %s" (sub text rs re);
    let cs = skip_space text rs lp in
    let cell = cell_index ln text cs (back_space text cs lp) 0 in
    let hs = skip_space text ls eq in
    let he = back_space text hs eq in
    if hs = he then fail ln "no net name: %s" (sub text ls le);
    if cells.(cell) = Gate.Input then fail ln "input declared as a gate: %s" (sub text ls le);
    push r ln (tag_gate + cell) hs he (lp + 1) close
  end

let scan text =
  let r = { tab = Array.make (64 * stride) 0; len = 0; nodes = 0 } in
  let n = String.length text in
  (* [String.split_on_char '\n'] lines: [n] newlines make [n + 1]. *)
  let rec line ln s =
    let e = index text '\n' s n in
    classify r ln text s e;
    if e < n then line (ln + 1) (e + 1)
  in
  line 1 0;
  r

(* Operands of a gate row: [text.[s, e)] split on ',', each trimmed; a
   list that is blank after trimming has none. *)
let operand_count text s e =
  if skip_space text s e = e then 0
  else begin
    let count = ref 1 in
    for i = s to e - 1 do
      if String.unsafe_get text i = ',' then incr count
    done;
    !count
  end

let resolve c ln nm =
  match Circuit.find_by_name c nm with
  | Some id -> id
  | None -> fail ln "undefined net %s" nm

let resolve_span c ln text s e =
  let s = skip_space text s e in
  resolve c ln (sub text s (back_space text s e))

(* A node at line [ln]; a duplicate name fails there. *)
let declare c ln kind fanins name =
  match Circuit.add_node_raw c kind fanins name with
  | (_ : int) -> ()
  | exception Invalid_argument msg -> raise (Located (ln, msg))

(* Build a circuit from text, raising [Located] on any malformed
   construct: bad syntax, unknown cells, wrong operand counts, undefined
   nets (which is also how forward references and combinational
   self-loops surface), duplicate net names. The first one in the error
   order above is reported. *)
let build text =
  let r = scan text in
  let t = r.tab in
  let c = Circuit.create ~capacity:r.nodes () in
  for k = 0 to r.len - 1 do
    let b = k * stride in
    if t.(b + 1) = tag_input then
      declare c t.(b) Gate.Input [||] (sub text t.(b + 2) t.(b + 3))
  done;
  (* Gates in line order; a DFF's D-input is resolved after all of them,
     to allow feedback. *)
  let dffs = ref 0 in
  for k = 0 to r.len - 1 do
    let b = k * stride in
    let tag = t.(b + 1) in
    if tag >= tag_gate then begin
      let ln = t.(b) and kind = cells.(tag - tag_gate) in
      let name = sub text t.(b + 2) t.(b + 3) in
      let s = t.(b + 4) and e = t.(b + 5) in
      let count = operand_count text s e in
      match kind with
      | Gate.Dff when count = 1 ->
        declare c ln Gate.Dff [| 0 |] name;
        incr dffs
      | _ ->
        let arity = Gate.arity kind in
        if count <> arity then
          fail ln "%s = %s expects %d operands, got %d" name (Gate.name kind) arity count;
        let fanins = Array.make arity 0 in
        let i = ref s in
        for j = 0 to arity - 1 do
          let comma = index text ',' !i e in
          fanins.(j) <- resolve_span c ln text !i comma;
          i := comma + 1
        done;
        declare c ln kind fanins name
    end
  done;
  (* D-inputs in reverse declaration order. Every row declared one node,
     inputs first, so the gate rows hold the last ids in row order. *)
  if !dffs > 0 then begin
    let id = ref (Circuit.node_count c) in
    for k = r.len - 1 downto 0 do
      let b = k * stride in
      let tag = t.(b + 1) in
      if tag >= tag_gate then begin
        decr id;
        match cells.(tag - tag_gate) with
        | Gate.Dff -> Circuit.connect_dff c !id ~d:(resolve_span c t.(b) text t.(b + 4) t.(b + 5))
        | _ -> ()
      end
    done
  end;
  for k = 0 to r.len - 1 do
    let b = k * stride in
    if t.(b + 1) = tag_output then begin
      let nm = sub text t.(b + 2) t.(b + 3) in
      Circuit.set_output c nm (resolve c t.(b) nm)
    end
  done;
  (* Region pragmas last: every net is declared by now. *)
  for k = 0 to r.len - 1 do
    let b = k * stride in
    if t.(b + 1) = tag_region then begin
      let ln = t.(b) and e = t.(b + 5) in
      let rec members i =
        let s = skip_blank text i e in
        if s = e then []
        else begin
          let we = word_end text s e in
          let id = resolve c ln (sub text s we) in
          id :: members we
        end
      in
      Circuit.annotate_region c ~region:(sub text t.(b + 2) t.(b + 3)) (members t.(b + 4))
    end
  done;
  c

(** Structured-error parse: locates failures by source line and lints the
    result, so a circuit returned here is safe for every engine. *)
let of_string_result text =
  match build text with
  | c -> Lint.validate c
  | exception Located (ln, msg) ->
    Error (Eda_util.Eda_error.Parse_error { line = Some ln; msg })

let of_string text =
  match build text with
  | c -> c
  | exception Located (_, msg) -> raise (Parse_error msg)

let write_file path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string c))

(** Structured-error file read: I/O failures, parse errors and lint
    violations all come back as [Error] instead of an exception. *)
let read_file_result path =
  match open_in path with
  | exception Sys_error msg ->
    Error (Eda_util.Eda_error.Invalid_input { what = "netlist file"; msg })
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        of_string_result (really_input_string ic len))
