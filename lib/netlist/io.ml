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
    v} *)

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

(* "# region <name> : <net> <net> ..." — anything else after '#' is a
   plain comment, so malformed pragmas (and pre-pragma comments that
   happen to start with "region") degrade to comments, never to errors. *)
let parse_region_pragma comment =
  let words =
    String.split_on_char ' ' comment |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | "region" :: name :: ":" :: (_ :: _ as members) -> Some (name, members)
  | _ -> None

let parse_line line =
  let comment =
    match String.index_opt line '#' with
    | Some i -> Some (String.sub line (i + 1) (String.length line - i - 1))
    | None -> None
  in
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then begin
    match Option.bind comment parse_region_pragma with
    | Some (name, members) -> `Region (name, members)
    | None -> `Blank
  end
  else if String.length line > 6 && String.uppercase_ascii (String.sub line 0 6) = "INPUT(" then begin
    let inner = String.sub line 6 (String.length line - 7) in
    `Input (String.trim inner)
  end
  else if String.length line > 7 && String.uppercase_ascii (String.sub line 0 7) = "OUTPUT(" then begin
    let inner = String.sub line 7 (String.length line - 8) in
    `Output (String.trim inner)
  end
  else begin
    match String.index_opt line '=' with
    | None -> raise (Parse_error (Printf.sprintf "bad line: %s" line))
    | Some eq ->
      let lhs = String.trim (String.sub line 0 eq) in
      let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
      (match String.index_opt rhs '(' with
       | None -> raise (Parse_error (Printf.sprintf "bad rhs: %s" rhs))
       | Some lp ->
         let cell = String.trim (String.sub rhs 0 lp) in
         let close =
           match String.rindex_opt rhs ')' with
           | Some i -> i
           | None -> raise (Parse_error (Printf.sprintf "missing ): %s" rhs))
         in
         let args_str = String.sub rhs (lp + 1) (close - lp - 1) in
         let args =
           if String.trim args_str = "" then []
           else
             String.split_on_char ',' args_str |> List.map String.trim
         in
         `Gate (lhs, Gate.of_name cell, args))
  end

(* Internal: a parse failure located at a 1-based source line. *)
exception Located of int * string

(* Build a circuit from text, raising [Located] with the offending line on
   any malformed construct: bad syntax, unknown cells, wrong operand
   counts, undefined nets (which is also how forward references and
   combinational self-loops surface), duplicate net names. *)
let build text =
  let lines = String.split_on_char '\n' text in
  let at ln f =
    try f () with
    | Parse_error msg -> raise (Located (ln, msg))
    | Invalid_argument msg -> raise (Located (ln, msg))
  in
  let parsed =
    List.mapi (fun i line -> (i + 1, at (i + 1) (fun () -> parse_line line))) lines
  in
  let c = Circuit.create () in
  let pending_dffs = ref [] in
  (* First, declare inputs in order. *)
  List.iter
    (fun (ln, item) ->
      match item with
      | `Input nm -> at ln (fun () -> ignore (Circuit.add_input ~name:nm c))
      | `Output _ | `Gate _ | `Blank | `Region _ -> ())
    parsed;
  let resolve nm =
    match Circuit.find_by_name c nm with
    | Some id -> id
    | None -> raise (Parse_error (Printf.sprintf "undefined net %s" nm))
  in
  let check_arity nm kind args =
    let expected = Gate.arity kind in
    if List.length args <> expected then
      raise
        (Parse_error
           (Printf.sprintf "%s = %s expects %d operands, got %d" nm (Gate.name kind) expected
              (List.length args)))
  in
  (* Then gates, in file order (assumed topological except DFF inputs). *)
  List.iter
    (fun (ln, item) ->
      match item with
      | `Gate (nm, Gate.Dff, [ d ]) ->
        (* D input resolved at the end to allow feedback. *)
        at ln (fun () ->
            let id = Circuit.add_dff ~name:nm c ~d:0 in
            pending_dffs := (id, ln, d) :: !pending_dffs)
      | `Gate (nm, kind, args) ->
        at ln (fun () ->
            check_arity nm kind args;
            ignore (Circuit.add_gate ~name:nm c kind (List.map resolve args)))
      | `Input _ | `Output _ | `Blank | `Region _ -> ())
    parsed;
  List.iter
    (fun (id, ln, d) -> at ln (fun () -> Circuit.connect_dff c id ~d:(resolve d)))
    !pending_dffs;
  List.iter
    (fun (ln, item) ->
      match item with
      | `Output nm -> at ln (fun () -> Circuit.set_output c nm (resolve nm))
      | `Input _ | `Gate _ | `Blank | `Region _ -> ())
    parsed;
  (* Region pragmas last: every net is declared by now. *)
  List.iter
    (fun (ln, item) ->
      match item with
      | `Region (name, members) ->
        at ln (fun () ->
            Circuit.annotate_region c ~region:name (List.map resolve members))
      | `Input _ | `Output _ | `Gate _ | `Blank -> ())
    parsed;
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
