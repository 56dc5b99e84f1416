(** The list-pipeline netlist reader {!Netlist.Io}'s one-scan reader
    replaced, kept as its differential oracle: it splits the text into
    line strings, parses each into a variant, then walks the list once
    per declaration phase (inputs, gates, DFF D-inputs, outputs,
    regions). On every text the two must return the same circuit or the
    same located error. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Lint = Netlist.Lint

exception Parse_error of string

(* "# region <name> : <net> <net> ..." — anything else after '#' is a
   plain comment. Words are split on ' ', '\t' and '\r'. *)
let parse_region_pragma comment =
  let words =
    String.split_on_char ' ' comment
    |> List.concat_map (String.split_on_char '\t')
    |> List.concat_map (String.split_on_char '\r')
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
  let named nm =
    if nm = "" then raise (Parse_error (Printf.sprintf "no net name: %s" line));
    nm
  in
  if line = "" then begin
    match Option.bind comment parse_region_pragma with
    | Some (name, members) -> `Region (name, members)
    | None -> `Blank
  end
  else if String.length line > 6 && String.uppercase_ascii (String.sub line 0 6) = "INPUT(" then begin
    let inner = String.sub line 6 (String.length line - 7) in
    `Input (named (String.trim inner))
  end
  else if String.length line > 7 && String.uppercase_ascii (String.sub line 0 7) = "OUTPUT(" then begin
    let inner = String.sub line 7 (String.length line - 8) in
    `Output (named (String.trim inner))
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
         if close < lp then raise (Parse_error (Printf.sprintf "misplaced ): %s" rhs));
         let args_str = String.sub rhs (lp + 1) (close - lp - 1) in
         let args =
           if String.trim args_str = "" then []
           else
             String.split_on_char ',' args_str |> List.map String.trim
         in
         let kind = Gate.of_name cell in
         let lhs = named lhs in
         if kind = Gate.Input then
           raise (Parse_error (Printf.sprintf "input declared as a gate: %s" line));
         `Gate (lhs, kind, args))
  end

(* A parse failure located at a 1-based source line. *)
exception Located of int * string

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
  List.iter
    (fun (ln, item) ->
      match item with
      | `Gate (nm, Gate.Dff, [ d ]) ->
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
  List.iter
    (fun (ln, item) ->
      match item with
      | `Region (name, members) ->
        at ln (fun () ->
            Circuit.annotate_region c ~region:name (List.map resolve members))
      | `Input _ | `Output _ | `Gate _ | `Blank -> ())
    parsed;
  c

(** {!Netlist.Io.of_string_result} as the list pipeline computed it. *)
let of_string_result text =
  match build text with
  | c -> Lint.validate c
  | exception Located (ln, msg) ->
    Error (Eda_util.Eda_error.Parse_error { line = Some ln; msg })
