(** Textual netlist format, a superset of the ISCAS [.bench] style:

    {v
    INPUT(a)
    OUTPUT(y)
    w = NAND(a, b)
    y = XOR(w, c)
    s = DFF(y)
    v}

    Gates must appear in topological order except DFF D-inputs, which may
    reference nets defined later (feedback).

    The reader scans the text once, classifying each line in place into
    a table of offsets, then declares every input, then the gates in line
    order, then wires the DFF D-inputs, then the outputs and last the
    region pragmas. It allocates only what the circuit keeps and the net
    names it looks up, and sizes the circuit to the nodes the text
    declares.

    {b Error order.} A malformed text is reported at one 1-based line:
    the first syntax error (a line that is no declaration, an unknown
    cell, a declaration that names no net such as [INPUT()] or
    [= NOT(a)], an input declared as a gate such as [x = INPUT()]) in
    line order; else the first failing input (a duplicate name);
    else the first failing gate in line order (a wrong operand count,
    then its first undefined operand, then a duplicate name); else the
    first undefined DFF D-input in reverse line order; else the first
    undefined output; else the first undefined region member. Keywords
    and cell names are case-insensitive, and lines split on ['\n'] only,
    so a CRLF ending's ['\r'] is whitespace: trimmed from declarations,
    and a word separator in region pragmas. *)

exception Parse_error of string

(** [c] as .bench text that {!of_string} reads back as an equivalent
    circuit with the same input and output names. An output port driven
    by a net of another name is written as an alias [port = BUF(net)]; an
    internal net that already carries the port's name is written under a
    fresh name ([port_1], ...).
    @raise Invalid_argument when that would rename an input, or when an
    aliased output name is declared twice. *)
val to_string : Circuit.t -> string

(** @raise Parse_error on malformed input or undefined nets. *)
val of_string : string -> Circuit.t

(** Structured-error parse: failures carry the 1-based source line;
    the parsed circuit is additionally {!Lint.validate}d, so an [Ok]
    circuit is safe for every engine. Undefined nets cover forward
    references and combinational self-loops (e.g. [w = AND(w, a)]). *)
val of_string_result : string -> (Circuit.t, Eda_util.Eda_error.t) result

val write_file : string -> Circuit.t -> unit

(** Like {!of_string_result}, with missing/unreadable files reported as
    [Error] too. *)
val read_file_result : string -> (Circuit.t, Eda_util.Eda_error.t) result
