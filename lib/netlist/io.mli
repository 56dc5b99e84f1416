(** Textual netlist format, a superset of the ISCAS [.bench] style:

    {v
    INPUT(a)
    OUTPUT(y)
    w = NAND(a, b)
    y = XOR(w, c)
    s = DFF(y)
    v}

    Gates must appear in topological order except DFF D-inputs, which may
    reference nets defined later (feedback). *)

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
