(* Tests for the netlist IR: construction, simulation (scalar, word,
   sequential), generators, IO round trips and structural utilities. *)

module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Sim = Netlist.Sim
module Gen = Netlist.Generators
module Io = Netlist.Io
module Rng = Eda_util.Rng

let bits ~width x = Array.init width (fun i -> (x lsr i) land 1 = 1)

let test_build_and_eval () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let x = Circuit.add_gate ~name:"x" c Gate.Xor [ a; b ] in
  Circuit.set_output c "x" x;
  Alcotest.(check bool) "0^1" true (Sim.eval c [| false; true |]).(0);
  Alcotest.(check bool) "1^1" false (Sim.eval c [| true; true |]).(0);
  Alcotest.(check bool) "well formed" true (Circuit.well_formed c)

(* A refused duplicate name leaves the circuit as it was: no node, no
   input, no name-table entry. *)
let test_duplicate_name_unchanged () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  Alcotest.check_raises "duplicate input" (Invalid_argument "Circuit: duplicate net name a")
    (fun () -> ignore (Circuit.add_input ~name:"a" c));
  Alcotest.check_raises "duplicate gate" (Invalid_argument "Circuit: duplicate net name a")
    (fun () -> ignore (Circuit.add_gate ~name:"a" c Gate.Not [ a ]));
  Alcotest.(check int) "node count" 1 (Circuit.node_count c);
  Alcotest.(check int) "inputs" 1 (Circuit.num_inputs c);
  Alcotest.(check (option int)) "a resolves" (Some a) (Circuit.find_by_name c "a");
  let y = Circuit.add_gate ~name:"y" c Gate.Not [ a ] in
  Alcotest.(check int) "next id" 1 y;
  Circuit.set_output c "y" y;
  Alcotest.(check (list string)) "lint clean" []
    (List.map Netlist.Lint.describe (Netlist.Lint.check c))

let test_input_position () =
  (* Inputs interleaved with gates, and a copy that grows further: the
     position is the declaration index, the one [inputs] and simulation
     vectors use. *)
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let x = Circuit.add_gate ~name:"x" c Gate.Not [ a ] in
  let b = Circuit.add_input ~name:"b" c in
  let d = Circuit.copy c in
  let e = Circuit.add_input ~name:"e" d in
  Array.iteri
    (fun k id -> Alcotest.(check int) (Circuit.name d id) k (Circuit.input_position d id))
    (Circuit.inputs d);
  Alcotest.(check (list int)) "original" [ 0; 1 ] (List.map (Circuit.input_position c) [ a; b ]);
  Alcotest.check_raises "copy's input unknown to the original"
    (Invalid_argument "Circuit.input_position: #3 is not an input") (fun () ->
      ignore (Circuit.input_position c e));
  Alcotest.check_raises "a gate is not an input"
    (Invalid_argument "Circuit.input_position: x is not an input") (fun () ->
      ignore (Circuit.input_position c x))

let test_output_position () =
  (* The position is the declaration index, the one [outputs] and
     simulation output vectors use; an input's name is not an output. *)
  let c = Gen.c17 () in
  Array.iteri
    (fun k (nm, _) -> Alcotest.(check int) nm k (Circuit.output_position c nm))
    (Circuit.outputs c);
  Alcotest.check_raises "unknown output"
    (Invalid_argument "Circuit.output_position: G1 is not an output") (fun () ->
      ignore (Circuit.output_position c "G1"))

let test_all_gate_kinds () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let s = Circuit.add_input ~name:"s" c in
  let mk kind fanins nm = Circuit.set_output c nm (Circuit.add_gate ~name:nm c kind fanins) in
  mk Gate.And [ a; b ] "and";
  mk Gate.Nand [ a; b ] "nand";
  mk Gate.Or [ a; b ] "or";
  mk Gate.Nor [ a; b ] "nor";
  mk Gate.Xor [ a; b ] "xor";
  mk Gate.Xnor [ a; b ] "xnor";
  mk Gate.Not [ a ] "not";
  mk Gate.Buf [ a ] "buf";
  mk Gate.Mux [ s; a; b ] "mux";
  let check av bv sv expected =
    let outs = Sim.eval c [| av; bv; sv |] in
    Alcotest.(check (array bool)) (Printf.sprintf "a=%b b=%b s=%b" av bv sv) expected outs
  in
  check true false false
    [| false; true; true; false; true; false; false; true; true |];
  check true true true
    [| true; false; true; false; false; true; false; true; true |];
  check false true true
    [| false; true; true; false; true; false; true; false; true |]

(* Broadcast inputs (true -1, false 0) give broadcast net words whose
   bit 0 is the reference bool sweep's value. *)
let test_word_sim_matches_scalar () =
  let c = Gen.c17 () in
  let rng = Rng.create 23 in
  for _ = 1 to 20 do
    let inputs = Array.init 5 (fun _ -> Rng.bool rng) in
    let scalar = Reference.Sim_ref.eval_all c inputs in
    let words = Sim.eval_all_word c (Array.map (fun b -> if b then -1 else 0) inputs) in
    Array.iteri
      (fun i w ->
        Alcotest.(check bool) "word bit0 agrees" scalar.(i) (w land 1 = 1);
        Alcotest.(check bool) "word is broadcast" true (w = 0 || w = -1))
      words
  done

let test_c17_reference_vectors () =
  (* c17 truth spot checks computed by hand from the NAND structure. *)
  let c = Gen.c17 () in
  (* All inputs 0: G10=1, G11=1, G16=1, G19=1, G22=nand(1,1)=0, G23=0. *)
  Alcotest.(check (array bool)) "all zero" [| false; false |] (Sim.eval c (bits ~width:5 0));
  (* G1..G5 = 1: G10=0, G11=0, G16=1, G19=1, G22=1, G23=0. *)
  Alcotest.(check (array bool)) "all one" [| true; false |] (Sim.eval c (bits ~width:5 0b11111))

let test_ripple_adder () =
  let c = Gen.ripple_adder 4 in
  let add a b cin =
    let inputs = Array.concat [ bits ~width:4 a; bits ~width:4 b; [| cin |] ] in
    let outs = Sim.eval c inputs in
    let s = ref 0 in
    for i = 3 downto 0 do
      s := (!s lsl 1) lor (if outs.(i) then 1 else 0)
    done;
    !s, outs.(4)
  in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let s, cout = add a b false in
      Alcotest.(check int) (Printf.sprintf "%d+%d" a b) ((a + b) land 0xF) s;
      Alcotest.(check bool) "carry" (a + b > 15) cout
    done
  done;
  let s, cout = add 15 15 true in
  Alcotest.(check int) "15+15+1 sum" 15 s;
  Alcotest.(check bool) "15+15+1 carry" true cout

let test_comparator () =
  let c = Gen.comparator 3 in
  for a = 0 to 7 do
    for b = 0 to 7 do
      let inputs = Array.concat [ bits ~width:3 a; bits ~width:3 b ] in
      Alcotest.(check bool) (Printf.sprintf "%d=%d" a b) (a = b) (Sim.eval c inputs).(0)
    done
  done

let test_parity_tree () =
  let c = Gen.parity_tree 7 in
  for m = 0 to 127 do
    let inputs = bits ~width:7 m in
    let expected = Eda_util.Stats.hamming_weight ~bits:7 m land 1 = 1 in
    Alcotest.(check bool) (Printf.sprintf "m=%d" m) expected (Sim.eval c inputs).(0)
  done

let test_mux_tree () =
  let c = Gen.mux_tree 2 in
  (* Inputs: d0..d3 then s0, s1. *)
  for sel = 0 to 3 do
    for data = 0 to 15 do
      let inputs = Array.concat [ bits ~width:4 data; bits ~width:2 sel ] in
      let expected = (data lsr sel) land 1 = 1 in
      Alcotest.(check bool) (Printf.sprintf "d=%d s=%d" data sel) expected (Sim.eval c inputs).(0)
    done
  done

let test_alu () =
  let c = Gen.alu 4 in
  let run a b op =
    let inputs = Array.concat [ bits ~width:4 a; bits ~width:4 b; bits ~width:2 op ] in
    let outs = Sim.eval c inputs in
    let v = ref 0 in
    for i = 3 downto 0 do
      v := (!v lsl 1) lor (if outs.(i) then 1 else 0)
    done;
    !v
  in
  for a = 0 to 15 do
    for b = 0 to 15 do
      Alcotest.(check int) "and" (a land b) (run a b 0);
      Alcotest.(check int) "or" (a lor b) (run a b 1);
      Alcotest.(check int) "xor" (a lxor b) (run a b 2);
      Alcotest.(check int) "add" ((a + b) land 0xF) (run a b 3)
    done
  done

let test_sequential_counter () =
  (* 2-bit counter from DFFs: q0' = !q0, q1' = q1 xor q0. *)
  let c = Circuit.create () in
  let en = Circuit.add_input ~name:"en" c in
  ignore en;
  let q0 = Circuit.add_dff ~name:"q0" c ~d:0 in
  let q1 = Circuit.add_dff ~name:"q1" c ~d:0 in
  let nq0 = Circuit.add_gate ~name:"nq0" c Gate.Not [ q0 ] in
  let t = Circuit.add_gate ~name:"t" c Gate.Xor [ q1; q0 ] in
  Circuit.connect_dff c q0 ~d:nq0;
  Circuit.connect_dff c q1 ~d:t;
  Circuit.set_output c "q0" q0;
  Circuit.set_output c "q1" q1;
  let state = ref [| false; false |] in
  let trace =
    List.init 4 (fun _ ->
        let outs, next = Sim.step c ~state:!state [| false |] in
        state := next;
        outs)
  in
  let as_int outs = (if outs.(1) then 2 else 0) lor (if outs.(0) then 1 else 0) in
  Alcotest.(check (list int)) "counting" [ 0; 1; 2; 3 ] (List.map as_int trace)

let test_truth_table_extraction () =
  let c = Gen.parity_tree 3 in
  let f = Sim.truth_table c ~output:0 in
  Alcotest.(check string) "parity tt" "01101001" (Logic.Truth_table.to_string f)

let test_of_truth_table () =
  let f = Logic.Truth_table.create 4 (fun m -> m mod 3 = 0) in
  let c = Gen.of_truth_table f in
  for m = 0 to 15 do
    Alcotest.(check bool) (Printf.sprintf "m=%d" m)
      (Logic.Truth_table.eval f m)
      (Sim.eval c (bits ~width:4 m)).(0)
  done

let test_of_truth_tables_sharing () =
  let f0 = Logic.Truth_table.var 3 0 in
  let f1 = Logic.Truth_table.var 3 0 in
  let c = Gen.of_truth_tables [ f0; f1 ] in
  (* Identical functions must share all logic. *)
  let (_, o0) = (Circuit.outputs c).(0) and (_, o1) = (Circuit.outputs c).(1) in
  Alcotest.(check int) "shared output node" o0 o1

let test_io_roundtrip () =
  let c = Gen.c17 () in
  let text = Io.to_string c in
  let c' = Io.of_string text in
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c c');
  Alcotest.(check int) "same inputs" (Circuit.num_inputs c) (Circuit.num_inputs c')

(* An output port whose driver has another name becomes an alias; a net
   already carrying the port's name is written under a fresh one. What
   cannot be written that way (an input of the port's name, or the same
   alias twice) is rejected instead of written unreadable. *)
let test_io_port_name_collisions () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let y = Circuit.add_gate ~name:"y" c Gate.Not [ a ] in
  let k = Circuit.add_gate ~name:"k" c Gate.Buf [ y ] in
  Circuit.set_output c "y" k;
  let c' = Io.of_string (Io.to_string c) in
  Alcotest.(check (array string)) "port kept" [| "y" |] (Array.map fst (Circuit.outputs c'));
  Alcotest.(check bool) "driver renamed" true (Circuit.find_by_name c' "y_1" <> None);
  Alcotest.(check bool) "equivalent" true (Sim.equivalent_exhaustive c c');
  let bad = Circuit.create () in
  let a = Circuit.add_input ~name:"a" bad in
  Circuit.set_output bad "a" (Circuit.add_gate ~name:"n" bad Gate.Not [ a ]);
  Alcotest.check_raises "input named like an aliased port"
    (Invalid_argument "Io: output a names an input but is driven by another net")
    (fun () -> ignore (Io.to_string bad));
  Circuit.set_output c "y" k;
  Alcotest.check_raises "alias declared twice"
    (Invalid_argument "Io: aliased output y is declared twice")
    (fun () -> ignore (Io.to_string c))

let test_io_sequential_roundtrip () =
  let src = "INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nnq = NOT(q)\nd = XOR(x, nq)\n" in
  (* The DFF D-input refers forward to a net defined later. *)
  (match Io.of_string src with
   | c ->
     Alcotest.(check int) "one dff" 1 (Circuit.num_dffs c)
   | exception Io.Parse_error msg -> Alcotest.fail msg)

let test_io_rejects_garbage () =
  Alcotest.check_raises "bad line" (Io.Parse_error "bad line: what is this")
    (fun () -> ignore (Io.of_string "what is this"))

(* Minor-heap words the reader allocates per input byte on a fixed
   corpus: every Bench_gen family at 300 and 1200 target gates, seeds 1
   and 2, with a region pragma (450 KB of text). What remains is what a
   circuit keeps (names, nodes, fanin arrays, name-table entries) and
   the names it looks up: 1.081 words per byte on OCaml 5.1.1, where the
   list pipeline the reader replaced allocated 4.875. The bound leaves
   15% headroom; a per-line string or list cell costs about 0.2 words per
   byte more. Allocation is deterministic for one OCaml version, so the
   bound holds on any host. *)
let test_io_allocation_budget () =
  let texts =
    List.concat_map
      (fun fam ->
        List.concat_map
          (fun (seed, size) ->
            let c = Netlist.Bench_gen.sized ~seed fam ~target_gates:size in
            Circuit.annotate_region c ~region:"secret"
              (List.init (Circuit.node_count c / 7) (fun k -> 7 * k));
            [ Io.to_string c ])
          [ (1, 300); (2, 300); (1, 1200); (2, 1200) ])
      Netlist.Bench_gen.all_families
  in
  let bytes = List.fold_left (fun acc t -> acc + String.length t) 0 texts in
  let before = Gc.minor_words () in
  List.iter (fun t -> ignore (Io.of_string t)) texts;
  let per_byte = (Gc.minor_words () -. before) /. float_of_int bytes in
  Alcotest.(check bool) (Printf.sprintf "%.3f minor words per byte, bound 1.25" per_byte) true
    (per_byte <= 1.25)

let test_sweep_removes_dead () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let live = Circuit.add_gate ~name:"live" c Gate.And [ a; b ] in
  let _dead = Circuit.add_gate ~name:"dead" c Gate.Or [ a; b ] in
  Circuit.set_output c "y" live;
  let swept, _ = Circuit.sweep c in
  Alcotest.(check bool) "dead gone" true (Circuit.find_by_name swept "dead" = None);
  Alcotest.(check bool) "still works" true (Sim.eval swept [| true; true |]).(0)

let test_stats () =
  let c = Gen.c17 () in
  let st = Circuit.stats c in
  Alcotest.(check int) "gates" 6 st.Circuit.gates;
  Alcotest.(check int) "inputs" 5 st.Circuit.inputs;
  Alcotest.(check int) "outputs" 2 st.Circuit.outputs;
  Alcotest.(check bool) "area positive" true (st.Circuit.area > 0.0)

let test_fanouts () =
  let c = Gen.c17 () in
  let v = Circuit.view c in
  (* G11 (node 6) feeds G16 and G19. *)
  match Circuit.find_by_name c "G11" with
  | Some id ->
    let start = v.Circuit.fanout_start in
    Alcotest.(check int) "fanout of G11" 2 (start.(id + 1) - start.(id))
  | None -> Alcotest.fail "G11 missing"

let test_signal_probabilities () =
  let c = Gen.parity_tree 4 in
  let rng = Rng.create 99 in
  let probs = Sim.signal_probabilities rng ~patterns:6300 c in
  let out = (Circuit.output_ids c).(0) in
  Alcotest.(check bool) "xor output balanced" true (Float.abs (probs.(out) -. 0.5) < 0.05)

let test_equivalence_helpers () =
  let a = Gen.ripple_adder 3 in
  let b = Gen.ripple_adder 3 in
  Alcotest.(check bool) "self equivalence" true (Sim.equivalent_exhaustive a b);
  let rng = Rng.create 5 in
  Alcotest.(check bool) "random equivalence" true (Sim.equivalent_random rng ~patterns:100 a b);
  let c = Gen.comparator 3 in
  ignore c;
  let d = Gen.parity_tree 7 in
  Alcotest.(check bool) "different circuits differ" false (Sim.equivalent_exhaustive a d)

(* ---- Zero-allocation simulation paths ---- *)

(* [Gate.eval_word_indexed] must agree with [Gate.eval] through a
   scattered fanin indirection, for every combinational kind and operand
   pattern: on the all-0/all-1 broadcast of the operands, and lane by lane
   with every pattern in its own lane. *)
let test_eval_word_indexed_agrees () =
  let kinds =
    [ (Gate.Buf, 1); (Gate.Not, 1); (Gate.And, 2); (Gate.Nand, 2);
      (Gate.Or, 2); (Gate.Nor, 2); (Gate.Xor, 2); (Gate.Xnor, 2);
      (Gate.Mux, 3); (Gate.Const true, 0); (Gate.Const false, 0) ]
  in
  List.iter
    (fun (kind, arity) ->
      (* Scatter the operands through a larger value array. *)
      let fanins = Array.init arity (fun i -> (3 * i) + 2) in
      let operands m = Array.init arity (fun i -> (m lsr i) land 1 = 1) in
      let patterns = 1 lsl arity in
      for m = 0 to patterns - 1 do
        let wvalues = Array.make 16 0 in
        Array.iteri (fun i v -> wvalues.(fanins.(i)) <- (if v then -1 else 0)) (operands m);
        Alcotest.(check int)
          (Printf.sprintf "%s broadcast m=%d" (Gate.name kind) m)
          (if Gate.eval kind (operands m) then -1 else 0)
          (Gate.eval_word_indexed kind fanins wvalues)
      done;
      (* Lane m carries operand pattern m. *)
      let wvalues = Array.make 16 0 in
      for m = 0 to patterns - 1 do
        Array.iteri
          (fun i v -> if v then wvalues.(fanins.(i)) <- wvalues.(fanins.(i)) lor (1 lsl m))
          (operands m)
      done;
      let w = Gate.eval_word_indexed kind fanins wvalues in
      for m = 0 to patterns - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s lane %d" (Gate.name kind) m)
          (Gate.eval kind (operands m))
          ((w lsr m) land 1 = 1)
      done)
    kinds

(* [eval_all_into]'s broadcast net words must read back as the reference
   bool sweep's values while REUSING one buffer across patterns —
   including a sequential circuit where stale DFF slots from the previous
   pattern must not leak into a state-less evaluation. *)
let test_eval_all_into_matches () =
  let rng = Rng.create 314 in
  let comb = Gen.c17 () in
  let seq = Io.of_string "INPUT(x)\nOUTPUT(q)\nq = DFF(d)\nnq = NOT(q)\nd = XOR(x, nq)\n" in
  List.iter
    (fun c ->
      let ni = Circuit.num_inputs c in
      let into = Array.make (Circuit.node_count c) (-1) in  (* poisoned buffer *)
      for _ = 1 to 40 do
        let inputs = Array.init ni (fun _ -> Rng.bool rng) in
        let fresh = Reference.Sim_ref.eval_all c inputs in
        Sim.eval_all_into c inputs ~into;
        Alcotest.(check (array bool)) "into = fresh" fresh (Array.map (fun w -> w <> 0) into)
      done;
      (* With explicit state the DFF slots must reflect it. *)
      if Circuit.num_dffs c > 0 then begin
        let state = Array.map (fun _ -> true) (Circuit.dffs c) in
        let inputs = Array.make ni false in
        let fresh = Reference.Sim_ref.eval_all ~state c inputs in
        Sim.eval_all_into ~state c inputs ~into;
        Alcotest.(check (array bool)) "stateful into = fresh" fresh
          (Array.map (fun w -> w <> 0) into)
      end)
    [ comb; seq ]

let test_eval_all_word_into_matches () =
  let rng = Rng.create 2718 in
  let c = Gen.alu 4 in
  let ni = Circuit.num_inputs c in
  let into = Array.make (Circuit.node_count c) (-1) in
  for _ = 1 to 20 do
    let inputs =
      Array.init ni (fun _ ->
          Int64.to_int (Rng.next_int64 rng) land 0x7FFFFFFFFFFFFFFF)
    in
    let fresh = Sim.eval_all_word c inputs in
    Sim.eval_all_word_into c inputs ~into;
    Alcotest.(check (array int)) "word into = fresh" fresh into
  done

(* Word-parallel equivalence must stay exact across the 63-pattern word
   boundary: 7 inputs = 128 patterns = two full words plus a 2-pattern
   tail. The almost-parity circuit differs from parity ONLY on the
   all-ones pattern — the very last bit of the tail word. *)
let test_word_equivalence_tail_pattern () =
  let a = Gen.parity_tree 7 in
  let b = Circuit.create () in
  let xs = List.init 7 (fun i -> Circuit.add_input ~name:(Printf.sprintf "x%d" i) b) in
  let p = Circuit.reduce b Gate.Xor xs in
  let all_and = Circuit.reduce b Gate.And xs in
  let out = Circuit.add_gate b Gate.Xor [ p; all_and ] in
  Circuit.set_output b "parity" out;
  Alcotest.(check bool) "tail difference found" false (Sim.equivalent_exhaustive a b);
  let a' = Gen.parity_tree 7 in
  Alcotest.(check bool) "self equal across words" true (Sim.equivalent_exhaustive a a');
  (* Random equivalence with a pattern count that is not a multiple of 63. *)
  let rng = Rng.create 6 in
  Alcotest.(check bool) "random equal" true (Sim.equivalent_random rng ~patterns:100 a a');
  (* The one distinguishing pattern has probability 1/128 per pattern;
     4000 random patterns miss it with probability ~2e-14. *)
  let rng = Rng.create 7 in
  Alcotest.(check bool) "random finds tail difference" false
    (Sim.equivalent_random rng ~patterns:4000 a b)

(* Region annotations: by-name membership survives sweep renumbering,
   round-trips through the pragma comment, and malformed pragmas stay
   plain comments. *)
let test_regions () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let w = Circuit.add_gate ~name:"w" c Gate.And [ a; b ] in
  let dead = Circuit.add_gate ~name:"dead" c Gate.Or [ a; b ] in
  let y = Circuit.add_gate ~name:"y" c Gate.Xor [ w; a ] in
  Circuit.set_output c "y" y;
  Circuit.annotate_region c ~region:"secret" [ w; y ];
  Circuit.annotate_region c ~region:"secret" [ y ];  (* idempotent *)
  Circuit.annotate_region c ~region:"doomed" [ dead ];
  Alcotest.(check (list string)) "names" [ "secret"; "doomed" ] (Circuit.region_names c);
  Alcotest.(check (list int)) "members" [ w; y ] (Circuit.region_members c "secret");
  let mask = Circuit.region_mask c "secret" in
  Alcotest.(check bool) "mask w" true mask.(w);
  Alcotest.(check bool) "mask a" false mask.(a);
  let swept, remap = Circuit.sweep c in
  Alcotest.(check (list int)) "members survive sweep"
    [ remap.(w); remap.(y) ]
    (Circuit.region_members swept "secret");
  Alcotest.(check (list int)) "dead member drops out" []
    (Circuit.region_members swept "doomed")

let test_region_io_roundtrip () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  let b = Circuit.add_input ~name:"b" c in
  let w = Circuit.add_gate ~name:"w" c Gate.Nand [ a; b ] in
  let y = Circuit.add_gate ~name:"y" c Gate.Xor [ w; a ] in
  Circuit.set_output c "y" y;
  Circuit.annotate_region c ~region:"core" [ w; y ];
  let text = Io.to_string c in
  Alcotest.(check bool) "pragma emitted" true
    (String.length text > 0
    && List.exists
         (fun l -> l = "# region core : w y")
         (String.split_on_char '\n' text));
  let c' = Io.of_string text in
  Alcotest.(check (list string)) "names roundtrip" [ "core" ] (Circuit.region_names c');
  Alcotest.(check (list string)) "members roundtrip" [ "w"; "y" ]
    (List.map (Circuit.name c') (Circuit.region_members c' "core"));
  (* Malformed / legacy pragmas degrade to plain comments. *)
  let c2 = Io.of_string "INPUT(a)\nOUTPUT(y)\n# region broken\n# just a note\ny = BUF(a)\n" in
  Alcotest.(check (list string)) "malformed pragma ignored" [] (Circuit.region_names c2);
  (* Unknown member nets are located parse errors. *)
  (match Io.of_string_result "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n# region r : ghost\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "pragma with unknown net should fail")

(* A CRLF netlist's region pragma: the '\r' separates words, so the last
   member is [a], not ["a\r"]. Both readers agree. *)
let test_region_pragma_crlf () =
  let text = "INPUT(a)\r\nOUTPUT(a)\r\n# region r : a\r\n" in
  List.iter
    (fun (reader, result) ->
      match result with
      | Ok c ->
        Alcotest.(check (list string)) (reader ^ " regions") [ "r" ] (Circuit.region_names c);
        Alcotest.(check (list string)) (reader ^ " members") [ "a" ]
          (List.map (Circuit.name c) (Circuit.region_members c "r"))
      | Error e -> Alcotest.fail (reader ^ ": " ^ Eda_util.Eda_error.to_string e))
    [ ("reader", Io.of_string_result text); ("list pipeline", Reference.Io_ref.of_string_result text) ]

(* [text] is refused at [line] with [msg] by the reader and by the list
   pipeline alike. *)
let check_refused text ~line ~msg =
  let want = Eda_util.Eda_error.Parse_error { line = Some line; msg } in
  List.iter
    (fun (reader, result) ->
      match result with
      | Error e ->
        Alcotest.(check string) reader (Eda_util.Eda_error.to_string want)
          (Eda_util.Eda_error.to_string e)
      | Ok _ -> Alcotest.failf "%s accepted %S" reader text)
    [ ("reader", Io.of_string_result text); ("list pipeline", Reference.Io_ref.of_string_result text) ]

let test_input_names_no_net () =
  check_refused "INPUT(a)\nINPUT()\nOUTPUT(a)\n" ~line:2 ~msg:"no net name: INPUT()"

let test_output_names_no_net () =
  check_refused "INPUT(a)\nOUTPUT(a)\nOUTPUT( )\n" ~line:3 ~msg:"no net name: OUTPUT( )"

let test_gate_names_no_net () =
  check_refused "INPUT(a)\n= NOT(a)\nOUTPUT(a)" ~line:2 ~msg:"no net name: = NOT(a)"

let test_input_declared_as_gate () =
  check_refused "INPUT(a)\nx = INPUT()\nOUTPUT(x)" ~line:2
    ~msg:"input declared as a gate: x = INPUT()"

let test_misplaced_paren () =
  check_refused "INPUT(a)\ny = AND)(a, a" ~line:2 ~msg:"misplaced ): AND)(a, a"

let prop_random_dag_well_formed =
  QCheck.Test.make ~name:"random dags are well-formed" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let c = Gen.random_dag ~seed ~inputs:8 ~gates:60 ~outputs:4 in
      Circuit.well_formed c)

let prop_io_roundtrip_random =
  QCheck.Test.make ~name:"io roundtrip preserves function" ~count:15
    QCheck.(int_bound 1000)
    (fun seed ->
      let c = Gen.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:3 in
      let c' = Io.of_string (Io.to_string c) in
      Sim.equivalent_exhaustive c c')

let prop_sweep_preserves_function =
  QCheck.Test.make ~name:"sweep preserves function" ~count:15
    QCheck.(int_bound 1000)
    (fun seed ->
      let c = Gen.random_dag ~seed ~inputs:6 ~gates:40 ~outputs:3 in
      let swept, _ = Circuit.sweep c in
      Sim.equivalent_exhaustive c swept)

let () =
  Alcotest.run "netlist"
    [ ("circuit",
       [ Alcotest.test_case "build and eval" `Quick test_build_and_eval;
         Alcotest.test_case "all gate kinds" `Quick test_all_gate_kinds;
         Alcotest.test_case "sweep" `Quick test_sweep_removes_dead;
         Alcotest.test_case "stats" `Quick test_stats;
         Alcotest.test_case "fanouts" `Quick test_fanouts;
         Alcotest.test_case "regions" `Quick test_regions;
         Alcotest.test_case "duplicate name leaves circuit unchanged" `Quick
           test_duplicate_name_unchanged;
         Alcotest.test_case "input position" `Quick test_input_position;
         Alcotest.test_case "output position" `Quick test_output_position ]);
      ("sim",
       [ Alcotest.test_case "word matches scalar" `Quick test_word_sim_matches_scalar;
         Alcotest.test_case "sequential counter" `Quick test_sequential_counter;
         Alcotest.test_case "truth table extraction" `Quick test_truth_table_extraction;
         Alcotest.test_case "signal probabilities" `Quick test_signal_probabilities;
         Alcotest.test_case "equivalence helpers" `Quick test_equivalence_helpers;
         Alcotest.test_case "eval_word_indexed agrees" `Quick test_eval_word_indexed_agrees;
         Alcotest.test_case "eval_all_into matches" `Quick test_eval_all_into_matches;
         Alcotest.test_case "eval_all_word_into matches" `Quick test_eval_all_word_into_matches;
         Alcotest.test_case "word equivalence tail pattern" `Quick
           test_word_equivalence_tail_pattern ]);
      ("generators",
       [ Alcotest.test_case "c17 vectors" `Quick test_c17_reference_vectors;
         Alcotest.test_case "ripple adder exhaustive" `Quick test_ripple_adder;
         Alcotest.test_case "comparator" `Quick test_comparator;
         Alcotest.test_case "parity tree" `Quick test_parity_tree;
         Alcotest.test_case "mux tree" `Quick test_mux_tree;
         Alcotest.test_case "alu" `Quick test_alu;
         Alcotest.test_case "of_truth_table" `Quick test_of_truth_table;
         Alcotest.test_case "of_truth_tables sharing" `Quick test_of_truth_tables_sharing ]);
      ("io",
       [ Alcotest.test_case "roundtrip c17" `Quick test_io_roundtrip;
         Alcotest.test_case "sequential roundtrip" `Quick test_io_sequential_roundtrip;
         Alcotest.test_case "port name collisions" `Quick test_io_port_name_collisions;
         Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
        Alcotest.test_case "reader allocation budget" `Quick test_io_allocation_budget;
         Alcotest.test_case "region pragma roundtrip" `Quick test_region_io_roundtrip;
         Alcotest.test_case "region pragma with CRLF" `Quick test_region_pragma_crlf;
         Alcotest.test_case "INPUT() names no net" `Quick test_input_names_no_net;
         Alcotest.test_case "OUTPUT() names no net" `Quick test_output_names_no_net;
         Alcotest.test_case "gate names no net" `Quick test_gate_names_no_net;
         Alcotest.test_case "input declared as a gate" `Quick test_input_declared_as_gate;
         Alcotest.test_case "misplaced )" `Quick test_misplaced_paren ]);
      ("properties",
       List.map Seeded.to_alcotest
         [ prop_random_dag_well_formed; prop_io_roundtrip_random; prop_sweep_preserves_function ]) ]
