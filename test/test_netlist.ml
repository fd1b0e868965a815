(* Model, builder and AIGER I/O tests. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let toggle_model () =
  (* one latch toggled by an input, property: latch implies property seen *)
  let b = Netlist.Builder.create "toggle" in
  let aig = Netlist.Builder.aig b in
  let e = Netlist.Builder.input b in
  let q = Netlist.Builder.latch b ~init:false in
  Netlist.Builder.connect b q (Aig.xor_ aig q e);
  Netlist.Builder.set_property b (Aig.not_ (Aig.and_ aig q e));
  Netlist.Builder.finish b

let test_builder_basic () =
  let m = toggle_model () in
  check int "one input" 1 (Netlist.Model.num_inputs m);
  check int "one latch" 1 (Netlist.Model.num_latches m);
  check bool "validates" true (Netlist.Model.validate m = Ok ())

let test_builder_errors () =
  (* unconnected latch *)
  (try
     let b = Netlist.Builder.create "bad" in
     let _ = Netlist.Builder.latch b ~init:false in
     Netlist.Builder.set_property b Aig.true_;
     ignore (Netlist.Builder.finish b);
     Alcotest.fail "expected failure for unconnected latch"
   with Failure msg -> check bool "mentions latch" true (String.length msg > 0));
  (* missing property *)
  (try
     let b = Netlist.Builder.create "bad2" in
     ignore (Netlist.Builder.input b);
     ignore (Netlist.Builder.finish b);
     Alcotest.fail "expected failure for missing property"
   with Failure _ -> ());
  (* double connection *)
  let b = Netlist.Builder.create "bad3" in
  let q = Netlist.Builder.latch b ~init:false in
  Netlist.Builder.connect b q Aig.true_;
  Alcotest.check_raises "double connect"
    (Invalid_argument "Builder.connect: latch already connected") (fun () ->
      Netlist.Builder.connect b q Aig.false_);
  (* connecting a non-latch *)
  let b2 = Netlist.Builder.create "bad4" in
  let i = Netlist.Builder.input b2 in
  Alcotest.check_raises "connect an input"
    (Invalid_argument "Builder.connect: not a latch literal") (fun () ->
      Netlist.Builder.connect b2 i Aig.true_)

let test_validate_undeclared () =
  (* construct a model by hand referencing a variable that is neither
     input nor state *)
  let aig = Aig.create () in
  let v_state = Aig.fresh_var aig in
  let v_rogue = Aig.fresh_var aig in
  let m =
    {
      Netlist.Model.name = "rogue";
      aig;
      inputs = [];
      latches =
        [ { Netlist.Model.state_var = v_state; next = Aig.var aig v_rogue; init = false } ];
      property = Aig.true_;
    }
  in
  check bool "validation fails" true (Netlist.Model.validate m <> Ok ())

let test_eval_step () =
  let m = toggle_model () in
  let state0 = Netlist.Model.init_state m in
  let q = List.hd (Netlist.Model.state_vars m) in
  let e = List.hd (Netlist.Model.input_vars m) in
  check bool "initial latch value" false (state0 q);
  (* toggle on *)
  let state1 = Netlist.Model.eval_step m ~state:state0 ~inputs:(fun v -> v = e) in
  check bool "toggled to true" true (state1 q);
  (* hold *)
  let state2 = Netlist.Model.eval_step m ~state:state1 ~inputs:(fun _ -> false) in
  check bool "held" true (state2 q);
  (* toggle off *)
  let state3 = Netlist.Model.eval_step m ~state:state2 ~inputs:(fun v -> v = e) in
  check bool "toggled back" false (state3 q)

let test_init_lit () =
  let b = Netlist.Builder.create "inits" in
  let q0 = Netlist.Builder.latch b ~init:true in
  let q1 = Netlist.Builder.latch b ~init:false in
  Netlist.Builder.connect b q0 q0;
  Netlist.Builder.connect b q1 q1;
  Netlist.Builder.set_property b Aig.true_;
  let m = Netlist.Builder.finish b in
  let aig = Netlist.Model.aig m in
  let init = Netlist.Model.init_lit m in
  check bool "init state satisfies init_lit" true
    (Aig.eval aig init (Netlist.Model.init_state m));
  (* any other state falsifies it *)
  check bool "flipped state rejected" false (Aig.eval aig init (fun _ -> false))

let test_property_holds () =
  let m = toggle_model () in
  check bool "property true initially" true
    (Netlist.Model.property_holds m ~state:(Netlist.Model.init_state m))

let test_stats () =
  let m = toggle_model () in
  let s = Netlist.Model.stats m in
  check int "inputs" 1 s.Netlist.Model.inputs;
  check int "latches" 1 s.Netlist.Model.latches;
  check bool "next function has gates" true (s.Netlist.Model.next_size > 0)

(* ---------- aiger ---------- *)

let models_equivalent m1 m2 =
  (* same interface sizes and pointwise-equal behaviour under random
     stimulus (deterministic prng) *)
  Netlist.Model.num_inputs m1 = Netlist.Model.num_inputs m2
  && Netlist.Model.num_latches m1 = Netlist.Model.num_latches m2
  &&
  let prng = Util.Prng.create 99 in
  let inputs1 = Netlist.Model.input_vars m1 and inputs2 = Netlist.Model.input_vars m2 in
  let state1 = ref (Netlist.Model.init_state m1) and state2 = ref (Netlist.Model.init_state m2) in
  let ok = ref (Netlist.Model.property_holds m1 ~state:!state1 = Netlist.Model.property_holds m2 ~state:!state2) in
  for _ = 1 to 100 do
    let bits = List.map (fun _ -> Util.Prng.bool prng) inputs1 in
    let assign vars = List.combine vars bits in
    let in1 = assign inputs1 and in2 = assign inputs2 in
    state1 := Netlist.Model.eval_step m1 ~state:!state1 ~inputs:(fun v -> List.assoc v in1);
    state2 := Netlist.Model.eval_step m2 ~state:!state2 ~inputs:(fun v -> List.assoc v in2);
    if
      Netlist.Model.property_holds m1 ~state:!state1
      <> Netlist.Model.property_holds m2 ~state:!state2
    then ok := false
  done;
  !ok

let test_aiger_roundtrip_toggle () =
  let m = toggle_model () in
  let text = Netlist.Aiger.write m in
  let m' = Netlist.Aiger.read ~name:"toggle-reread" text in
  check bool "roundtrip behaviour" true (models_equivalent m m')

let test_aiger_roundtrip_families () =
  List.iter
    (fun (mk : unit -> Netlist.Model.t) ->
      let m = mk () in
      let m' = Netlist.Aiger.read ~name:"reread" (Netlist.Aiger.write m) in
      check bool (Netlist.Model.name m ^ " roundtrip") true (models_equivalent m m'))
    [
      (fun () -> Circuits.Families.counter ~bits:3);
      (fun () -> Circuits.Families.gray_counter ~bits:3);
      (fun () -> Circuits.Families.fifo ~buggy:true ~depth_log:2 ());
      (fun () -> Circuits.Families.peterson ());
      (fun () -> Circuits.Families.rr_arbiter ~n:3);
    ]

let test_aiger_format_shape () =
  let m = toggle_model () in
  let text = Netlist.Aiger.write m in
  check bool "header present" true (String.length text > 4 && String.sub text 0 4 = "aag ");
  (* init values are written in the three-field form *)
  let lines = String.split_on_char '\n' text in
  let latch_line = List.nth lines 2 in
  check int "latch line has three fields" 3
    (List.length (String.split_on_char ' ' (String.trim latch_line)))

let test_aiger_errors () =
  let expect_failure name text =
    try
      ignore (Netlist.Aiger.read ~name text);
      Alcotest.fail (name ^ ": expected parse failure")
    with Netlist.Aiger.Parse_error _ -> ()
  in
  expect_failure "empty" "";
  expect_failure "bad header" "aig 1 2 3";
  expect_failure "truncated" "aag 3 2 0 1 1\n2\n4\n";
  expect_failure "undefined literal" "aag 2 1 0 1 0\n2\n99\n";
  expect_failure "no output" "aag 1 1 0 0 0\n2\n"

(* the structured exception must carry the 1-based line number and the
   offending token, for both the ascii and the binary reader *)
let test_aiger_parse_error_details () =
  let expect_error name reader text ~line ~token =
    try
      ignore (reader text);
      Alcotest.fail (name ^ ": expected parse failure")
    with Netlist.Aiger.Parse_error e ->
      check int (name ^ ": line") line e.line;
      check Alcotest.string (name ^ ": token") token e.token
  in
  let ascii = Netlist.Aiger.read ~name:"t" in
  expect_error "header token" ascii "aag 2 x 0 1 0\n2\n2\n" ~line:1 ~token:"x";
  expect_error "input line" ascii "aag 2 1 1 1 0\nzz\n4 2\n4\n" ~line:2 ~token:"zz";
  expect_error "latch token" ascii "aag 2 1 1 1 0\n2\n4 zz\n4\n" ~line:3 ~token:"zz";
  expect_error "odd latch literal" ascii "aag 2 1 1 1 0\n2\n5 2\n4\n" ~line:3 ~token:"5 2";
  expect_error "undefined output literal" ascii "aag 2 1 0 1 0\n2\n99\n" ~line:3 ~token:"99";
  expect_error "and line" ascii "aag 3 1 0 1 1\n2\n6\n6 2\n" ~line:4 ~token:"6 2";
  (* header counts are untrusted: a negative one, or one so large that
     1 + I + L + O + A wraps around (M = I = max_int on 64-bit) *)
  expect_error "negative count" ascii "aag 1 1 0 1 -1\n2\n2\n" ~line:1 ~token:"-1";
  expect_error "count beyond the document" ascii
    "aag 4611686018427387903 4611686018427387903 0 0 0\n2" ~line:1
    ~token:"4611686018427387903";
  (* binary reader: latch lines start at absolute line 2 *)
  let binary = Netlist.Aiger.read_binary ~name:"t" in
  expect_error "binary latch token" binary "aig 2 1 1 1 0\nzz\n4\n" ~line:2 ~token:"zz";
  expect_error "binary output token" binary "aig 2 1 1 1 0\n4 0\nzz\n" ~line:3 ~token:"zz";
  (* registered printer renders the diagnostic *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let rendered =
    Printexc.to_string
      (Netlist.Aiger.Parse_error { line = 7; token = "zz"; reason = "expected an integer" })
  in
  check bool "printer mentions the line" true (contains rendered "line 7");
  check bool "printer mentions the token" true (contains rendered "zz")

let test_aiger_two_field_latches () =
  (* classic aag with two-field latches resets to zero *)
  let text = "aag 2 1 1 1 0\n2\n4 2\n4\n" in
  let m = Netlist.Aiger.read ~name:"two-field" text in
  check int "one latch" 1 (Netlist.Model.num_latches m);
  let q = List.hd (Netlist.Model.state_vars m) in
  check bool "reset to zero" false (Netlist.Model.init_state m q)

(* the writer is canonical: one read normalizes any model, after which
   write∘read is the identity on documents — so textual equality is
   structural equality, the property the fuzzer's round-trip oracle
   relies on (Fuzz.Oracle.check_roundtrip) *)
let test_aiger_ascii_write_read_fixpoint () =
  for seed = 0 to 49 do
    let m = Fuzz.Gen.model ~seed () in
    let t1 = Netlist.Aiger.write m in
    let m1 = Netlist.Aiger.read ~name:(Netlist.Model.name m) t1 in
    check bool
      (Printf.sprintf "seed %d ascii fixpoint" seed)
      true
      (Netlist.Aiger.write m1 = t1)
  done

let test_aiger_binary_write_read_fixpoint () =
  for seed = 0 to 49 do
    let m = Fuzz.Gen.model ~seed () in
    let t1 = Netlist.Aiger.write_binary m in
    let m1 = Netlist.Aiger.read_binary ~name:(Netlist.Model.name m) t1 in
    check bool
      (Printf.sprintf "seed %d binary fixpoint" seed)
      true
      (Netlist.Aiger.write_binary m1 = t1)
  done

(* degenerate shapes that historically stressed the parser: constant and
   self-loop next functions, complemented latch feeds, constant
   properties, input-free models *)
let edge_models () =
  let constant_next () =
    let b = Netlist.Builder.create "constant-next" in
    let q = Netlist.Builder.latch b ~init:false in
    Netlist.Builder.connect b q Aig.true_;
    Netlist.Builder.set_property b (Aig.not_ q);
    Netlist.Builder.finish b
  in
  let self_loop () =
    let b = Netlist.Builder.create "self-loop" in
    let q = Netlist.Builder.latch b ~init:true in
    Netlist.Builder.connect b q (Aig.not_ q);
    Netlist.Builder.set_property b q;
    Netlist.Builder.finish b
  in
  let constant_property () =
    let b = Netlist.Builder.create "constant-property" in
    let aig = Netlist.Builder.aig b in
    let x = Netlist.Builder.input b in
    let q = Netlist.Builder.latch b ~init:false in
    Netlist.Builder.connect b q (Aig.and_ aig x q);
    Netlist.Builder.set_property b Aig.true_;
    Netlist.Builder.finish b
  in
  let no_inputs () =
    let b = Netlist.Builder.create "no-inputs" in
    let aig = Netlist.Builder.aig b in
    let q1 = Netlist.Builder.latch b ~init:false in
    let q2 = Netlist.Builder.latch b ~init:true in
    Netlist.Builder.connect b q1 q2;
    Netlist.Builder.connect b q2 (Aig.not_ q1);
    Netlist.Builder.set_property b (Aig.or_ aig q1 q2);
    Netlist.Builder.finish b
  in
  [ constant_next (); self_loop (); constant_property (); no_inputs () ]

let test_aiger_roundtrip_edge_models () =
  List.iter
    (fun m ->
      let name = Netlist.Model.name m in
      let t1 = Netlist.Aiger.write m in
      let m1 = Netlist.Aiger.read ~name t1 in
      check bool (name ^ " ascii fixpoint") true (Netlist.Aiger.write m1 = t1);
      check bool (name ^ " behaviour preserved") true (models_equivalent m m1);
      let b1 = Netlist.Aiger.write_binary m in
      let m2 = Netlist.Aiger.read_binary ~name b1 in
      check bool (name ^ " binary fixpoint") true (Netlist.Aiger.write_binary m2 = b1))
    (edge_models ())

let test_aiger_binary_roundtrip () =
  List.iter
    (fun (mk : unit -> Netlist.Model.t) ->
      let m = mk () in
      let m' = Netlist.Aiger.read_binary ~name:"reread" (Netlist.Aiger.write_binary m) in
      check bool (Netlist.Model.name m ^ " binary roundtrip") true (models_equivalent m m'))
    [
      (fun () -> Circuits.Families.counter ~bits:3);
      (fun () -> Circuits.Families.gray_counter ~bits:3);
      (fun () -> Circuits.Families.fifo ~buggy:true ~depth_log:2 ());
      (fun () -> Circuits.Families.peterson ());
      (fun () -> Circuits.Families.tmr ~bits:3);
    ]

let test_aiger_binary_cross_format () =
  (* ascii and binary renderings of the same model read back equivalent *)
  let m = Circuits.Families.rr_arbiter ~n:3 in
  let ascii = Netlist.Aiger.read ~name:"a" (Netlist.Aiger.write m) in
  let binary = Netlist.Aiger.read_binary ~name:"b" (Netlist.Aiger.write_binary m) in
  check bool "formats agree" true (models_equivalent ascii binary)

let test_aiger_binary_smaller () =
  let m = Circuits.Families.tmr ~bits:4 in
  check bool "binary encoding is more compact" true
    (String.length (Netlist.Aiger.write_binary m) < String.length (Netlist.Aiger.write m))

let test_aiger_read_dispatch () =
  let m = Circuits.Families.counter ~bits:3 in
  let path_bin = Filename.temp_file "cbq_test" ".aig" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path_bin)
    (fun () ->
      Netlist.Aiger.write_binary_file m path_bin;
      let m' = Netlist.Aiger.read_file path_bin in
      check bool "read_file dispatches on the binary magic" true (models_equivalent m m'));
  (* the ascii entry point rejects binary input *)
  try
    ignore (Netlist.Aiger.read ~name:"x" (Netlist.Aiger.write_binary m));
    Alcotest.fail "expected rejection"
  with Netlist.Aiger.Parse_error _ -> ()

let test_aiger_file_io () =
  let m = toggle_model () in
  let path = Filename.temp_file "cbq_test" ".aag" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Netlist.Aiger.write_file m path;
      let m' = Netlist.Aiger.read_file path in
      check bool "file roundtrip" true (models_equivalent m m'))

let () =
  Alcotest.run "netlist"
    [
      ( "builder",
        [
          Alcotest.test_case "basic model" `Quick test_builder_basic;
          Alcotest.test_case "error cases" `Quick test_builder_errors;
          Alcotest.test_case "undeclared variable" `Quick test_validate_undeclared;
        ] );
      ( "model",
        [
          Alcotest.test_case "eval_step" `Quick test_eval_step;
          Alcotest.test_case "init_lit" `Quick test_init_lit;
          Alcotest.test_case "property_holds" `Quick test_property_holds;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "aiger",
        [
          Alcotest.test_case "roundtrip toggle" `Quick test_aiger_roundtrip_toggle;
          Alcotest.test_case "roundtrip families" `Quick test_aiger_roundtrip_families;
          Alcotest.test_case "format shape" `Quick test_aiger_format_shape;
          Alcotest.test_case "parse errors" `Quick test_aiger_errors;
          Alcotest.test_case "parse error details" `Quick test_aiger_parse_error_details;
          Alcotest.test_case "two-field latches" `Quick test_aiger_two_field_latches;
          Alcotest.test_case "file io" `Quick test_aiger_file_io;
          Alcotest.test_case "ascii write∘read fixpoint" `Quick
            test_aiger_ascii_write_read_fixpoint;
          Alcotest.test_case "binary write∘read fixpoint" `Quick
            test_aiger_binary_write_read_fixpoint;
          Alcotest.test_case "edge-model roundtrips" `Quick test_aiger_roundtrip_edge_models;
          Alcotest.test_case "binary roundtrip" `Quick test_aiger_binary_roundtrip;
          Alcotest.test_case "binary/ascii agreement" `Quick test_aiger_binary_cross_format;
          Alcotest.test_case "binary is compact" `Quick test_aiger_binary_smaller;
          Alcotest.test_case "read_file dispatch" `Quick test_aiger_read_dispatch;
        ] );
    ]
