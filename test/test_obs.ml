(* Telemetry layer: counter/span/histogram semantics, the JSON
   round-trip, the documented report schema, and an end-to-end check that
   a real traversal fills the merge-provenance counters. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* Every test toggles the global registry; reset on entry so ordering
   does not matter, and disable on exit so later suites run on the
   uninstrumented fast path. *)
let with_obs enabled f =
  Obs.reset ();
  Obs.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) f

(* ---------- counters ---------- *)

let test_counter_disabled () =
  with_obs false @@ fun () ->
  let c = Obs.counter "test.counter_disabled" in
  Obs.incr c;
  Obs.add c 41;
  check int "disabled counter never moves" 0 (Obs.value c)

let test_counter_enabled () =
  with_obs true @@ fun () ->
  let c = Obs.counter "test.counter_enabled" in
  Obs.incr c;
  Obs.add c 41;
  check int "incr + add" 42 (Obs.value c);
  check int "value_of finds it" 42 (Obs.value_of "test.counter_enabled");
  check int "value_of on unknown name" 0 (Obs.value_of "test.no_such_counter")

let test_counter_identity () =
  with_obs true @@ fun () ->
  (* registration is idempotent: the same name yields the same cell, so
     two modules can account into one metric without sharing handles *)
  let a = Obs.counter "test.shared" in
  let b = Obs.counter "test.shared" in
  Obs.incr a;
  Obs.incr b;
  check int "both handles hit one cell" 2 (Obs.value a)

let test_reset () =
  with_obs true @@ fun () ->
  let c = Obs.counter "test.reset" in
  Obs.add c 7;
  Obs.reset ();
  check int "reset zeroes" 0 (Obs.value c);
  Obs.set_enabled true;
  Obs.incr c;
  check int "handle survives reset" 1 (Obs.value c)

(* ---------- spans ---------- *)

let test_span () =
  with_obs true @@ fun () ->
  let s = Obs.span "test.span" in
  let r = Obs.with_span s (fun () -> 17) in
  check int "with_span returns f's result" 17 r;
  Obs.add_seconds s 0.5;
  check int "two recordings" 2 (Obs.span_count s);
  check bool "time accumulated" true (Obs.span_seconds s >= 0.5)

let test_span_exception () =
  with_obs true @@ fun () ->
  let s = Obs.span "test.span_exn" in
  (try Obs.with_span s (fun () -> failwith "boom") with Failure _ -> ());
  check int "recorded despite the raise" 1 (Obs.span_count s)

let test_span_disabled () =
  with_obs false @@ fun () ->
  let s = Obs.span "test.span_off" in
  let r = Obs.with_span s (fun () -> 3) in
  check int "still runs f" 3 r;
  check int "nothing recorded" 0 (Obs.span_count s)

(* ---------- histograms ---------- *)

let test_histogram () =
  with_obs true @@ fun () ->
  let h = Obs.histogram "test.hist" in
  List.iter (Obs.observe h) [ 0; 1; 2; 3; 4; 100; -5 ];
  check int "count" 7 (Obs.hist_count h);
  (* -5 clamps to 0 *)
  check int "sum" 110 (Obs.hist_sum h)

let test_histogram_buckets () =
  with_obs true @@ fun () ->
  let h = Obs.histogram "test.hist_buckets" in
  (* bucket 0 = {0}; bucket i = [2^(i-1), 2^i) *)
  List.iter (Obs.observe h) [ 0; 1; 2; 3; 4; 7; 8 ];
  let json = Obs.report () in
  let buckets =
    match
      Option.bind (Obs.Json.member "histograms" json) (fun hs ->
          Option.bind (Obs.Json.member "test.hist_buckets" hs) (Obs.Json.member "buckets"))
    with
    | Some (Obs.Json.List bs) ->
      List.map
        (fun b ->
          match
            (Obs.Json.member "lo" b, Obs.Json.member "hi" b, Obs.Json.member "count" b)
          with
          | Some (Obs.Json.Int lo), Some (Obs.Json.Int hi), Some (Obs.Json.Int c) ->
            (lo, hi, c)
          | _ -> Alcotest.fail "malformed bucket")
        bs
    | _ -> Alcotest.fail "missing buckets"
  in
  Alcotest.(check (list (triple int int int)))
    "power-of-two buckets"
    [ (0, 0, 1); (1, 1, 1); (2, 3, 2); (4, 7, 2); (8, 15, 1) ]
    buckets

(* ---------- JSON ---------- *)

let test_json_round_trip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("flag", Obs.Json.Bool true);
        ("n", Obs.Json.Int (-42));
        ("x", Obs.Json.Float 1.5);
        ("s", Obs.Json.String "with \"quotes\", \\slashes\\ and\nnewlines\tplus \x01 control");
        ("items", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.List []; Obs.Json.Obj [] ]);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> check bool "round-trip preserves the value" true (v = v')
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)

let test_json_pretty_parses () =
  let v = Obs.Json.Obj [ ("a", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ]) ] in
  let pretty = Format.asprintf "%a" Obs.Json.pp v in
  match Obs.Json.of_string pretty with
  | Ok v' -> check bool "pretty output parses back" true (v = v')
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated";
      (* one level past the nesting cap *)
      String.make 65 '[' ^ String.make 65 ']';
    ]

(* ---------- report schema ---------- *)

let test_report_schema () =
  with_obs true @@ fun () ->
  let c = Obs.counter "test.schema.counter" in
  let s = Obs.span "test.schema.span" in
  let h = Obs.histogram "test.schema.hist" in
  Obs.add c 5;
  Obs.add_seconds s 0.25;
  Obs.observe h 12;
  Obs.meta "model" "unit-test";
  let json = Obs.report () in
  (* top-level shape, as documented in docs/OBSERVABILITY.md *)
  check bool "schema_version = 2" true
    (Obs.Json.member "schema_version" json = Some (Obs.Json.Int 2));
  (match Obs.Json.member "meta" json with
  | Some m ->
    check bool "meta holds the stamped pair" true
      (Obs.Json.member "model" m = Some (Obs.Json.String "unit-test"));
    (* v2: provenance is stamped into every report *)
    check bool "ocaml_version stamped" true
      (Obs.Json.member "ocaml_version" m = Some (Obs.Json.String Sys.ocaml_version));
    check bool "word_size stamped" true
      (Obs.Json.member "word_size" m = Some (Obs.Json.String (string_of_int Sys.word_size)));
    check bool "hostname stamped" true (Obs.Json.member "hostname" m <> None)
  | None -> Alcotest.fail "missing meta");
  (* no sampler ran: the optional timeseries section is absent *)
  check bool "no timeseries without a sampler" true (Obs.Json.member "timeseries" json = None);
  (match Obs.Json.member "counters" json with
  | Some cs ->
    check bool "counter under its dotted name" true
      (Obs.Json.member "test.schema.counter" cs = Some (Obs.Json.Int 5));
    (* zero-valued counters are still reported: consumers diff runs *)
    check bool "zero counters present" true
      (Obs.Json.member "sweep.merge.sat" cs <> None)
  | None -> Alcotest.fail "missing counters");
  (match Option.bind (Obs.Json.member "spans" json) (Obs.Json.member "test.schema.span") with
  | Some sp ->
    check bool "span count" true (Obs.Json.member "count" sp = Some (Obs.Json.Int 1));
    check bool "span seconds" true
      (match Obs.Json.member "seconds" sp with
      | Some (Obs.Json.Float f) -> f = 0.25
      | _ -> false)
  | None -> Alcotest.fail "missing span entry");
  (match
     Option.bind (Obs.Json.member "histograms" json) (Obs.Json.member "test.schema.hist")
   with
  | Some hi ->
    check bool "hist sum" true (Obs.Json.member "sum" hi = Some (Obs.Json.Int 12));
    check bool "hist min" true (Obs.Json.member "min" hi = Some (Obs.Json.Int 12));
    check bool "hist max" true (Obs.Json.member "max" hi = Some (Obs.Json.Int 12))
  | None -> Alcotest.fail "missing histogram entry");
  (* the serialized report must parse back *)
  match Obs.Json.of_string (Obs.Json.to_string json) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("report does not round-trip: " ^ msg)

(* edge reports must serialize to parseable JSON and read back with the
   same metric content: empty, max_int counters, non-finite span times
   (clamped to 0.0 by the serializer — JSON has no inf/nan) *)
let test_report_edges () =
  let parse_back () =
    let json = Obs.report () in
    match Obs.Json.of_string (Obs.Json.to_string json) with
    | Ok v -> v
    | Error msg -> Alcotest.fail ("edge report does not round-trip: " ^ msg)
  in
  (* empty: no metric recorded, no metadata *)
  with_obs true (fun () ->
      let v = parse_back () in
      check bool "empty report has schema_version" true
        (Obs.Json.member "schema_version" v = Some (Obs.Json.Int 2));
      check bool "empty report has a counters object" true
        (match Obs.Json.member "counters" v with Some (Obs.Json.Obj _) -> true | _ -> false));
  (* max_int counter survives the round-trip exactly *)
  with_obs true (fun () ->
      Obs.add (Obs.counter "test.edge.maxint") max_int;
      let v = parse_back () in
      match Option.bind (Obs.Json.member "counters" v) (Obs.Json.member "test.edge.maxint") with
      | Some (Obs.Json.Int n) -> check bool "max_int exact" true (n = max_int)
      | _ -> Alcotest.fail "max_int counter missing");
  (* non-finite span seconds are clamped, not emitted as invalid JSON *)
  with_obs true (fun () ->
      let s = Obs.span "test.edge.inf" in
      Obs.add_seconds s infinity;
      Obs.add_seconds s nan;
      let v = parse_back () in
      match Option.bind (Obs.Json.member "spans" v) (Obs.Json.member "test.edge.inf") with
      | Some sp ->
        check bool "clamped to a finite float" true
          (match Obs.Json.member "seconds" sp with
          | Some (Obs.Json.Float f) -> Float.is_finite f
          | Some (Obs.Json.Int _) -> true
          | _ -> false)
      | None -> Alcotest.fail "span entry missing")

let test_write_report () =
  with_obs true @@ fun () ->
  Obs.incr (Obs.counter "test.file.counter");
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write_report path;
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.of_string (String.trim text) with
      | Ok json ->
        check bool "file contains the report" true
          (match Obs.Json.member "counters" json with
          | Some cs -> Obs.Json.member "test.file.counter" cs = Some (Obs.Json.Int 1)
          | None -> false)
      | Error msg -> Alcotest.fail ("written report unparseable: " ^ msg))

(* ---------- integration: a real traversal fills the metrics ---------- *)

let test_traversal_provenance () =
  with_obs true @@ fun () ->
  let model = Circuits.Families.counter ~bits:4 in
  let config = { Cbq.Reachability.default with make_trace = false } in
  let r = Cbq.Reachability.run ~config model in
  (match r.Cbq.Reachability.verdict with
  | Cbq.Verdict.Falsified _ -> ()
  | _ -> Alcotest.fail "counter ~bits:4 must be falsified");
  let nonzero name = check bool (name ^ " > 0") true (Obs.value_of name > 0) in
  (* per-frame accounting *)
  nonzero "reach.iterations";
  check int "one counted iteration per recorded one"
    (List.length r.Cbq.Reachability.iterations)
    (Obs.value_of "reach.iterations");
  (* merge provenance: structural hashing and simulation candidates always
     fire on this model; at least one proof technique must close merges *)
  nonzero "sweep.runs";
  nonzero "sweep.merge.hash";
  nonzero "sweep.merge.sim";
  check bool "some proven merges (bdd or sat)" true
    (Obs.value_of "sweep.merge.bdd" + Obs.value_of "sweep.merge.sat" > 0);
  (* quantification accounting covers every variable it saw *)
  nonzero "quantify.vars.eliminated";
  (* the factorized checker drives the solver through the wrapper *)
  nonzero "cnf.queries";
  nonzero "sat.solve_calls";
  nonzero "aig.strash_hits";
  (* the BDD engines run on the same frame loop, so they count alike *)
  Obs.reset ();
  let b = Baselines.Bdd_mc.forward ~config (Circuits.Families.counter ~bits:4) in
  check int "one counted iteration per recorded one (bdd-fwd)"
    (List.length b.reach.Cbq.Reachability.iterations)
    (Obs.value_of "reach.iterations")

let test_bench_row_isolation () =
  (* the bench harness pattern: one telemetry window per experiment row,
     reset between rows so no counts leak from row 1 into row 2's report *)
  with_obs false @@ fun () ->
  let row bits =
    Obs.reset ();
    Obs.set_enabled true;
    let model = Circuits.Families.counter ~bits in
    let config = { Cbq.Reachability.default with make_trace = false } in
    ignore (Cbq.Reachability.run ~config model);
    Obs.set_enabled false;
    let iterations = Obs.value_of "reach.iterations" in
    let json = Obs.report () in
    Obs.reset ();
    (iterations, json)
  in
  let iters1, _ = row 4 in
  let iters2, report2 = row 3 in
  check bool "rows differ in work" true (iters1 <> iters2);
  (match Option.bind (Obs.Json.member "counters" report2) (Obs.Json.member "reach.iterations") with
  | Some (Obs.Json.Int n) -> check int "row 2's report reflects only row 2" iters2 n
  | _ -> Alcotest.fail "reach.iterations missing from the report");
  check int "registry clean after the last reset" 0 (Obs.value_of "reach.iterations")

(* the per-run watch-reset bugfix: back-to-back runs in one process must
   not report elapsed time measured from the single [start] call. Frames
   are written to a file channel (not a TTY), one line per frame, ending
   in the elapsed "%.1fs" field. *)
let test_progress_begin_run_resets_watch () =
  let path = Filename.temp_file "cbq_progress" ".log" in
  let ch = open_out path in
  Obs.Progress.start ~channel:ch ();
  Obs.Progress.frame ~index:0 ~nodes:1;
  (* burn enough wall time for the %.1f field to move *)
  let w = Util.Stopwatch.start () in
  while Util.Stopwatch.elapsed w < 0.25 do () done;
  Obs.Progress.frame ~index:1 ~nodes:1;
  Obs.Progress.begin_run ();
  (* a new run begins: its first frame must report ~0 elapsed *)
  Obs.Progress.frame ~index:0 ~nodes:1;
  Obs.Progress.finish ();
  close_out ch;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let ends_zero l = String.length l > 4 && String.sub l (String.length l - 4) 4 = "0.0s" in
  match !lines with
  | after_reset :: before_reset :: _ ->
    check bool "stale watch visible before the reset" false (ends_zero before_reset);
    check bool "fresh watch after begin_run" true (ends_zero after_reset)
  | _ -> Alcotest.fail "expected at least two progress lines"

(* TTY teardown: the in-place line must be newline-terminated when the
   run region ends — including by exception — so later output (stats
   summary, a backtrace) never lands mid-line. [~tty:true] forces the
   rewrite path even though the capture channel is a pipe/file. *)
let test_progress_tty_teardown () =
  let path = Filename.temp_file "cbq_progress_tty" ".log" in
  let ch = open_out path in
  Obs.Progress.start ~channel:ch ~tty:true ();
  (try
     Fun.protect
       ~finally:Obs.Progress.finish
       (fun () ->
         Obs.Progress.frame ~index:0 ~nodes:7;
         Obs.Progress.frame ~index:1 ~nodes:9;
         failwith "engine blew up")
   with Failure _ -> ());
  close_out ch;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check bool "frames rewrite in place" true (String.contains text '\r');
  check bool "line terminated despite the exception" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  (* disarmed: later frames are silent, a second finish is a no-op *)
  Obs.Progress.frame ~index:2 ~nodes:1;
  Obs.Progress.finish ()

let test_disabled_traversal_is_silent () =
  with_obs false @@ fun () ->
  let model = Circuits.Families.counter ~bits:3 in
  let config = { Cbq.Reachability.default with make_trace = false } in
  ignore (Cbq.Reachability.run ~config model);
  check int "no iterations counted" 0 (Obs.value_of "reach.iterations");
  check int "no sweep runs counted" 0 (Obs.value_of "sweep.runs");
  check string "summary only renders the header" "run telemetry:\n"
    (Format.asprintf "%a" Obs.pp_summary ())

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_counter_disabled;
          Alcotest.test_case "incr and add" `Quick test_counter_enabled;
          Alcotest.test_case "same name, same cell" `Quick test_counter_identity;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "spans",
        [
          Alcotest.test_case "with_span + add_seconds" `Quick test_span;
          Alcotest.test_case "records on exception" `Quick test_span_exception;
          Alcotest.test_case "disabled passthrough" `Quick test_span_disabled;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "count, sum, clamping" `Quick test_histogram;
          Alcotest.test_case "power-of-two buckets" `Quick test_histogram_buckets;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "pretty output parses" `Quick test_json_pretty_parses;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects_garbage;
        ] );
      ( "report",
        [
          Alcotest.test_case "documented schema" `Quick test_report_schema;
          Alcotest.test_case "edge reports round-trip" `Quick test_report_edges;
          Alcotest.test_case "write_report" `Quick test_write_report;
        ] );
      ( "integration",
        [
          Alcotest.test_case "traversal fills provenance counters" `Quick
            test_traversal_provenance;
          Alcotest.test_case "disabled run stays silent" `Quick
            test_disabled_traversal_is_silent;
          Alcotest.test_case "bench rows are isolated" `Quick test_bench_row_isolation;
          Alcotest.test_case "begin_run resets the progress watch" `Quick
            test_progress_begin_run_resets_watch;
          Alcotest.test_case "tty teardown survives exceptions" `Quick
            test_progress_tty_teardown;
        ] );
    ]
