(* Bench regression detection: report flattening, delta gating semantics
   (symmetric relative threshold, timings gated separately), directory
   pairing, and the pass/fail verdict the cbq-bench-regress executable
   turns into its exit status. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let report ?(schema = 1) ?(meta = []) ?(counters = []) ?(spans = []) ?(histograms = []) () =
  let open Obs.Json in
  Obj
    [
      ("schema_version", Int schema);
      ("meta", Obj (List.map (fun (k, v) -> (k, String v)) meta));
      ("counters", Obj (List.map (fun (n, v) -> (n, Int v)) counters));
      ( "spans",
        Obj
          (List.map
             (fun (n, count, seconds) ->
               (n, Obj [ ("count", Int count); ("seconds", Float seconds) ]))
             spans) );
      ( "histograms",
        Obj
          (List.map
             (fun (n, count, sum) -> (n, Obj [ ("count", Int count); ("sum", Int sum) ]))
             histograms) );
    ]

(* ---------- compare_reports ---------- *)

let test_identical_reports () =
  let r =
    report
      ~counters:[ ("sweep.merge.sat", 12) ]
      ~spans:[ ("sat.solve", 5, 0.25) ]
      ~histograms:[ ("sweep.cone_size", 3, 90) ]
      ()
  in
  check int "no deltas between identical reports" 0
    (List.length (Obs.Regress.compare_reports r r))

let test_changed_metrics_only () =
  let old_r = report ~counters:[ ("a", 10); ("b", 5) ] () in
  let new_r = report ~counters:[ ("a", 10); ("b", 6) ] () in
  match Obs.Regress.compare_reports old_r new_r with
  | [ d ] ->
    check string "only the changed counter" "counters.b" d.Obs.Regress.metric;
    check bool "relative delta" true (Float.abs (d.Obs.Regress.rel -. 0.2) < 1e-9);
    check bool "counters are not timings" false d.Obs.Regress.timing
  | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds)

let test_one_sided_metric_compares_to_zero () =
  let old_r = report () in
  let new_r = report ~spans:[ ("sat.solve", 4, 0.5) ] () in
  let ds = Obs.Regress.compare_reports old_r new_r in
  let find m = List.find (fun d -> d.Obs.Regress.metric = m) ds in
  let count = find "spans.sat.solve.count" in
  check bool "new-only metric is an infinite rise" true (count.Obs.Regress.rel = infinity);
  check bool "span seconds flagged as timing" true
    (find "spans.sat.solve.seconds").Obs.Regress.timing;
  check bool "span count is deterministic" false count.Obs.Regress.timing

let test_gate_is_symmetric () =
  let old_r = report ~counters:[ ("a", 100) ] () in
  let new_r = report ~counters:[ ("a", 10) ] () in
  match Obs.Regress.compare_reports old_r new_r with
  | [ d ] ->
    check bool "drops gate too" true
      (Obs.Regress.exceeds ~threshold:0.1 ~time_threshold:None d)
  | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds)

let test_timing_gated_separately () =
  let old_r = report ~spans:[ ("sat.solve", 5, 0.1) ] () in
  let new_r = report ~spans:[ ("sat.solve", 5, 0.4) ] () in
  match Obs.Regress.compare_reports old_r new_r with
  | [ d ] ->
    check bool "timing ignored without a time threshold" false
      (Obs.Regress.exceeds ~threshold:0.1 ~time_threshold:None d);
    check bool "timing gated when asked" true
      (Obs.Regress.exceeds ~threshold:0.1 ~time_threshold:(Some 1.0) d)
  | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds)

(* ---------- validation and provenance ---------- *)

let test_validate_report () =
  let ok r = match Obs.Regress.validate_report r with Ok _ -> true | Error _ -> false in
  check bool "schema 1 accepted" true (ok (report ~schema:1 ()));
  check bool "schema 2 accepted" true (ok (report ~schema:2 ()));
  check bool "schema 3 rejected" false (ok (report ~schema:3 ()));
  check bool "non-object rejected" false (ok (Obs.Json.List []));
  check bool "missing schema_version rejected" false
    (ok (Obs.Json.Obj [ ("counters", Obs.Json.Obj []) ]));
  check bool "missing counters rejected" false
    (ok (Obs.Json.Obj [ ("schema_version", Obs.Json.Int 2) ]));
  (match Obs.Regress.validate_report (report ~schema:7 ()) with
  | Error msg -> check bool "error names the version" true (contains msg "7")
  | Ok _ -> Alcotest.fail "schema 7 accepted")

let test_meta_mismatches () =
  let old_r = report ~schema:1 ~meta:[ ("hostname", "alpha"); ("model", "counter4") ] () in
  let new_r =
    report ~schema:2
      ~meta:[ ("hostname", "beta"); ("model", "arbiter3"); ("ocaml_version", "5.1.1") ]
      ()
  in
  let diff = Obs.Regress.meta_mismatches old_r new_r in
  check bool "schema bump reported" true (List.mem ("schema_version", "1", "2") diff);
  check bool "hostname change reported" true (List.mem ("hostname", "alpha", "beta") diff);
  (* one-sided provenance (pre-v2 reports) is not noise *)
  check bool "one-sided key not reported" true
    (not (List.exists (fun (k, _, _) -> k = "ocaml_version") diff));
  (* model/engine are run identity, not provenance *)
  check bool "model is not a provenance key" true
    (not (List.exists (fun (k, _, _) -> k = "model") diff))

(* ---------- trend ---------- *)

let test_trend_flags_injected_slowdown () =
  (* three stored runs of one family; the slowdown is injected between
     run B and run C and must be attributed to exactly that step *)
  let a = report ~counters:[ ("sat.conflicts", 100) ] () in
  let b = report ~counters:[ ("sat.conflicts", 102) ] () in
  let c = report ~counters:[ ("sat.conflicts", 300) ] () in
  match Obs.Regress.trend [ ("run 1", a); ("run 2", b); ("run 3", c) ] with
  | Error msg -> Alcotest.fail msg
  | Ok steps -> (
    check int "two consecutive steps" 2 (List.length steps);
    let gated s =
      List.filter
        (Obs.Regress.exceeds ~threshold:0.1 ~time_threshold:None)
        s.Obs.Regress.step_deltas
    in
    match steps with
    | [ s1; s2 ] ->
      check string "step labels" "run 2" s1.Obs.Regress.to_label;
      check int "quiet step not flagged" 0 (List.length (gated s1));
      check int "injected jump flagged" 1 (List.length (gated s2));
      check string "attributed to the right step" "run 3" s2.Obs.Regress.to_label
    | _ -> Alcotest.fail "expected exactly two steps")

let test_trend_rejects_invalid () =
  let good = report () and bad = report ~schema:9 () in
  match Obs.Regress.trend [ ("run 1", good); ("run 2", bad) ] with
  | Ok _ -> Alcotest.fail "invalid report accepted"
  | Error msg ->
    check bool "error names the run" true (contains msg "run 2");
    check bool "error is one line" true (not (String.contains msg '\n'))

(* ---------- diff_dirs / passes ---------- *)

let temp_dir () =
  let path = Filename.temp_file "cbq_regress" "" in
  Sys.remove path;
  Util.Fs.mkdirs path;
  path

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let write_json dir name json =
  let oc = open_out (Filename.concat dir name) in
  output_string oc (Obs.Json.to_string json);
  close_out oc

let with_two_dirs f =
  let old_dir = temp_dir () and new_dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf old_dir; rm_rf new_dir) (fun () -> f old_dir new_dir)

let test_self_diff_passes () =
  with_two_dirs @@ fun old_dir new_dir ->
  let r = report ~counters:[ ("a", 3) ] ~spans:[ ("s", 2, 0.1) ] () in
  write_json old_dir "001-row.json" r;
  write_json new_dir "001-row.json" r;
  let outcome = Obs.Regress.diff_dirs ~old_dir ~new_dir in
  check bool "identical trees pass" true
    (Obs.Regress.passes ~threshold:0.1 ~time_threshold:(Some 0.0) outcome)

let test_regression_fails () =
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json" (report ~counters:[ ("sat.calls", 100) ] ());
  write_json new_dir "001-row.json" (report ~counters:[ ("sat.calls", 300) ] ());
  let outcome = Obs.Regress.diff_dirs ~old_dir ~new_dir in
  check bool "200% rise fails a 10% gate" false
    (Obs.Regress.passes ~threshold:0.1 ~time_threshold:None outcome);
  check int "one gated delta" 1
    (List.length (Obs.Regress.regressions ~threshold:0.1 ~time_threshold:None outcome));
  check bool "a loose gate lets it through" true
    (Obs.Regress.passes ~threshold:5.0 ~time_threshold:None outcome)

let test_missing_experiment_fails () =
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json" (report ~counters:[ ("a", 1) ] ());
  write_json old_dir "002-row.json" (report ~counters:[ ("a", 1) ] ());
  write_json new_dir "001-row.json" (report ~counters:[ ("a", 1) ] ());
  let outcome = Obs.Regress.diff_dirs ~old_dir ~new_dir in
  check (Alcotest.list string) "the lost row is named" [ "002-row" ]
    outcome.Obs.Regress.only_old;
  check bool "a lost experiment fails" false
    (Obs.Regress.passes ~threshold:0.1 ~time_threshold:None outcome)

let test_new_experiment_passes () =
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json" (report ~counters:[ ("a", 1) ] ());
  write_json new_dir "001-row.json" (report ~counters:[ ("a", 1) ] ());
  write_json new_dir "002-row.json" (report ~counters:[ ("a", 1) ] ());
  let outcome = Obs.Regress.diff_dirs ~old_dir ~new_dir in
  check (Alcotest.list string) "the extra row is named" [ "002-row" ]
    outcome.Obs.Regress.only_new;
  check bool "grown coverage passes" true
    (Obs.Regress.passes ~threshold:0.1 ~time_threshold:None outcome)

(* ---------- end to end through the registry ---------- *)

let test_real_reports_round_trip () =
  (* the differ consumes what Obs.write_report produces: two identical
     deterministic runs must diff clean apart from timings *)
  with_two_dirs @@ fun old_dir new_dir ->
  let run dir =
    Obs.reset ();
    Obs.set_enabled true;
    let model, _ = Circuits.Registry.build "counter" (Some 3) in
    ignore (Cbq.Reachability.run ~config:{ Cbq.Reachability.default with make_trace = false } model);
    Obs.set_enabled false;
    Obs.write_report (Filename.concat dir "001-counter3.json");
    Obs.reset ()
  in
  run old_dir;
  run new_dir;
  let outcome = Obs.Regress.diff_dirs ~old_dir ~new_dir in
  check int "one pair compared" 1 (List.length outcome.Obs.Regress.pairs);
  check bool "seeded run is deterministic modulo time" true
    (Obs.Regress.passes ~threshold:0.0 ~time_threshold:None outcome)

(* ---------- the CLI exit-code contract (Obs.Regress.main) ---------- *)

(* run the in-process CLI with captured stdout/stderr *)
let run_cli args =
  let out_buf = Buffer.create 256 and err_buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer out_buf and err = Format.formatter_of_buffer err_buf in
  let code = Obs.Regress.main ~out ~err (Array.of_list ("cbq-bench-regress" :: args)) in
  Format.pp_print_flush out ();
  Format.pp_print_flush err ();
  (code, Buffer.contents out_buf, Buffer.contents err_buf)

let test_cli_usage_errors () =
  List.iter
    (fun args ->
      let code, out, err = run_cli args in
      check int (String.concat " " args ^ " exits 2") 2 code;
      check bool "usage goes to stderr" true (contains err "usage:");
      check string "stdout stays clean" "" out)
    [ []; [ "only-one-dir" ]; [ "--bogus-flag"; "a"; "b" ]; [ "-h" ]; [ "a"; "b"; "c" ] ]

let test_cli_bad_threshold () =
  let code, out, err = run_cli [ "a"; "b"; "--threshold=banana" ] in
  check int "bad threshold exits 2" 2 code;
  check bool "diagnostic names the flag" true (contains err "--threshold");
  check string "stdout stays clean" "" out

let test_cli_missing_directory () =
  with_two_dirs @@ fun old_dir _new_dir ->
  let code, out, err = run_cli [ old_dir; "no-such-dir-regress" ] in
  check int "missing dir exits 2" 2 code;
  check bool "diagnostic goes to stderr" true (contains err "is not a directory");
  check string "stdout stays clean" "" out

let test_cli_empty_old_tree_exits_two () =
  (* nothing to pair means nothing gated: that is not a pass *)
  with_two_dirs @@ fun old_dir new_dir ->
  write_json new_dir "row.json" (report ~counters:[ ("a", 3) ] ());
  let code, out, err = run_cli [ old_dir; new_dir ] in
  check int "empty old tree exits 2" 2 code;
  check bool "diagnostic names the tree" true (contains err old_dir && contains err "no .json");
  check string "stdout stays clean" "" out

let test_cli_clean_pair_exits_zero () =
  with_two_dirs @@ fun old_dir new_dir ->
  let r = report ~counters:[ ("a", 3) ] () in
  write_json old_dir "001-row.json" r;
  write_json new_dir "001-row.json" r;
  let code, out, err = run_cli [ old_dir; new_dir ] in
  check int "clean diff exits 0" 0 code;
  check bool "verdict on stdout" true (contains out "OK: 1 report pair");
  check string "stderr stays clean" "" err

let test_cli_unparsable_report_exits_two () =
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json" (report ~counters:[ ("a", 1) ] ());
  let oc = open_out (Filename.concat new_dir "001-row.json") in
  output_string oc "{\"schema_version\": 1, truncated";
  close_out oc;
  let code, out, err = run_cli [ old_dir; new_dir ] in
  check int "unparsable report exits 2" 2 code;
  check bool "structured one-line error on stderr" true
    (contains err "001-row.json" && contains err "unparsable");
  check bool "no exception trace" true (not (contains err "Fatal error"));
  check string "stdout stays clean" "" out

let test_cli_unsupported_schema_exits_two () =
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json" (report ~counters:[ ("a", 1) ] ());
  write_json new_dir "001-row.json" (report ~schema:9 ~counters:[ ("a", 1) ] ());
  let code, out, err = run_cli [ old_dir; new_dir ] in
  check int "unsupported schema exits 2" 2 code;
  check bool "error names the schema" true
    (contains err "invalid report" && contains err "schema_version 9");
  check string "stdout stays clean" "" out

let test_cli_schema_window_diffs_clean () =
  (* the v1 -> v2 bump is additive: checked-in v1 baselines must keep
     diffing against fresh v2 reports, with the bump noted in the header *)
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json" (report ~schema:1 ~counters:[ ("a", 3) ] ());
  write_json new_dir "001-row.json"
    (report ~schema:2 ~meta:[ ("ocaml_version", "5.1.1") ] ~counters:[ ("a", 3) ] ());
  let code, out, err = run_cli [ old_dir; new_dir ] in
  check int "cross-schema pair diffs clean" 0 code;
  check bool "bump noted in the header" true (contains out "schema_version differs: 1 -> 2");
  check string "stderr stays clean" "" err

let test_cli_meta_mismatch_header () =
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json"
    (report ~schema:2 ~meta:[ ("hostname", "alpha") ] ~counters:[ ("a", 3) ] ());
  write_json new_dir "001-row.json"
    (report ~schema:2 ~meta:[ ("hostname", "beta") ] ~counters:[ ("a", 3) ] ());
  let code, out, _ = run_cli [ old_dir; new_dir ] in
  check int "meta mismatch alone does not gate" 0 code;
  check bool "mismatch printed in the header" true
    (contains out "hostname differs: alpha -> beta")

let test_cli_regression_exits_one () =
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json" (report ~counters:[ ("a", 100) ] ());
  write_json new_dir "001-row.json" (report ~counters:[ ("a", 200) ] ());
  let code, out, err = run_cli [ old_dir; new_dir ] in
  check int "gated delta exits 1" 1 code;
  check bool "verdict on stdout" true (contains out "REGRESSION");
  check string "stderr stays clean" "" err;
  (* a wide-open threshold turns the same pair into a pass *)
  let code, _, _ = run_cli [ old_dir; new_dir; "--threshold=2.0" ] in
  check int "threshold flag honoured" 0 code

let test_cli_only_prefix_filters () =
  (* --only gates just the named metric namespace: the gated row counter
     still fails, while noise outside the prefix stops gating *)
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "001-row.json" (report ~counters:[ ("row.a", 100); ("noise.b", 100) ] ());
  write_json new_dir "001-row.json" (report ~counters:[ ("row.a", 100); ("noise.b", 900) ] ());
  let code, out, _ = run_cli [ old_dir; new_dir; "--only=counters.row." ] in
  check int "out-of-prefix delta does not gate" 0 code;
  check bool "filtered delta not listed" true (not (contains out "noise.b"));
  let code, _, _ = run_cli [ old_dir; new_dir ] in
  check int "same pair gates without --only" 1 code;
  write_json new_dir "001-row.json" (report ~counters:[ ("row.a", 400); ("noise.b", 900) ] ());
  let code, out, _ = run_cli [ old_dir; new_dir; "--only=counters.row." ] in
  check int "in-prefix delta still gates" 1 code;
  check bool "gated metric listed" true (contains out "row.a")

let test_cli_only_matching_nothing_exits_two () =
  (* a misspelt prefix compares nothing, so it must not read as a pass *)
  with_two_dirs @@ fun old_dir new_dir ->
  write_json old_dir "par.json" (report ~counters:[ ("parbench.portfolio.decided", 4) ] ());
  write_json new_dir "par.json" (report ~counters:[ ("parbench.portfolio.decided", 0) ] ());
  let code, out, err = run_cli [ old_dir; new_dir; "--only=counters.parbnech." ] in
  check int "prefix matching nothing exits 2" 2 code;
  check bool "diagnostic names the prefix" true (contains err "--only=counters.parbnech.");
  check string "stdout stays clean" "" out;
  let code, out, _ = run_cli [ old_dir; new_dir; "--only=counters.parbench." ] in
  check int "the correct prefix gates the regression" 1 code;
  check bool "regression listed" true (contains out "parbench.portfolio.decided");
  let code, _, _ =
    run_cli [ old_dir; new_dir; "--only=counters.parbnech."; "--only=counters.parbench." ]
  in
  check int "one matching prefix among several is enough" 1 code;
  (* identical trees under a valid prefix still pass *)
  let r = report ~counters:[ ("parbench.portfolio.decided", 4) ] () in
  write_json new_dir "par.json" r;
  write_json old_dir "par.json" r;
  let code, out, _ = run_cli [ old_dir; new_dir; "--only=counters.parbench." ] in
  check int "identical trees exit 0" 0 code;
  check bool "verdict on stdout" true (contains out "OK: 1 report pair")

let () =
  Alcotest.run "regress"
    [
      ( "compare",
        [
          Alcotest.test_case "identical reports" `Quick test_identical_reports;
          Alcotest.test_case "changed metrics only" `Quick test_changed_metrics_only;
          Alcotest.test_case "one-sided metric vs zero" `Quick
            test_one_sided_metric_compares_to_zero;
          Alcotest.test_case "gate is symmetric" `Quick test_gate_is_symmetric;
          Alcotest.test_case "timings gated separately" `Quick test_timing_gated_separately;
        ] );
      ( "validate",
        [
          Alcotest.test_case "schema window" `Quick test_validate_report;
          Alcotest.test_case "meta mismatches" `Quick test_meta_mismatches;
        ] );
      ( "trend",
        [
          Alcotest.test_case "injected slowdown flagged" `Quick
            test_trend_flags_injected_slowdown;
          Alcotest.test_case "invalid report rejected" `Quick test_trend_rejects_invalid;
        ] );
      ( "dirs",
        [
          Alcotest.test_case "self-diff passes" `Quick test_self_diff_passes;
          Alcotest.test_case "regression fails the gate" `Quick test_regression_fails;
          Alcotest.test_case "missing experiment fails" `Quick test_missing_experiment_fails;
          Alcotest.test_case "new experiment passes" `Quick test_new_experiment_passes;
        ] );
      ( "integration",
        [ Alcotest.test_case "real reports round-trip" `Quick test_real_reports_round_trip ] );
      ( "cli",
        [
          Alcotest.test_case "usage errors exit 2" `Quick test_cli_usage_errors;
          Alcotest.test_case "bad threshold exits 2" `Quick test_cli_bad_threshold;
          Alcotest.test_case "missing directory exits 2" `Quick test_cli_missing_directory;
          Alcotest.test_case "empty old tree exits 2" `Quick test_cli_empty_old_tree_exits_two;
          Alcotest.test_case "clean pair exits 0" `Quick test_cli_clean_pair_exits_zero;
          Alcotest.test_case "unparsable report exits 2" `Quick
            test_cli_unparsable_report_exits_two;
          Alcotest.test_case "unsupported schema exits 2" `Quick
            test_cli_unsupported_schema_exits_two;
          Alcotest.test_case "schema window diffs clean" `Quick
            test_cli_schema_window_diffs_clean;
          Alcotest.test_case "meta mismatch header" `Quick test_cli_meta_mismatch_header;
          Alcotest.test_case "regression exits 1" `Quick test_cli_regression_exits_one;
          Alcotest.test_case "--only prefix filter" `Quick test_cli_only_prefix_filters;
          Alcotest.test_case "--only matching nothing exits 2" `Quick
            test_cli_only_matching_nothing_exits_two;
        ] );
    ]
