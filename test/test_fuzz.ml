(* Differential fuzzing subsystem: generator determinism, oracle
   classification, shrinker soundness, the smoke sweep, the
   fault-injection self-test and the repro-corpus replay contract. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------- generator ---------- *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Netlist.Aiger.write (Fuzz.Gen.model ~seed ()) in
      let b = Netlist.Aiger.write (Fuzz.Gen.model ~seed ()) in
      check bool (Printf.sprintf "seed %d reproduces" seed) true (a = b))
    [ 0; 1; 42; 1234567; -3 ]

let test_gen_seeds_differ () =
  let distinct =
    List.sort_uniq compare
      (List.init 20 (fun seed -> Netlist.Aiger.write (Fuzz.Gen.model ~seed ())))
  in
  (* a collision among 20 tiny models would mean the seed is ignored *)
  check bool "20 seeds give >= 15 distinct models" true (List.length distinct >= 15)

let test_gen_validates () =
  let m = Fuzz.Gen.model ~seed:9 () in
  check bool "generated model validates" true (Netlist.Model.validate m = Ok ());
  List.iter
    (fun seed ->
      let m = Fuzz.Gen.model ~seed () in
      check bool
        (Printf.sprintf "seed %d within knob bounds" seed)
        true
        (Netlist.Model.num_latches m >= 1
        && Netlist.Model.num_latches m <= Fuzz.Gen.default.Fuzz.Gen.max_latches
        && Netlist.Model.num_inputs m <= Fuzz.Gen.default.Fuzz.Gen.max_inputs))
    (List.init 30 (fun i -> i))

let test_gen_rejects_bad_knobs () =
  let bad = { Fuzz.Gen.default with Fuzz.Gen.and_density = 1.5 } in
  check bool "bad density rejected" true (Result.is_error (Fuzz.Gen.validate_knobs bad));
  let bad = { Fuzz.Gen.default with Fuzz.Gen.min_latches = 5; max_latches = 2 } in
  check bool "empty latch range rejected" true (Result.is_error (Fuzz.Gen.validate_knobs bad));
  match Fuzz.Gen.model ~knobs:bad ~seed:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "model accepted invalid knobs"

let test_pqe_shape_knobs () =
  let bad = { Fuzz.Gen.default with Fuzz.Gen.shared_subcones = 1.5 } in
  check bool "bad shared_subcones rejected" true (Result.is_error (Fuzz.Gen.validate_knobs bad));
  let bad = { Fuzz.Gen.default with Fuzz.Gen.wide_support = -0.1 } in
  check bool "bad wide_support rejected" true (Result.is_error (Fuzz.Gen.validate_knobs bad));
  (* with a trigger knob on, generation stays deterministic, validates,
     and actually changes the models *)
  List.iter
    (fun knobs ->
      List.iter
        (fun seed ->
          let a = Netlist.Aiger.write (Fuzz.Gen.model ~knobs ~seed ()) in
          let b = Netlist.Aiger.write (Fuzz.Gen.model ~knobs ~seed ()) in
          check bool (Printf.sprintf "seed %d reproduces under pqe shapes" seed) true (a = b);
          check bool "model validates" true
            (Netlist.Model.validate (Fuzz.Gen.model ~knobs ~seed ()) = Ok ());
          check bool
            (Printf.sprintf "seed %d differs from the default-shape model" seed)
            true
            (a <> Netlist.Aiger.write (Fuzz.Gen.model ~seed ())))
        [ 3; 8; 21 ])
    [
      { Fuzz.Gen.default with Fuzz.Gen.shared_subcones = 1.0 };
      { Fuzz.Gen.default with Fuzz.Gen.wide_support = 1.0 };
    ]

let test_derive_seed_prefix_stable () =
  (* the i-th model of a campaign must not depend on the campaign length *)
  let a = List.init 10 (fun i -> Fuzz.Gen.derive_seed ~master:42 i) in
  let b = List.init 5 (fun i -> Fuzz.Gen.derive_seed ~master:42 i) in
  check bool "prefix agrees" true (List.filteri (fun i _ -> i < 5) a = b);
  check bool "masters differ" true (Fuzz.Gen.derive_seed ~master:1 0 <> Fuzz.Gen.derive_seed ~master:2 0)

(* ---------- oracle classification ---------- *)

let test_verdict_compatibility () =
  let u = Baselines.Verdict.Undecided "budget" in
  let p = Baselines.Verdict.Proved in
  let f2 = Baselines.Verdict.Falsified 2 in
  let f3 = Baselines.Verdict.Falsified 3 in
  check bool "undecided vs proved" true (Fuzz.Oracle.compatible u p);
  check bool "undecided vs falsified" true (Fuzz.Oracle.compatible f2 u);
  check bool "undecided vs undecided" true (Fuzz.Oracle.compatible u u);
  check bool "proved vs proved" true (Fuzz.Oracle.compatible p p);
  check bool "falsified same depth" true (Fuzz.Oracle.compatible f2 f2);
  check bool "proved vs falsified" false (Fuzz.Oracle.compatible p f2);
  check bool "different depths" false (Fuzz.Oracle.compatible f2 f3)

let test_oracle_accepts_good_model () =
  (* a healthy model passes all three layers and every engine decides *)
  let m = Fuzz.Gen.model ~seed:5 () in
  (match Fuzz.Oracle.check m with
  | None -> ()
  | Some f -> Alcotest.failf "unexpected failure: %a" Fuzz.Oracle.pp_failure f);
  let verdicts = Fuzz.Oracle.run_engines m in
  check int "all engines report" (List.length Fuzz.Oracle.engine_names) (List.length verdicts)

let test_oracle_budget_degrades_to_undecided () =
  (* a one-conflict budget forces degradation; the oracle must classify
     the resulting verdicts as compatible, not as a disagreement *)
  let config =
    {
      Fuzz.Oracle.default_config with
      Fuzz.Oracle.budget =
        { Fuzz.Oracle.no_budget with Fuzz.Oracle.max_conflicts = Some 1; max_aig_nodes = Some 400 };
    }
  in
  for seed = 1 to 10 do
    let m = Fuzz.Gen.model ~seed () in
    match Fuzz.Oracle.check_differential ~config m with
    | None -> ()
    | Some f ->
      Alcotest.failf "seed %d: budget degradation misread as %a" seed Fuzz.Oracle.pp_failure f
  done

let test_oracle_backend_choice_agrees () =
  (* the differential layer runs the CBQ engines under each configured
     backend; decided verdicts must stay compatible with the baselines *)
  List.iter
    (fun backend ->
      let quant = { Cbq.Quantify.default with backend } in
      let suite =
        { Baselines.Suite.default_config with cbq = { Cbq.Reachability.default with quant } }
      in
      let config = { Fuzz.Oracle.default_config with Fuzz.Oracle.suite } in
      for seed = 11 to 15 do
        let m = Fuzz.Gen.model ~seed () in
        match Fuzz.Oracle.check ~config m with
        | None -> ()
        | Some f ->
          Alcotest.failf "seed %d under the %s backend: %a" seed
            (Cbq.Quantify.backend_name backend)
            Fuzz.Oracle.pp_failure f
      done)
    [ Cbq.Quantify.Circuit; Cbq.Quantify.Pqe; Cbq.Quantify.Auto ]

(* ---------- smoke sweep ---------- *)

let test_smoke_sweep_tiny_budget () =
  (* 100 models through the full oracle stack under a tiny budget: the
     governor-degradation paths are on the fuzzed surface *)
  let config =
    {
      Fuzz.Oracle.default_config with
      Fuzz.Oracle.budget = { Fuzz.Oracle.no_budget with Fuzz.Oracle.max_conflicts = Some 20 };
    }
  in
  let r = Fuzz.Runner.run ~config ~shrink:false ~seed:2026 ~count:100 () in
  check int "100 models ran" 100 r.Fuzz.Runner.count;
  List.iter
    (fun f ->
      Alcotest.failf "seed %d: %a" f.Fuzz.Runner.seed Fuzz.Oracle.pp_failure
        f.Fuzz.Runner.failure)
    r.Fuzz.Runner.failures

let test_pqe_shape_sweep () =
  (* PQE-trigger shapes through the full oracle stack: check_algebraic
     differentially verifies every quantification backend against the
     Shannon oracle on exactly the structures the pqe backend targets *)
  let knobs =
    { Fuzz.Gen.default with Fuzz.Gen.shared_subcones = 0.4; wide_support = 0.3 }
  in
  let r = Fuzz.Runner.run ~knobs ~shrink:false ~seed:1337 ~count:40 () in
  check int "40 models ran" 40 r.Fuzz.Runner.count;
  List.iter
    (fun f ->
      Alcotest.failf "seed %d: %a" f.Fuzz.Runner.seed Fuzz.Oracle.pp_failure
        f.Fuzz.Runner.failure)
    r.Fuzz.Runner.failures

(* ---------- fault injection + shrinking ---------- *)

(* run campaigns under the injected sweeper bug until failures appear;
   seed 42 yields them within the first 120 models (see test/corpus) *)
let injected_failures () =
  Sweep.Fault.with_injection (fun () -> Fuzz.Runner.run ~seed:42 ~count:120 ())

let test_injected_fault_caught_and_shrunk () =
  let r = injected_failures () in
  check bool "injected unsoundness found" true (r.Fuzz.Runner.failures <> []);
  List.iter
    (fun f ->
      let shrunk =
        match f.Fuzz.Runner.shrunk with
        | Some s -> s
        | None -> Alcotest.fail "failure was not shrunk"
      in
      let stats = Netlist.Model.stats shrunk.Fuzz.Shrink.model in
      check bool
        (Printf.sprintf "seed %d shrunk to <= 8 latches (got %d)" f.Fuzz.Runner.seed
           stats.Netlist.Model.latches)
        true
        (stats.Netlist.Model.latches <= 8);
      check bool "shrinking never grows the model" true
        (stats.Netlist.Model.latches <= Fuzz.Gen.default.Fuzz.Gen.max_latches))
    r.Fuzz.Runner.failures

let test_shrunk_model_still_fails () =
  (* shrinker soundness: the minimized model exhibits the recorded
     failure under the same conditions, and is healthy without the bug *)
  let r = injected_failures () in
  List.iter
    (fun f ->
      Sweep.Fault.with_injection (fun () ->
          match Fuzz.Oracle.check f.Fuzz.Runner.model with
          | Some _ -> ()
          | None -> Alcotest.failf "seed %d: shrunk model no longer fails" f.Fuzz.Runner.seed);
      match Fuzz.Oracle.check f.Fuzz.Runner.model with
      | None -> ()
      | Some g ->
        Alcotest.failf "seed %d: shrunk model fails even without the fault: %a"
          f.Fuzz.Runner.seed Fuzz.Oracle.pp_failure g)
    r.Fuzz.Runner.failures

(* ---------- corpus ---------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let dir = Printf.sprintf "fuzz-corpus-tmp-%d" (Hashtbl.hash (Sys.getcwd (), Sys.time ())) in
  if Sys.file_exists dir then rm_rf dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

let test_corpus_save_load_roundtrip () =
  with_temp_dir (fun dir ->
      let m = Fuzz.Gen.model ~seed:77 () in
      let failure = Fuzz.Oracle.Unsound_sweep { root = 0 } in
      let e =
        Fuzz.Corpus.save ~dir ~seed:77 m failure
          ~verdicts:[ ("cbq-bwd", Baselines.Verdict.Proved) ]
      in
      check bool "slug carries the label" true
        (String.length e.Fuzz.Corpus.slug > 0
        && String.sub e.Fuzz.Corpus.slug 0 5 = "sweep");
      (match Fuzz.Corpus.list ~dir with
      | [ listed ] ->
        check bool "listed = saved" true (listed.Fuzz.Corpus.slug = e.Fuzz.Corpus.slug);
        check bool "seed preserved" true (listed.Fuzz.Corpus.seed = Some 77);
        check bool "label preserved" true (listed.Fuzz.Corpus.label = "sweep");
        let reloaded = Fuzz.Corpus.load listed in
        check bool "model survives the roundtrip" true
          (Netlist.Aiger.write reloaded = Netlist.Aiger.write m)
      | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
      (* saving the same failure again must not overwrite *)
      let e2 =
        Fuzz.Corpus.save ~dir ~seed:77 m failure
          ~verdicts:[ ("cbq-bwd", Baselines.Verdict.Proved) ]
      in
      check bool "fresh slug on collision" true (e2.Fuzz.Corpus.slug <> e.Fuzz.Corpus.slug);
      check int "two entries now" 2 (List.length (Fuzz.Corpus.list ~dir)))

let test_corpus_missing_dir_is_empty () =
  check int "missing dir lists empty" 0
    (List.length (Fuzz.Corpus.list ~dir:"no-such-corpus-dir"))

(* the checked-in corpus: every entry is a once-failing repro that must
   pass the full oracle stack today (dune copies test/corpus into the
   sandbox via the source_tree dep in test/dune) *)
let test_corpus_replay_clean () =
  let entries = Fuzz.Corpus.list ~dir:"corpus" in
  check bool "checked-in corpus is non-empty" true (entries <> []);
  List.iter
    (fun (e, outcome) ->
      match outcome with
      | None -> ()
      | Some f ->
        Alcotest.failf "corpus entry %s fails again: %a" e.Fuzz.Corpus.slug
          Fuzz.Oracle.pp_failure f)
    (Fuzz.Corpus.replay ~dir:"corpus" ())

(* ---------- telemetry ---------- *)

let test_runner_counters () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let before = Obs.value_of "fuzz.models" in
      let r = Fuzz.Runner.run ~shrink:false ~seed:3 ~count:7 () in
      check int "no failures" 0 (List.length r.Fuzz.Runner.failures);
      check int "fuzz.models counts the campaign" (before + 7) (Obs.value_of "fuzz.models"))

let () =
  Alcotest.run "fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_gen_seeds_differ;
          Alcotest.test_case "models validate" `Quick test_gen_validates;
          Alcotest.test_case "knob validation" `Quick test_gen_rejects_bad_knobs;
          Alcotest.test_case "pqe-trigger shape knobs" `Quick test_pqe_shape_knobs;
          Alcotest.test_case "seed derivation" `Quick test_derive_seed_prefix_stable;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "verdict compatibility" `Quick test_verdict_compatibility;
          Alcotest.test_case "good model passes" `Quick test_oracle_accepts_good_model;
          Alcotest.test_case "per-backend differential" `Quick test_oracle_backend_choice_agrees;
          Alcotest.test_case "budget degradation" `Quick test_oracle_budget_degrades_to_undecided;
          Alcotest.test_case "100-model smoke sweep" `Quick test_smoke_sweep_tiny_budget;
          Alcotest.test_case "pqe-shape sweep" `Quick test_pqe_shape_sweep;
        ] );
      ( "self-test",
        [
          Alcotest.test_case "injected fault caught + shrunk" `Quick
            test_injected_fault_caught_and_shrunk;
          Alcotest.test_case "shrunk repro still fails" `Quick test_shrunk_model_still_fails;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "save/list/load" `Quick test_corpus_save_load_roundtrip;
          Alcotest.test_case "missing dir" `Quick test_corpus_missing_dir_is_empty;
          Alcotest.test_case "replay contract" `Quick test_corpus_replay_clean;
        ] );
      ("telemetry", [ Alcotest.test_case "fuzz.* counters" `Quick test_runner_counters ]);
    ]
