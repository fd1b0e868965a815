(* cbq-mc: command-line front-end.

   Sub-commands:
     list              show the benchmark registry
     run               verify a registry circuit (or an .aag file) with a
                       chosen engine
     export            write a registry circuit as ASCII AIGER
     quantify          quantification demo on a combinational cone
     fuzz              differential fuzzing with cross-engine oracles *)

open Cmdliner

(* A model file the AIGER reader rejects reads as one line:
   FILE: line N: reason *)
let read_aiger path =
  try Ok (Netlist.Aiger.read_file path)
  with Netlist.Aiger.Parse_error { line; token; reason } ->
    Error
      (Printf.sprintf "%s: line %d: %s%s" path line reason
         (if token = "" then "" else Printf.sprintf ", got %S" token))

let load_model circuit param aag =
  match aag with
  | Some path -> (
    match read_aiger path with
    | Ok model -> (model, None)
    | Error msg ->
      Format.eprintf "cbq-mc: %s@." msg;
      exit 2)
  | None ->
    let model, status = Circuits.Registry.build circuit param in
    (model, Some status)

let print_minimized model t =
  let essential = Cbq.Trace.minimize model t in
  Format.printf "essential inputs (every completion is a counterexample):@.";
  Array.iteri
    (fun k frame ->
      Format.printf "  frame %d:" k;
      List.iter (fun (v, b) -> Format.printf " x%d=%d" v (if b then 1 else 0)) frame;
      Format.printf "@.")
    essential

(* One path for every engine: its own result line, its per-frame lines
   under -v, the trace, and an independent check of any invariant it
   returns as a PROVED certificate, under the run's governor. *)
let print_detail ~verbose ~trace ~minimize ~limits model (d : Baselines.Suite.detail) =
  Format.printf "%t@." d.pp_result;
  if verbose then Format.printf "%t" d.pp_frames;
  (match d.trace with
  | Some t when trace ->
    Format.printf "%a" (Cbq.Trace.pp model) t;
    if minimize then print_minimized model t
  | Some _ | None -> ());
  match d.invariant with
  | Some inv -> (
    match Cbq.Certify.check ~limits model ~invariant:inv with
    | Ok () ->
      Format.printf "certificate: inductive invariant of %d AND nodes, independently checked@."
        (Aig.size (Netlist.Model.aig model) inv)
    | Error (Cbq.Certify.Unchecked _ as f) ->
      Format.printf "certificate: %a@." Cbq.Certify.pp_failure f
    | Error f -> Format.printf "certificate REJECTED: %a@." Cbq.Certify.pp_failure f)
  | None -> ()

(* the shared governor is not handed to the racers: each entrant gets its
   own cancellable governor from [make_limits] so the winner can stop the
   losers without poisoning anything shared. Clones preserve numbering,
   so the winner's trace replays on the original model. *)
let portfolio ~config ?jobs ~make_limits ~limits:_ model =
  let r = Baselines.Portfolio.run ~config ?jobs ~make_limits model in
  {
    Baselines.Suite.verdict = r.Baselines.Portfolio.verdict;
    trace = r.Baselines.Portfolio.trace;
    invariant = None;
    pp_result = (fun ppf -> Baselines.Portfolio.pp_result ppf r);
    pp_frames = ignore;
  }

(* ---------- list ---------- *)

let list_cmd =
  let doc = "list the built-in benchmark circuits" in
  let run () = Format.printf "%a" Circuits.Registry.pp_list () in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---------- run ---------- *)

let circuit_arg =
  Arg.(value & opt string "counter" & info [ "c"; "circuit" ] ~docv:"NAME" ~doc:"registry circuit name")

let param_arg =
  Arg.(value & opt (some int) None & info [ "p"; "param" ] ~docv:"N" ~doc:"family size parameter")

let aag_arg =
  Arg.(value & opt (some file) None & info [ "aag" ] ~docv:"FILE" ~doc:"verify an ASCII AIGER file instead")

(* an empty value is a usage error before any work, instead of a
   Sys_error after the run or a write into the working directory *)
let path_conv =
  let parse s = if s = "" then Error (`Msg "empty path") else Ok s in
  Arg.conv (parse, Format.pp_print_string)

let engine_arg =
  let names = Baselines.Suite.names @ [ "portfolio" ] in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "cbq-bwd"
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          (Printf.sprintf
             "verification engine: %s (portfolio races all the others, first decisive verdict \
              wins)"
             (String.concat " | " names)))

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "domains for the portfolio race (default: one per engine, capped by the machine's \
           recommended domain count); ignored by single engines")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"per-iteration detail")
let trace_arg = Arg.(value & flag & info [ "t"; "trace" ] ~doc:"print the counterexample trace")

let seq_sweep_arg =
  Arg.(
    value & flag
    & info [ "seq-sweep" ]
        ~doc:"reduce the model by register-correspondence sweeping before verification")

let coi_arg =
  Arg.(
    value & flag
    & info [ "coi" ] ~doc:"drop latches and inputs outside the property's cone of influence")

let minimize_arg =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:"with --trace: also print the essential inputs (ternary-simulation minimization)")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"collect telemetry and print a human-readable summary after the run")

let stats_json_arg =
  Arg.(
    value
    & opt (some path_conv) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:"collect telemetry and write the JSON run report to $(docv) (schema: docs/OBSERVABILITY.md)")

let trace_json_arg =
  Arg.(
    value
    & opt (some path_conv) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "record structured trace events and write them to $(docv) in Chrome trace_event \
           format (load in chrome://tracing or ui.perfetto.dev)")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "wall-clock budget in seconds (monotonic clock). On expiry the run degrades \
           gracefully: optimization stages are skipped, SAT queries answer Maybe, and the \
           engine reports an anytime UNDECIDED verdict naming the deadline")

let max_conflicts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N"
        ~doc:"global SAT-conflict pool shared by every query of the run")

let max_aig_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-aig-nodes" ] ~docv:"N"
        ~doc:"ceiling on the AIG manager's node count (checked at frame boundaries)")

let max_bdd_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-bdd-nodes" ] ~docv:"N"
        ~doc:
          "cumulative BDD node pool across all sweeping managers (non-fatal: draining it \
           only disables further BDD sweeping; the bdd-bwd/bdd-fwd engines treat it as \
           their verdict limit)")

let budget_arg =
  let budget timeout max_conflicts max_aig_nodes max_bdd_nodes =
    { Util.Limits.timeout; max_conflicts; max_aig_nodes; max_bdd_nodes }
  in
  Term.(const budget $ timeout_arg $ max_conflicts_arg $ max_aig_nodes_arg $ max_bdd_nodes_arg)

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"report live per-frame progress on stderr (updated in place on a terminal)")

let sample_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "sample-interval" ] ~docv:"SEC"
        ~doc:
          "sample heap size, counter values and remaining budgets every $(docv) seconds on a \
           background domain; the series lands in the run report's timeseries section and as \
           counter rows in --trace-json")

let store_opt_arg =
  Arg.(
    value
    & opt (some path_conv) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "append the run report to the store at $(docv) (see $(b,cbq-mc report) for querying \
           stored runs)")

let emit_stats ~stats ~stats_json ~store ~model ~engine ~watch ~limits verdict =
  Obs.meta "tool" "cbq-mc";
  Obs.meta "model" (Netlist.Model.name model);
  Obs.meta "engine" engine;
  Obs.meta "verdict" (Baselines.Verdict.to_meta verdict);
  (match Util.Limits.exhausted limits with
  | Some r -> Obs.meta "exhausted" (Util.Limits.resource_name r)
  | None -> ());
  Obs.meta "seconds" (Printf.sprintf "%.6f" (Util.Stopwatch.elapsed watch));
  if stats then Format.printf "%a" Obs.pp_summary ();
  (match stats_json with
  | Some path ->
    Obs.write_report path;
    Format.printf "stats: wrote %s@." path
  | None -> ());
  match store with
  | Some dir ->
    (* snapshot before opening the store: the store's own index/catchup
       bookkeeping counters depend on the directory's history, not on
       this run, and would read as drift under `report trend` *)
    let report = Obs.report () in
    let st = Obs.Store.open_ dir in
    let entry = Obs.Store.append st report in
    Format.printf "store: appended run %d to %s@." entry.Obs.Store.id dir
  | None -> ()

let run_cmd =
  let doc = "verify a circuit's safety property" in
  let run circuit param aag engine jobs verbose trace seq_sweep coi minimize stats stats_json
      trace_json progress sample_interval store budget =
    (* --progress reads the sweep merge counters, --sample-interval and
       --store record them, so all three need the registry live even
       without --stats *)
    let want_stats = stats || stats_json <> None || store <> None in
    if want_stats || progress || sample_interval <> None then begin
      Obs.reset ();
      Obs.set_enabled true
    end;
    if trace_json <> None then begin
      Obs.Trace_events.reset ();
      Obs.Trace_events.set_enabled true
    end;
    if progress then Obs.Progress.start ();
    let watch = Util.Stopwatch.start () in
    (* the governor's deadline clock starts here, before model build, so
       --timeout bounds the whole invocation *)
    let limits = Util.Limits.of_budget budget in
    (* the sampler covers model build and reductions, not just the
       engine: a run that dies loading a huge AIG should still leave a
       heap curve *)
    let sampler =
      Option.map (fun interval -> Obs.Sampler.start ~interval ~limits ()) sample_interval
    in
    (* teardown must survive an engine exception: the sampler domain is
       joined (an unjoined domain outlives main) and the progress line
       is terminated so the trace doesn't land mid-line *)
    let model, status, verdict =
      Fun.protect
        ~finally:(fun () ->
          Option.iter Obs.Sampler.stop sampler;
          Obs.Progress.finish ())
        (fun () ->
          let model, status = load_model circuit param aag in
          Format.printf "model %s: %a@." (Netlist.Model.name model) Netlist.Model.pp_stats
            (Netlist.Model.stats model);
          let model =
            if coi then begin
              let reduced, report = Netlist.Coi.reduce model in
              Format.printf "coi: %a@." Netlist.Coi.pp_report report;
              reduced
            end
            else model
          in
          let model =
            if seq_sweep then begin
              let reduced, report = Cbq.Seq_sweep.reduce model in
              Format.printf "seq-sweep: %a@." Cbq.Seq_sweep.pp_report report;
              reduced
            end
            else model
          in
          let make_limits () = Util.Limits.of_budget budget in
          let cbq = { Cbq.Reachability.default with make_trace = trace } in
          (* the CLI searches deeper with BMC and induction than the suite's defaults *)
          let config = { Baselines.Suite.bmc_depth = 100; induction_k = 50; cbq } in
          let run =
            if engine = "portfolio" then portfolio ~config ?jobs ~make_limits
            else Option.get (Baselines.Suite.find_detailed ~config engine)
          in
          let d = run ~limits model in
          print_detail ~verbose ~trace ~minimize ~limits model d;
          (model, status, d.Baselines.Suite.verdict))
    in
    (match Util.Limits.exhausted limits with
    | Some r ->
      Format.printf "limits: %s exhausted after %.2fs@." (Util.Limits.resource_name r)
        (Util.Limits.elapsed limits)
    | None -> ());
    if want_stats then
      emit_stats ~stats ~stats_json ~store ~model ~engine ~watch ~limits verdict;
    (match trace_json with
    | Some path ->
      Obs.Trace_events.set_enabled false;
      Obs.Trace_events.write path;
      Format.printf "trace: wrote %s (%d events, %d dropped)@." path
        (Obs.Trace_events.recorded ()) (Obs.Trace_events.dropped ())
    | None -> ());
    (* under explicit resource limits an Undecided verdict is the
       documented graceful-degradation outcome, not a failure *)
    match (status, verdict) with
    | None, Baselines.Verdict.Undecided _ when not (Util.Limits.is_limited limits) -> exit 2
    | None, _ -> exit 0
    | Some expected, _ ->
      let safe, depth =
        match expected with
        | Circuits.Registry.Safe -> (true, None)
        | Circuits.Registry.Unsafe e -> (false, Some e)
      in
      if not (Baselines.Verdict.agrees_with_oracle verdict ~safe ~depth) then begin
        Format.printf "WARNING: verdict disagrees with the family oracle@.";
        exit 1
      end
  in
  ( Cmd.info "run" ~doc,
    Term.(
      const run $ circuit_arg $ param_arg $ aag_arg $ engine_arg $ jobs_arg $ verbose_arg
      $ trace_arg $ seq_sweep_arg $ coi_arg $ minimize_arg
      $ stats_arg $ stats_json_arg $ trace_json_arg $ progress_arg $ sample_interval_arg
      $ store_opt_arg $ budget_arg) )

let run_term = snd run_cmd
let run_cmd = Cmd.v (fst run_cmd) run_term

(* ---------- export ---------- *)

let export_cmd =
  let doc = "write a registry circuit as AIGER (ascii, or binary with --binary)" in
  let out_arg =
    Arg.(required & opt (some path_conv) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"output path")
  in
  let binary_arg = Arg.(value & flag & info [ "binary" ] ~doc:"compact binary 'aig' format") in
  let run circuit param out binary =
    let model, _ = Circuits.Registry.build circuit param in
    if binary then Netlist.Aiger.write_binary_file model out else Netlist.Aiger.write_file model out;
    Format.printf "wrote %s (%a)@." out Netlist.Model.pp_stats (Netlist.Model.stats model)
  in
  Cmd.v (Cmd.info "export" ~doc) Term.(const run $ circuit_arg $ param_arg $ out_arg $ binary_arg)

(* ---------- quantify ---------- *)

let quantify_cmd =
  let doc = "circuit-based quantification demo on a combinational cone" in
  let cone_arg =
    Arg.(value & opt string "mult" & info [ "cone" ] ~docv:"NAME" ~doc:"adder|mult|hwb|parity|majority|random")
  in
  let size_arg = Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"cone size parameter") in
  let count_arg =
    Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"number of variables to quantify")
  in
  let run cone n k =
    match List.assoc_opt cone Circuits.Comb.catalogue with
    | None -> Format.printf "unknown cone %S@." cone
    | Some make ->
      let c = make n in
      let aig = c.Circuits.Comb.aig in
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 11 in
      let vars =
        List.filteri (fun i _ -> i < k) c.Circuits.Comb.vars
      in
      Format.printf "cone %s: %d AND nodes, quantifying %d of %d variables@."
        c.Circuits.Comb.name
        (Aig.size aig c.Circuits.Comb.root)
        (List.length vars)
        (List.length c.Circuits.Comb.vars);
      let naive =
        Cbq.Quantify.all ~config:Cbq.Quantify.naive_config aig checker ~prng
          c.Circuits.Comb.root ~vars
      in
      let full = Cbq.Quantify.all aig checker ~prng c.Circuits.Comb.root ~vars in
      Format.printf "naive Shannon: %d nodes; merged+optimized: %d nodes@."
        (Aig.size aig naive.Cbq.Quantify.lit)
        (Aig.size aig full.Cbq.Quantify.lit);
      List.iter
        (fun r -> Format.printf "  %a@." Cbq.Quantify.pp_var_report r)
        full.Cbq.Quantify.reports
  in
  Cmd.v (Cmd.info "quantify" ~doc) Term.(const run $ cone_arg $ size_arg $ count_arg)

(* ---------- reduce ---------- *)

let reduce_cmd =
  let doc = "reduce a model (cone of influence + register correspondence) and export it" in
  let out_arg =
    Arg.(value & opt (some path_conv) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"write the reduced model as ascii AIGER")
  in
  let run circuit param aag out =
    let model, _ = load_model circuit param aag in
    Format.printf "model %s: %a@." (Netlist.Model.name model) Netlist.Model.pp_stats
      (Netlist.Model.stats model);
    let model, coi_report = Netlist.Coi.reduce model in
    Format.printf "coi:       %a@." Netlist.Coi.pp_report coi_report;
    let model, sweep_report = Cbq.Seq_sweep.reduce model in
    Format.printf "seq-sweep: %a@." Cbq.Seq_sweep.pp_report sweep_report;
    Format.printf "reduced:   %a@." Netlist.Model.pp_stats (Netlist.Model.stats model);
    match out with
    | Some path ->
      Netlist.Aiger.write_file model path;
      Format.printf "wrote %s@." path
    | None -> ()
  in
  Cmd.v (Cmd.info "reduce" ~doc) Term.(const run $ circuit_arg $ param_arg $ aag_arg $ out_arg)

(* ---------- cec ---------- *)

let cec_cmd =
  let doc = "combinational equivalence check: ripple-carry vs carry-lookahead adder" in
  let size_arg = Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"adder width") in
  let bug_arg = Arg.(value & flag & info [ "bug" ] ~doc:"inject a bug into the lookahead adder") in
  let run n bug =
    let ripple = Circuits.Comb.adder_carry n in
    let cla = Circuits.Comb.carry_lookahead ~bug n in
    let report =
      Sweep.Cec.check_cones
        (ripple.Circuits.Comb.aig, ripple.Circuits.Comb.root, ripple.Circuits.Comb.vars)
        (cla.Circuits.Comb.aig, cla.Circuits.Comb.root, cla.Circuits.Comb.vars)
    in
    Format.printf "%s vs %s: %a@." ripple.Circuits.Comb.name cla.Circuits.Comb.name
      Sweep.Cec.pp_verdict report.Sweep.Cec.verdict;
    Format.printf "  closed by sweeping alone: %b@." report.Sweep.Cec.merged_to_same_node;
    Format.printf "  %a@." Sweep.Sweeper.pp_report report.Sweep.Cec.sweep;
    match report.Sweep.Cec.verdict with
    | Sweep.Cec.Equivalent -> if bug then exit 1
    | Sweep.Cec.Inequivalent _ -> if not bug then exit 1
    | Sweep.Cec.Unknown -> exit 2
  in
  Cmd.v (Cmd.info "cec" ~doc) Term.(const run $ size_arg $ bug_arg)

(* ---------- fuzz ---------- *)

let fuzz_cmd =
  let doc = "differential fuzzing: random models, cross-engine + algebraic oracles" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates seeded random sequential models and checks each one against three oracle \
         layers: AIGER round-trip identity, SAT-checked algebraic identities of the \
         quantification pipeline, and verdict agreement across every verification engine \
         (see docs/TESTING.md). Failures are minimized by a ddmin-style shrinker and, with \
         $(b,--corpus), persisted as replayable AIGER repros.";
      `P
        "Resource limits (--timeout etc.) apply per engine run, so a tiny budget fuzzes the \
         governor-degradation paths: an engine that runs out of budget reports UNDECIDED, \
         which is compatible with any other verdict.";
    ]
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"N" ~doc:"master seed of the campaign")
  in
  let count_arg =
    Arg.(value & opt int 100 & info [ "n"; "count" ] ~docv:"K" ~doc:"number of models to generate")
  in
  let max_latches_arg =
    Arg.(value & opt int Fuzz.Gen.default.Fuzz.Gen.max_latches
         & info [ "max-latches" ] ~docv:"L" ~doc:"largest generated model, in latches")
  in
  let max_inputs_arg =
    Arg.(value & opt int Fuzz.Gen.default.Fuzz.Gen.max_inputs
         & info [ "max-inputs" ] ~docv:"I" ~doc:"largest generated model, in primary inputs")
  in
  let cone_depth_arg =
    Arg.(value & opt int Fuzz.Gen.default.Fuzz.Gen.cone_depth
         & info [ "cone-depth" ] ~docv:"D" ~doc:"maximum next-state cone depth")
  in
  let shared_subcones_arg =
    Arg.(value & opt float Fuzz.Gen.default.Fuzz.Gen.shared_subcones
         & info [ "shared-subcones" ] ~docv:"P"
             ~doc:
               "probability of a mux-of-xor next-state cone over shared deep subcones, whose \
                cofactor disjunction only the merge phase can fold; 0 leaves the generator \
                streams untouched")
  in
  let wide_support_arg =
    Arg.(value & opt float Fuzz.Gen.default.Fuzz.Gen.wide_support
         & info [ "wide-support" ] ~docv:"P"
             ~doc:
               "probability of a next-state cone ranging over the whole variable pool (maximal \
                support width); 0 leaves the generator streams untouched")
  in
  let corpus_arg =
    Arg.(value & opt (some path_conv) None
         & info [ "corpus" ] ~docv:"DIR" ~doc:"write shrunk failing models into $(docv)")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"report failures without minimizing them")
  in
  let fuzz_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "shard the campaign across $(docv) domains. Per-model seeds are derived from the \
             master seed by index, and corpus writes are funnelled through one domain in index \
             order, so results and repro files are identical at any $(docv)")
  in
  let inject_fault_arg =
    Arg.(value & flag
         & info [ "inject-sweep-fault" ]
             ~doc:
               "self-test: make the sweeper merge SAT-refuted pairs (a deliberate soundness \
                bug) and confirm the oracles catch it")
  in
  let run seed count max_latches max_inputs cone_depth shared_subcones wide_support corpus
      no_shrink jobs inject_fault stats stats_json progress budget =
    if stats || stats_json <> None || progress then begin
      Obs.reset ();
      Obs.set_enabled true
    end;
    let knobs =
      {
        Fuzz.Gen.default with
        Fuzz.Gen.max_latches;
        max_inputs;
        cone_depth;
        min_latches = min Fuzz.Gen.default.Fuzz.Gen.min_latches max_latches;
        min_inputs = min Fuzz.Gen.default.Fuzz.Gen.min_inputs max_inputs;
        shared_subcones;
        wide_support;
      }
    in
    (match Fuzz.Gen.validate_knobs knobs with
    | Ok () -> ()
    | Error msg ->
      Format.eprintf "fuzz: invalid knobs: %s@." msg;
      exit 2);
    let config =
      {
        Fuzz.Oracle.default_config with
        budget;
      }
    in
    let watch = Util.Stopwatch.start () in
    let on_model i model_seed =
      if progress && i mod 10 = 0 then
        Format.eprintf "fuzz: model %d/%d (seed %d)\r%!" i count model_seed
    in
    let campaign () =
      Fuzz.Runner.run ~knobs ~config ?corpus_dir:corpus ~shrink:(not no_shrink) ~on_model
        ~jobs ~seed ~count ()
    in
    let result =
      if inject_fault then Sweep.Fault.with_injection campaign else campaign ()
    in
    if progress then Format.eprintf "@.";
    List.iter
      (fun f ->
        Format.printf "FAIL seed %d: %a@." f.Fuzz.Runner.seed Fuzz.Oracle.pp_failure
          f.Fuzz.Runner.failure;
        (match f.Fuzz.Runner.shrunk with
        | Some s ->
          Format.printf "  shrunk to %a after %d candidates (%d accepted, %d rounds)@."
            Netlist.Model.pp_stats
            (Netlist.Model.stats s.Fuzz.Shrink.model)
            s.Fuzz.Shrink.candidates s.Fuzz.Shrink.accepted s.Fuzz.Shrink.rounds
        | None -> ());
        match f.Fuzz.Runner.entry with
        | Some e -> Format.printf "  repro: %s@." e.Fuzz.Corpus.path
        | None -> ())
      result.Fuzz.Runner.failures;
    let n_failures = List.length result.Fuzz.Runner.failures in
    Format.printf "fuzz: %d models, %d failures (%.2fs)@." result.Fuzz.Runner.count n_failures
      (Util.Stopwatch.elapsed watch);
    if stats then Format.printf "%a" Obs.pp_summary ();
    (match stats_json with
    | Some path ->
      Obs.meta "tool" "cbq-mc-fuzz";
      Obs.meta "seed" (string_of_int seed);
      Obs.meta "failures" (string_of_int n_failures);
      Obs.write_report path;
      Format.printf "stats: wrote %s@." path
    | None -> ());
    (* the self-test inverts the exit contract: finding the injected bug
       is the passing outcome *)
    if inject_fault then exit (if n_failures > 0 then 0 else 1)
    else exit (if n_failures > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const run $ seed_arg $ count_arg $ max_latches_arg $ max_inputs_arg $ cone_depth_arg
      $ shared_subcones_arg $ wide_support_arg $ corpus_arg $ no_shrink_arg $ fuzz_jobs_arg
      $ inject_fault_arg $ stats_arg $ stats_json_arg $ progress_arg $ budget_arg)

(* ---------- sat ---------- *)

let sat_cmd =
  let doc = "solve a DIMACS CNF file with the built-in CDCL solver" in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DIMACS input")
  in
  let run path =
    match Sat.Dimacs.solve_file path with
    | Error msg ->
      Format.printf "error: %s@." msg;
      exit 2
    | Ok (result, solver) -> (
      Format.printf "%a@." Sat.Solver.pp_stats (Sat.Solver.stats solver);
      match result with
      | Sat.Solver.Sat ->
        Format.printf "s SATISFIABLE@.";
        let values =
          List.init (Sat.Solver.num_vars solver) (fun v ->
              match Sat.Solver.value solver v with
              | Some true -> string_of_int (v + 1)
              | Some false | None -> string_of_int (-(v + 1)))
        in
        Format.printf "v %s 0@." (String.concat " " values)
      | Sat.Solver.Unsat -> Format.printf "s UNSATISFIABLE@."
      | Sat.Solver.Unknown ->
        Format.printf "s UNKNOWN@.";
        exit 2)
  in
  Cmd.v (Cmd.info "sat" ~doc) Term.(const run $ file_arg)

(* ---------- report ----------

   Query the on-disk run-report store written by `run --store DIR`:
   list stored runs, show one, diff two by id, and walk the trend of
   the last N runs of one model/engine family. Exit codes follow the
   regression differ: 0 clean, 1 gated drift, 2 usage or store error. *)

let report_store_arg =
  Arg.(
    value & opt path_conv "runs"
    & info [ "store" ] ~docv:"DIR" ~doc:"run-report store directory (default: runs)")

let model_filter_arg =
  Arg.(value & opt (some string) None & info [ "model" ] ~docv:"NAME" ~doc:"only runs of this model")

let engine_filter_arg =
  Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE" ~doc:"only runs of this engine")

let report_threshold_arg =
  Arg.(
    value & opt float 0.1
    & info [ "threshold" ] ~docv:"REL" ~doc:"relative gate for deterministic metrics (default 0.1)")

let report_time_threshold_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-threshold" ] ~docv:"REL"
        ~doc:"also gate wall-clock span seconds at this relative delta (default: not gated)")

let store_fail msg =
  Format.eprintf "cbq-mc report: %s@." msg;
  exit 2

let open_store dir =
  try Obs.Store.open_ dir with
  | Sys_error msg -> store_fail msg
  | Unix.Unix_error (e, _, arg) -> store_fail (Printf.sprintf "%s: %s" arg (Unix.error_message e))

let print_meta_diff =
  List.iter (fun (key, o, n) -> Format.printf "  meta: %s differs: %s -> %s@." key o n)

let print_deltas ~threshold ~time_threshold deltas =
  List.iter
    (fun d ->
      Format.printf "  %s%a@."
        (if Obs.Regress.exceeds ~threshold ~time_threshold d then "! " else "  ")
        Obs.Regress.pp_delta d)
    deltas

let report_list_cmd =
  let doc = "list stored runs (newest last)" in
  let run dir model engine =
    let store = open_store dir in
    let entries = Obs.Store.select ?model ?engine store in
    if entries = [] then Format.printf "no stored runs in %s@." (Obs.Store.dir store)
    else begin
      Format.printf "%4s  %-20s  %-16s  %-10s  %s@." "id" "stored_at" "model" "engine" "verdict";
      List.iter
        (fun e ->
          Format.printf "%4d  %-20s  %-16s  %-10s  %s@." e.Obs.Store.id e.Obs.Store.stored_at
            e.Obs.Store.model e.Obs.Store.engine e.Obs.Store.verdict)
        entries
    end
  in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(const run $ report_store_arg $ model_filter_arg $ engine_filter_arg)

let report_show_cmd =
  let doc = "print one stored run report as JSON" in
  let id_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"run id") in
  let run dir id =
    let store = open_store dir in
    match Obs.Store.load store id with
    | Error msg -> store_fail msg
    | Ok (_, report) -> Format.printf "%a@." Obs.Json.pp report
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ report_store_arg $ id_arg)

let report_diff_cmd =
  let doc = "diff two stored runs by id, gating metric drift" in
  let old_arg = Arg.(required & pos 0 (some int) None & info [] ~docv:"OLD_ID" ~doc:"baseline run id") in
  let new_arg = Arg.(required & pos 1 (some int) None & info [] ~docv:"NEW_ID" ~doc:"candidate run id") in
  let run dir old_id new_id threshold time_threshold =
    let store = open_store dir in
    let load id =
      match Obs.Store.load store id with
      | Error msg -> store_fail msg
      | Ok (entry, report) -> (
        match Obs.Regress.validate_report report with
        | Error msg -> store_fail (Printf.sprintf "run %d: invalid report: %s" id msg)
        | Ok report -> (entry, report))
    in
    let _, old_report = load old_id and _, new_report = load new_id in
    print_meta_diff (Obs.Regress.meta_mismatches old_report new_report);
    let deltas = Obs.Regress.compare_reports old_report new_report in
    print_deltas ~threshold ~time_threshold deltas;
    let gated =
      List.filter (Obs.Regress.exceeds ~threshold ~time_threshold) deltas |> List.length
    in
    if gated = 0 then Format.printf "OK: runs %d -> %d within thresholds@." old_id new_id
    else begin
      Format.printf "DRIFT: %d gated delta%s between runs %d and %d@." gated
        (if gated = 1 then "" else "s")
        old_id new_id;
      exit 1
    end
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const run $ report_store_arg $ old_arg $ new_arg $ report_threshold_arg
      $ report_time_threshold_arg)

let report_trend_cmd =
  let doc = "walk the last N stored runs of one model/engine family and flag metric drift" in
  let last_arg =
    Arg.(value & opt int 5 & info [ "last" ] ~docv:"N" ~doc:"window size (default 5)")
  in
  let run dir model engine last threshold time_threshold =
    let store = open_store dir in
    (* default family: whatever the newest stored run is *)
    let model, engine =
      match (model, engine, List.rev (Obs.Store.entries store)) with
      | (Some _ as m), (Some _ as e), _ -> (m, e)
      | _, _, [] -> store_fail (Printf.sprintf "store %s is empty" (Obs.Store.dir store))
      | m, e, newest :: _ ->
        ( Some (Option.value m ~default:newest.Obs.Store.model),
          Some (Option.value e ~default:newest.Obs.Store.engine) )
    in
    let entries = Obs.Store.select ?model ?engine ~last store in
    if List.length entries < 2 then
      store_fail
        (Printf.sprintf "need at least 2 stored runs of model=%s engine=%s, have %d"
           (Option.get model) (Option.get engine) (List.length entries));
    let labeled =
      List.map
        (fun e ->
          match Obs.Store.load store e.Obs.Store.id with
          | Error msg -> store_fail msg
          | Ok (_, report) -> (Printf.sprintf "run %d" e.Obs.Store.id, report))
        entries
    in
    Format.printf "trend: %d runs of model=%s engine=%s@." (List.length entries)
      (Option.get model) (Option.get engine);
    match Obs.Regress.trend labeled with
    | Error msg -> store_fail msg
    | Ok steps ->
      let flagged = ref 0 in
      List.iter
        (fun s ->
          let gated =
            List.filter
              (Obs.Regress.exceeds ~threshold ~time_threshold)
              s.Obs.Regress.step_deltas
          in
          flagged := !flagged + List.length gated;
          if s.Obs.Regress.step_deltas <> [] || s.Obs.Regress.step_meta_diff <> [] then begin
            Format.printf "%s -> %s:@." s.Obs.Regress.from_label s.Obs.Regress.to_label;
            print_meta_diff s.Obs.Regress.step_meta_diff;
            print_deltas ~threshold ~time_threshold s.Obs.Regress.step_deltas
          end)
        steps;
      if !flagged = 0 then Format.printf "OK: no gated drift across %d steps@." (List.length steps)
      else begin
        Format.printf "DRIFT: %d gated delta%s across %d steps@." !flagged
          (if !flagged = 1 then "" else "s")
          (List.length steps);
        exit 1
      end
  in
  Cmd.v (Cmd.info "trend" ~doc)
    Term.(
      const run $ report_store_arg $ model_filter_arg $ engine_filter_arg $ last_arg
      $ report_threshold_arg $ report_time_threshold_arg)

let report_cmd =
  let doc = "query the run-report store (list, show, diff, trend)" in
  Cmd.group (Cmd.info "report" ~doc)
    [ report_list_cmd; report_show_cmd; report_diff_cmd; report_trend_cmd ]

(* ---------- serve / submit / batch / ctl ----------

   The persistent job daemon (docs/SERVE.md) and its clients. The
   daemon schedules submitted models on a worker-domain pool; clients
   talk newline-delimited JSON over a Unix or TCP socket. *)

let address_conv =
  let parse s =
    if String.length s >= 4 && String.sub s 0 4 = "tcp:" then begin
      let rest = String.sub s 4 (String.length s - 4) in
      match String.rindex_opt rest ':' with
      | None -> Error (`Msg "tcp address must be tcp:HOST:PORT")
      | Some i -> (
        let host = String.sub rest 0 i in
        let host = if host = "" then "127.0.0.1" else host in
        match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
        | Some port when port >= 0 -> Ok (Serve.Protocol.Tcp (host, port))
        | Some _ | None -> Error (`Msg (Printf.sprintf "bad port in %S" s)))
    end
    else begin
      let path =
        if String.length s >= 5 && String.sub s 0 5 = "unix:" then
          String.sub s 5 (String.length s - 5)
        else s
      in
      if path = "" then Error (`Msg "empty socket path") else Ok (Serve.Protocol.Unix_path path)
    end
  in
  Arg.conv (parse, Serve.Protocol.pp_address)

let serve_listen_arg =
  Arg.(
    value
    & opt address_conv (Serve.Protocol.Unix_path "cbq-mc.sock")
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "listen address: $(b,unix:)PATH (default $(b,unix:cbq-mc.sock)) or \
           $(b,tcp:)HOST:PORT (port 0 picks a free port, printed at startup)")

let connect_arg =
  Arg.(
    value
    & opt address_conv (Serve.Protocol.Unix_path "cbq-mc.sock")
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:"daemon address: $(b,unix:)PATH (default $(b,unix:cbq-mc.sock)) or $(b,tcp:)HOST:PORT")

let serve_engine_arg =
  Arg.(
    value & opt string "cbq-bwd"
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          (Printf.sprintf "engine to run on the server: %s"
             (String.concat " | " Baselines.Suite.names)))

let serve_cmd =
  let doc = "run the persistent model-checking job daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Accepts jobs (AIGER model + engine + budget) over a Unix or TCP socket, schedules \
         them on a pool of worker domains, streams per-job lifecycle events back to each \
         client, and appends one run report per completed job to the store given with \
         $(b,--store) (query it with $(b,cbq-mc report)). The budget flags set a per-job \
         ceiling: client budgets are capped against it, and a resource a client leaves \
         unlimited inherits the ceiling. Protocol schema: docs/SERVE.md.";
    ]
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"worker domains (default: the machine's recommended domain count)")
  in
  let run listen jobs store stats ceiling =
    if stats then begin
      Obs.reset ();
      Obs.set_enabled true
    end;
    let store = Option.map Obs.Store.open_ store in
    let server =
      try Serve.Server.start ?jobs ~ceiling ?store listen
      with Unix.Unix_error (e, _, arg) ->
        Format.eprintf "cbq-mc serve: cannot listen on %a: %s (%s)@." Serve.Protocol.pp_address
          listen (Unix.error_message e) arg;
        exit 2
    in
    let workers =
      (Serve.Scheduler.stats (Serve.Server.scheduler server)).Serve.Scheduler.workers
    in
    Format.printf "serve: listening on %a (%d workers)@." Serve.Protocol.pp_address
      (Serve.Server.address server) workers;
    Serve.Server.wait server;
    Format.printf "serve: drained and stopped@.";
    if stats then Format.printf "%a" Obs.pp_summary ()
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ serve_listen_arg $ jobs_arg $ store_opt_arg $ stats_arg $ budget_arg)

let connect_client address =
  try Serve.Client.connect address
  with Unix.Unix_error (e, _, _) ->
    Format.eprintf "cbq-mc: cannot connect to %a: %s@." Serve.Protocol.pp_address address
      (Unix.error_message e);
    exit 2

let print_outcome name = function
  | Serve.Client.Finished { verdict; seconds; report; progress; _ } ->
    Format.printf "%s: %a (%.3fs, %d progress frames%s)@." name Baselines.Verdict.pp verdict
      seconds progress
      (match report with Some r -> Printf.sprintf ", report %d" r | None -> "");
    true
  | Serve.Client.Crashed { message; _ } ->
    Format.printf "%s: FAILED on the server: %s@." name message;
    false
  | Serve.Client.Refused { reason } ->
    Format.printf "%s: REJECTED: %s@." name reason;
    false

let submit_cmd =
  let doc = "submit one job to a running daemon and wait for the verdict" in
  let run connect circuit param aag engine progress budget =
    let model, _status = load_model circuit param aag in
    let spec =
      {
        Serve.Client.tag = "cli";
        model_name = Netlist.Model.name model;
        aig = Netlist.Aiger.write model;
        engine;
        budget;
      }
    in
    let client = connect_client connect in
    let on_event =
      if progress then function
        | Serve.Protocol.Progress { frame; nodes; _ } ->
          Format.eprintf "frame %d: %d nodes@." frame nodes
        | _ -> ()
      else fun _ -> ()
    in
    let outcome =
      try Serve.Client.submit_wait ~on_event client spec
      with Serve.Client.Server_closed msg ->
        Format.eprintf "cbq-mc submit: %s@." msg;
        exit 2
    in
    Serve.Client.close client;
    if not (print_outcome (Netlist.Model.name model) outcome) then exit 1
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const run $ connect_arg $ circuit_arg $ param_arg $ aag_arg $ serve_engine_arg
      $ progress_arg $ budget_arg)

let batch_cmd =
  let doc = "submit every AIGER file in a directory to a running daemon" in
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"directory of .aag/.aig model files")
  in
  let run connect dir engine budget =
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".aag" || Filename.check_suffix f ".aig")
      |> List.sort compare
    in
    if files = [] then begin
      Format.eprintf "cbq-mc batch: no .aag/.aig files in %s@." dir;
      exit 2
    end;
    (* an unparsable file is reported and skipped; the rest still run *)
    let parsed =
      List.filter_map
        (fun f ->
          match read_aiger (Filename.concat dir f) with
          | Ok model -> Some (f, model)
          | Error msg ->
            Format.eprintf "cbq-mc: %s@." msg;
            None)
        files
    in
    let specs =
      List.map
        (fun (f, model) ->
          {
            Serve.Client.tag = f;
            model_name = Filename.remove_extension f;
            aig = Netlist.Aiger.write model;
            engine;
            budget;
          })
        parsed
    in
    let client = connect_client connect in
    let outcomes = Serve.Client.run_batch client specs in
    Serve.Client.close client;
    let ok = ref 0 in
    List.iter2 (fun (f, _) o -> if print_outcome f o then incr ok) parsed outcomes;
    Format.printf "batch: %d/%d jobs finished@." !ok (List.length files);
    if !ok < List.length files then exit 1
  in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run $ connect_arg $ dir_arg $ serve_engine_arg $ budget_arg)

let ctl_cmd =
  let doc = "control a running daemon: ping, stats or shutdown" in
  let action_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("ping", `Ping); ("stats", `Stats); ("shutdown", `Shutdown) ])) None
      & info [] ~docv:"ACTION" ~doc:"ping | stats | shutdown")
  in
  let run connect action =
    let client = connect_client connect in
    (try
       match action with
       | `Ping ->
         Serve.Client.ping client;
         Format.printf "pong@."
       | `Stats ->
         let queued, running, completed, workers = Serve.Client.stats client in
         Format.printf "queued=%d running=%d completed=%d workers=%d@." queued running completed
           workers
       | `Shutdown ->
         Serve.Client.shutdown_server client;
         Format.printf "server stopped@."
     with Serve.Client.Server_closed msg ->
       Format.eprintf "cbq-mc ctl: %s@." msg;
       exit 2);
    Serve.Client.close client
  in
  Cmd.v (Cmd.info "ctl" ~doc) Term.(const run $ connect_arg $ action_arg)

let () =
  let doc = "circuit-based quantification model checker (DATE'05 reproduction)" in
  let info = Cmd.info "cbq-mc" ~version:"1.0.0" ~doc in
  (* bare `cbq-mc --engine ... --stats-json ...` behaves like `cbq-mc run` *)
  exit
    (Cmd.eval
       (Cmd.group ~default:run_term info
          [
            list_cmd; run_cmd; export_cmd; reduce_cmd; quantify_cmd; cec_cmd; fuzz_cmd; sat_cmd;
            report_cmd; serve_cmd; submit_cmd; batch_cmd; ctl_cmd;
          ]))
