(* Multicore-layer benchmark: portfolio racing vs every fixed engine,
   parallel SAT-merge sweeping, and the sharded fuzz campaign.

   Usage:
     dune exec bench/par_bench.exe
     dune exec bench/par_bench.exe -- --quick
     dune exec bench/par_bench.exe -- --jobs=4 --timeout=2
     dune exec bench/par_bench.exe -- --probe
                  -- engine-vs-family grid over the whole registry, for
                     choosing adversarial portfolio family sets
     dune exec bench/par_bench.exe -- --stats-dir=DIR
                  -- writes DIR/BENCH_par.json, gateable by
                     cbq-bench-regress against bench/baseline-par

   The portfolio row scores engines PAR-style: an engine is charged its
   wall time when it decides a family and the full governor budget when
   it does not (undecided = useless to a verification flow, however
   fast it gave up). The family set is chosen so that EVERY fixed
   engine fails or stalls somewhere, while each family falls quickly to
   at least one engine — the complementarity the racing portfolio
   exploits. The headline metric is
       speedup = best fixed engine's charged total / portfolio total
   and `parbench.portfolio.win15` (1 when speedup >= 1.5x) is a gated
   deterministic counter: the margin is by construction a multiple of
   the governor budget, so runner speed cannot flip it. Raw seconds
   live in spans, which the regress gate ignores.

   The bench exits non-zero when any portfolio verdict disagrees with
   the registry oracle, when parallel sweeping changes an equivalence
   class, or when the sharded campaign diverges from the sequential one
   — so CI can use it as a correctness smoke as well as a perf gate. *)

let quick = ref false
let stats_dir : string option ref = ref None
let probe = ref false
let jobs = ref 4
let budget = ref 2.0
let failed = ref false

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--quick" -> quick := true
        | "--probe" -> probe := true
        | s when String.length s > 12 && String.sub s 0 12 = "--stats-dir=" ->
          stats_dir := Some (String.sub s 12 (String.length s - 12))
        | s when String.length s > 7 && String.sub s 0 7 = "--jobs=" ->
          jobs := int_of_string (String.sub s 7 (String.length s - 7))
        | s when String.length s > 10 && String.sub s 0 10 = "--timeout=" ->
          budget := float_of_string (String.sub s 10 (String.length s - 10))
        | s ->
          Printf.eprintf "par_bench: unknown argument %S\n" s;
          exit 2)
    Sys.argv

let line fmt = Format.printf fmt

let fail fmt =
  failed := true;
  Format.kasprintf (fun s -> Format.eprintf "par_bench: FAIL: %s@." s) fmt

let c name = Obs.counter ("parbench." ^ name)
let span name dt = Obs.add_seconds (Obs.span ("parbench." ^ name)) dt

let suite_config =
  {
    Baselines.Suite.default_config with
    cbq = { Cbq.Reachability.default with make_trace = false };
  }
let engines () = Baselines.Suite.engines ~config:suite_config ()

let decided = function
  | Baselines.Verdict.Proved | Baselines.Verdict.Falsified _ -> true
  | Baselines.Verdict.Undecided _ -> false

(* one governed fixed-engine run on its own clone; charged PAR-style *)
let fixed_run (e : Baselines.Suite.engine) m =
  let limits = Util.Limits.create ~timeout:!budget () in
  let (v, _), dt = Util.Stopwatch.time (fun () -> e.run ~limits (Par.Clone.model m)) in
  (v, dt, if decided v then dt else !budget)

(* ---------------- probe: engine-vs-family grid ---------------- *)

let probe_families =
  [
    ("counter", Some 5); ("counter", Some 6); ("counter-even", Some 8); ("gray", Some 4);
    ("twin-shift", Some 8); ("shift-pattern", Some 8); ("lfsr", Some 6); ("arbiter", Some 6);
    ("traffic", None); ("fifo", Some 3); ("fifo-buggy", Some 3); ("accumulator", Some 5);
    ("peterson", None); ("johnson", Some 6); ("tmr", Some 3);
    ("mult-cmp", Some 10); ("mult-cmp", Some 12); ("mult-bug", Some 12);
  ]

let run_probe () =
  line "engine-vs-family grid (budget %.1fs, charged = wall or budget when undecided)@." !budget;
  List.iter
    (fun (name, param) ->
      let m, _ = Circuits.Registry.build name param in
      line "@.%s:@." (Netlist.Model.name m);
      List.iter
        (fun (e : Baselines.Suite.engine) ->
          let v, dt, charged = fixed_run e m in
          line "  %-10s %-18s %7.3fs charged %7.3fs@." e.name
            (Format.asprintf "%a" Baselines.Verdict.pp v)
            dt charged)
        (engines ()))
    probe_families

(* ---------------- portfolio row ---------------- *)

(* the adversarial set (see --probe): each family is decided in
   milliseconds by at least one first-wave engine, and every fixed
   engine burns its whole budget on at least one of them — the
   63-step-deep `counter` counterexample stalls cbq-bwd, BMC at bound
   30, induction and both enumeration engines; `accumulator` stalls both
   CBQ engines and the cofactor enumerator; `counter-even` at 8 bits
   stalls cbq-fwd (deadline) and BMC (inconclusive bound) while the
   other engines prove it instantly; and `mult-bug`'s multiplier cone
   drowns both BDD engines while BMC falsifies it in one query *)
let portfolio_families () =
  [
    ("counter", Some 6);
    ("counter-even", Some 8);
    ("accumulator", Some 5);
    ("mult-bug", Some 12);
  ]

(* racing order, not preference order: the bounded SAT engines and the
   BDD engines are each either decided or governor-tripped within
   milliseconds-to-one-budget, so they share the first scheduling wave;
   the open-ended traversal engines follow as slots free up. On a
   single-core box this keeps the per-family winner's dilution (the
   race time-slices [jobs] entrants) to the cheap wave. *)
let racing_order =
  [ "bmc"; "induction"; "bdd-bwd"; "bdd-fwd"; "cbq-bwd"; "cbq-fwd"; "cofactor"; "hybrid" ]

let run_portfolio () =
  line "@.=== portfolio racing vs fixed engines (jobs=%d, budget %.1fs/run) ===@." !jobs !budget;
  let families = portfolio_families () in
  let es = engines () in
  let totals = Hashtbl.create 16 in
  List.iter (fun (e : Baselines.Suite.engine) -> Hashtbl.replace totals e.name 0.0) es;
  line "%-14s %-12s %-16s %9s@." "family" "engine" "verdict" "charged(s)";
  let portfolio_total = ref 0.0 in
  List.iter
    (fun (name, param) ->
      let m, status = Circuits.Registry.build name param in
      let fname = Netlist.Model.name m in
      List.iter
        (fun (e : Baselines.Suite.engine) ->
          let v, _, charged = fixed_run e m in
          Hashtbl.replace totals e.name (Hashtbl.find totals e.name +. charged);
          line "%-14s %-12s %-16s %9.3f@." fname e.name
            (Format.asprintf "%a" Baselines.Verdict.pp v)
            charged)
        es;
      let r =
        Baselines.Portfolio.run ~config:suite_config ~engines:racing_order ~jobs:!jobs
          ~make_limits:(fun () -> Util.Limits.create ~timeout:!budget ())
          m
      in
      let charged = if decided r.Baselines.Portfolio.verdict then r.Baselines.Portfolio.seconds else !budget in
      portfolio_total := !portfolio_total +. charged;
      span ("portfolio." ^ fname ^ ".time") r.Baselines.Portfolio.seconds;
      line "%-14s %-12s %-16s %9.3f  (winner %s)@." fname "PORTFOLIO"
        (Format.asprintf "%a" Baselines.Verdict.pp r.Baselines.Portfolio.verdict)
        charged
        (match r.Baselines.Portfolio.winner with Some w -> w | None -> "-");
      (* the race must reproduce the registry oracle, or the speedup is
         meaningless *)
      (match (r.Baselines.Portfolio.verdict, status) with
      | Baselines.Verdict.Proved, Circuits.Registry.Safe -> Obs.incr (c "portfolio.decided")
      | Baselines.Verdict.Falsified d, Circuits.Registry.Unsafe d' when d = d' ->
        Obs.incr (c "portfolio.decided")
      | v, _ ->
        fail "portfolio on %s: %a disagrees with the registry oracle" fname
          Baselines.Verdict.pp v);
      Obs.incr (c "portfolio.families"))
    families;
  let best_name, best_fixed =
    Hashtbl.fold
      (fun name t ((_, bt) as best) -> if t < bt then (name, t) else best)
      totals ("-", infinity)
  in
  let speedup = best_fixed /. !portfolio_total in
  span "portfolio.time" !portfolio_total;
  span "portfolio.best_fixed_time" best_fixed;
  if speedup >= 1.5 then Obs.incr (c "portfolio.win15")
  else fail "portfolio speedup %.2fx < 1.5x over %s" speedup best_name;
  line "@.%-24s %9s@." "fixed engine" "total(s)";
  List.iter
    (fun (e : Baselines.Suite.engine) ->
      line "%-24s %9.3f@." e.name (Hashtbl.find totals e.name))
    es;
  line "%-24s %9.3f@." "portfolio" !portfolio_total;
  line "@.speedup vs best fixed engine (%s): %.2fx %s@." best_name speedup
    (if speedup >= 1.5 then "(>= 1.5x: PASS)" else "(< 1.5x: FAIL)")

(* ---------------- parallel SAT-merge row ---------------- *)

(* merge-heavy workload: the mult-cmp miter cone — the same multiplier
   middle bit accumulated under two full-adder associations with the
   partial products strash-shared, so every intermediate sum and carry
   has a semantically equal twin that only a SAT query can merge; one
   thin simulation word keeps the candidate classes coarse so a large
   batch of cross-pairs reaches the parallel SAT stage *)
let sweep_workload () =
  let m = Circuits.Families.mult_cmp ~bits:(if !quick then 5 else 7) () in
  let aig = Netlist.Model.aig m in
  (aig, [ Aig.not_ m.Netlist.Model.property ])

let sweep_once ~sat_jobs aig roots =
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 77 in
  let config =
    { Sweep.Sweeper.default with bdd_node_limit = 0; sim_rounds = 1; sat_jobs }
  in
  let (repl, report), dt =
    Util.Stopwatch.time (fun () -> Sweep.Sweeper.run ~config aig checker ~prng ~roots)
  in
  (List.init (Aig.num_nodes aig) repl, report, dt)

let run_sweep () =
  line "@.=== parallel SAT-merge sweeping (sat_jobs 1 vs %d) ===@." !jobs;
  let aig, roots = sweep_workload () in
  let aig_par = Aig.copy aig in
  let seq_repl, seq_report, seq_dt = sweep_once ~sat_jobs:1 aig roots in
  let par_repl, par_report, par_dt = sweep_once ~sat_jobs:!jobs aig_par roots in
  line "%-10s %9s %9s %9s %9s@." "mode" "merges" "sat-calls" "refuted" "time(s)";
  line "%-10s %9d %9d %9d %9.4f@." "seq" seq_report.Sweep.Sweeper.total_merges
    seq_report.Sweep.Sweeper.sat_calls seq_report.Sweep.Sweeper.sat_refuted seq_dt;
  line "%-10s %9d %9d %9d %9.4f@."
    (Printf.sprintf "par(%d)" !jobs)
    par_report.Sweep.Sweeper.total_merges par_report.Sweep.Sweeper.sat_calls
    par_report.Sweep.Sweeper.sat_refuted par_dt;
  Obs.add (c "sweep.merges") par_report.Sweep.Sweeper.total_merges;
  Obs.add (c "sweep.sat_calls") par_report.Sweep.Sweeper.sat_calls;
  Obs.add (c "sweep.sat_refuted") par_report.Sweep.Sweeper.sat_refuted;
  span "sweep.seq.time" seq_dt;
  span "sweep.par.time" par_dt;
  if seq_repl = par_repl && seq_report.Sweep.Sweeper.total_merges = par_report.Sweep.Sweeper.total_merges
  then Obs.incr (c "sweep.classes_equal")
  else fail "parallel sweep changed the merge classes (sat_jobs=%d)" !jobs

(* ---------------- sharded fuzz row ---------------- *)

let run_fuzz () =
  let count = if !quick then 60 else 120 in
  line "@.=== sharded fuzz campaign (seed 42, %d models, jobs 1 vs %d) ===@." count !jobs;
  let campaign j =
    Sweep.Fault.with_injection (fun () ->
        Util.Stopwatch.time (fun () ->
            Fuzz.Runner.run ~shrink:false ~jobs:j ~seed:42 ~count ()))
  in
  let seq, seq_dt = campaign 1 in
  let par, par_dt = campaign !jobs in
  let seeds (r : Fuzz.Runner.result) =
    List.map (fun f -> f.Fuzz.Runner.seed) r.Fuzz.Runner.failures
  in
  line "%-10s %9s %9s@." "mode" "failures" "time(s)";
  line "%-10s %9d %9.3f@." "seq" (List.length (seeds seq)) seq_dt;
  line "%-10s %9d %9.3f@." (Printf.sprintf "par(%d)" !jobs) (List.length (seeds par)) par_dt;
  Obs.add (c "fuzz.failures") (List.length (seeds par));
  span "fuzz.seq.time" seq_dt;
  span "fuzz.par.time" par_dt;
  if seeds seq = seeds par then Obs.incr (c "fuzz.match")
  else fail "sharded campaign diverged from the sequential one (jobs=%d)" !jobs

let () =
  if !probe then run_probe ()
  else begin
    (match !stats_dir with
    | None -> ()
    | Some dir ->
      Util.Fs.mkdirs dir;
      Obs.reset ();
      Obs.set_enabled true);
    line "=== multicore layer benchmark%s ===@." (if !quick then " (quick)" else "");
    run_portfolio ();
    run_sweep ();
    run_fuzz ();
    (match !stats_dir with
    | None -> ()
    | Some dir ->
      Obs.meta "tool" "par_bench";
      Obs.meta "experiment" (if !quick then "par-quick" else "par");
      Obs.write_report (Filename.concat dir "BENCH_par.json");
      Obs.set_enabled false;
      line "report: %s@." (Filename.concat dir "BENCH_par.json"));
    if !failed then exit 1
  end
