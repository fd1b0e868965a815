(* Per-layer metrics of a traced pass: self times from the harness's
   profile of the trace ring, work counts from the Obs counters, and
   client-seen serve timings. Names follow the modules they measure. *)

type source = {
  build_s : float;
  freeze_s : float;
  pass : Passes.pass;
  counter : string -> float;
}

let self src name = Profile.self_s src.pass.profile name
let count src name = src.counter name

let engine_time src p which =
  List.fold_left
    (fun acc (engine, (total, self)) -> if p engine then acc +. which (total, self) else acc)
    0.0 src.pass.engine_time

let starts_with prefix s = String.starts_with ~prefix s

let sat_under src parents =
  Profile.time_under src.pass.profile "sat.solve" ~parent:(fun up ->
      List.exists (fun prefix -> starts_with prefix up) parents)

let sat_calls src = Profile.durations src.pass.profile "sat.solve"
let serve src f = f src.pass.Passes.serve
let p50 = Stats.percentile 50.0
let p99 = Stats.percentile 99.0

(* [obs.trace.overhead_frac] compares two runs, so the caller fills it in. *)
let overhead_frac = "obs.trace.overhead_frac"

let all : (string * string * (source -> float)) list =
  [
    ("circuits.build_s", "s", fun s -> s.build_s);
    ("par.clone.freeze_s", "s", fun s -> s.freeze_s);
    ("par.clone.thaw_s", "s", fun s -> Profile.total_s s.pass.profile "bench.thaw");
    ("baselines.engine_s", "s", fun s -> engine_time s (fun _ -> true) fst);
    ("baselines.bdd_s", "s", fun s -> engine_time s (starts_with "bdd-") fst);
    ( "baselines.unroll_s",
      "s",
      fun s -> engine_time s (fun e -> e = "bmc" || e = "induction") snd );
    ("cbq.reach.frames", "count", fun s -> float_of_int (Profile.calls s.pass.profile "reach.frame"));
    ("cbq.reach.self_s", "s", fun s -> self s "reach.frame");
    ("cbq.preimage.self_s", "s", fun s -> self s "preimage.compute");
    ("cbq.quantify.self_s", "s", fun s -> self s "quantify.var");
    ("cbq.quantify.calls", "count", fun s -> float_of_int (Profile.calls s.pass.profile "quantify.var"));
    ("cbq.quantify.eliminated", "count", fun s -> count s "quantify.vars.eliminated");
    ("cbq.quantify.aborted", "count", fun s -> count s "quantify.vars.aborted");
    ("cbq.pqe.self_s", "s", fun s -> self s "pqe.eliminate");
    ("sweep.run.self_s", "s", fun s -> self s "sweep.run");
    ("sweep.sim.self_s", "s", fun s -> self s "sweep.sim");
    ("sweep.sim.words", "count", fun s -> count s "sweep.sim.words");
    ("sweep.bdd.self_s", "s", fun s -> self s "sweep.bdd");
    ("sweep.bdd.aborts", "count", fun s -> count s "sweep.bdd.aborts");
    ("sweep.sat.self_s", "s", fun s -> self s "sweep.sat");
    ("sweep.sat.calls", "count", fun s -> count s "sweep.sat.calls");
    ("sweep.merge.sat", "count", fun s -> count s "sweep.merge.sat");
    ( "sweep.sat.merge_yield",
      "ratio",
      fun s -> Stats.ratio (count s "sweep.merge.sat") (count s "sweep.sat.calls") );
    ( "sweep.merge.total",
      "count",
      fun s ->
        List.fold_left (fun acc k -> acc +. count s ("sweep.merge." ^ k)) 0.0
          [ "hash"; "sim"; "bdd"; "sat" ] );
    ("synth.dontcare.self_s", "s", fun s -> self s "dontcare.disjunction");
    ("synth.dontcare.attempts", "count", fun s -> count s "dontcare.attempts");
    ( "synth.dontcare.yield",
      "ratio",
      fun s ->
        Stats.ratio
          (count s "dontcare.replacements.const" +. count s "dontcare.replacements.merge")
          (count s "dontcare.attempts") );
    ( "synth.dontcare.odc_accept_ratio",
      "ratio",
      fun s -> Stats.ratio (count s "dontcare.odc.accepted") (count s "dontcare.odc.attempts") );
    ("sat.solve_s", "s", fun s -> Profile.total_s s.pass.profile "sat.solve");
    ("sat.solve_calls", "count", fun s -> count s "sat.solve_calls");
    ("sat.conflicts", "count", fun s -> count s "sat.conflicts");
    ("sat.propagations", "count", fun s -> count s "sat.propagations");
    ( "sat.props_per_s",
      "1/s",
      fun s -> Stats.ratio (count s "sat.propagations") (Profile.total_s s.pass.profile "sat.solve") );
    ("sat.call_p50_s", "s", fun s -> p50 (sat_calls s));
    ("sat.call_p99_s", "s", fun s -> p99 (sat_calls s));
    ("sat.solve_s.by_dontcare", "s", fun s -> sat_under s [ "dontcare." ]);
    ("sat.solve_s.by_sweep", "s", fun s -> sat_under s [ "sweep." ]);
    ( "sat.solve_s.by_reach",
      "s",
      fun s -> sat_under s [ "reach."; "preimage."; "quantify."; "pqe." ] );
    ("sat.solve_s.by_engine", "s", fun s -> sat_under s [ "bench.engine" ]);
    ("cnf.queries", "count", fun s -> count s "cnf.queries");
    ( "cnf.const_shortcut_ratio",
      "ratio",
      fun s -> Stats.ratio (count s "cnf.const_shortcuts") (count s "cnf.queries") );
    ("aig.and_nodes", "count", fun s -> count s "aig.and_nodes");
    ( "aig.strash_hit_ratio",
      "ratio",
      fun s ->
        Stats.ratio (count s "aig.strash_hits") (count s "aig.strash_hits" +. count s "aig.and_nodes")
    );
    ("serve.queue_wait_p50_s", "s", fun s -> p50 (serve s (fun t -> t.queue_wait)));
    ("serve.queue_wait_p99_s", "s", fun s -> p99 (serve s (fun t -> t.queue_wait)));
    ("serve.run_p50_s", "s", fun s -> p50 (serve s (fun t -> t.run)));
    ("serve.engine_p50_s", "s", fun s -> p50 (serve s (fun t -> t.engine_s)));
    ("serve.overhead_p50_s", "s", fun s -> p50 (serve s (fun t -> t.overhead)));
    ("serve.overhead_p99_s", "s", fun s -> p99 (serve s (fun t -> t.overhead)));
    ("obs.trace.events", "count", fun s -> float_of_int s.pass.profile.Profile.events);
    ("obs.trace.dropped", "count", fun s -> float_of_int s.pass.dropped);
    (overhead_frac, "ratio", fun _ -> 0.0);
    ("obs.store.index_entries", "count", fun s -> count s "store.index.entries");
  ]

let units = List.map (fun (name, unit, _) -> (name, unit)) all
let measure src = List.map (fun (name, _, f) -> (name, f src)) all
