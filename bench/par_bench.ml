(* PAR: the multicore layer. Portfolio racing vs every fixed engine and
   the sharded fuzz campaign, at 4 domains and a 2 s governor budget per
   engine run. One report row, par.json, gated by cbq-bench-regress
   --only=counters.parbench. against bench/baseline-par.

   The portfolio row scores engines PAR-style: an engine is charged its
   wall time when it decides a family and the full governor budget when
   it does not (undecided = useless to a verification flow, however
   fast it gave up). The family set is chosen so that EVERY fixed
   engine leaves some family undecided, while each family falls quickly
   to at least one engine — the complementarity the racing portfolio
   exploits. The gated counters count verdicts, not seconds:
   `parbench.portfolio.decided` (families the race decides, all four)
   and `parbench.portfolio.incomplete_engines` (fixed engines that leave
   some family undecided, all eight). Each engine either decides a
   family in well under a second or is far from done at the budget, so
   runner speed does not move them. The speedup
       speedup = best fixed engine's charged total / portfolio total
   is printed, and the seconds behind it live in spans, which the
   regress gate ignores.

   It is a correctness failure when any portfolio verdict disagrees with
   the registry oracle, or when the sharded campaign diverges from the
   sequential one — so CI uses the suite as a correctness smoke as well
   as a perf gate. *)

open Harness

let jobs = 4
let budget = 2.0
let fail fmt = Harness.fail "PAR" fmt
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
  let limits = Util.Limits.create ~timeout:budget () in
  let (v, _), dt = Util.Stopwatch.time (fun () -> e.run ~limits (Par.Clone.model m)) in
  (v, dt, if decided v then dt else budget)

(* ---------------- portfolio row ---------------- *)

(* the adversarial set: each family is decided in milliseconds by at
   least one first-wave engine, and every fixed engine leaves at least
   one of them undecided — the 255-step-deep `counter` counterexample,
   which both BDD engines find in milliseconds, stalls both CBQ engines,
   BMC at bound 30, induction and both enumeration engines;
   `counter-even` at 8 bits stalls cbq-fwd (deadline) and BMC
   (inconclusive bound) while the other engines prove it instantly;
   `accumulator` falls to every engine, to BMC and the BDD engines
   first; and `mult-bug`'s multiplier cone drowns both BDD engines while
   BMC falsifies it in one query *)
let portfolio_families () =
  [
    ("counter", Some 8);
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
  line "@.=== portfolio racing vs fixed engines (jobs=%d, budget %.1fs/run) ===@." jobs budget;
  let families = portfolio_families () in
  let es = engines () in
  let totals = Hashtbl.create 16 in
  List.iter (fun (e : Baselines.Suite.engine) -> Hashtbl.replace totals e.name 0.0) es;
  (* fixed engines that leave some family undecided *)
  let incomplete = Hashtbl.create 16 in
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
          if not (decided v) then Hashtbl.replace incomplete e.name ();
          line "%-14s %-12s %-16s %9.3f@." fname e.name
            (Format.asprintf "%a" Baselines.Verdict.pp v)
            charged)
        es;
      let r =
        Baselines.Portfolio.run ~config:suite_config ~engines:racing_order ~jobs
          ~make_limits:(fun () -> Util.Limits.create ~timeout:budget ())
          m
      in
      let charged = if decided r.Baselines.Portfolio.verdict then r.Baselines.Portfolio.seconds else budget in
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
  Obs.add (c "portfolio.incomplete_engines") (Hashtbl.length incomplete);
  line "@.%-24s %9s@." "fixed engine" "total(s)";
  List.iter
    (fun (e : Baselines.Suite.engine) ->
      line "%-24s %9.3f@." e.name (Hashtbl.find totals e.name))
    es;
  line "%-24s %9.3f@." "portfolio" !portfolio_total;
  line "@.fixed engines leaving a family undecided: %d of %d@." (Hashtbl.length incomplete)
    (List.length es);
  line "speedup vs best fixed engine (%s): %.2fx@." best_name speedup

(* ---------------- sharded fuzz row ---------------- *)

let run_fuzz () =
  let count = if !quick then 60 else 120 in
  line "@.=== sharded fuzz campaign (seed 42, %d models, jobs 1 vs %d) ===@." count jobs;
  let campaign j =
    Sweep.Fault.with_injection (fun () ->
        Util.Stopwatch.time (fun () ->
            Fuzz.Runner.run ~shrink:false ~jobs:j ~seed:42 ~count ()))
  in
  let seq, seq_dt = campaign 1 in
  let par, par_dt = campaign jobs in
  let seeds (r : Fuzz.Runner.result) =
    List.map (fun f -> f.Fuzz.Runner.seed) r.Fuzz.Runner.failures
  in
  line "%-10s %9s %9s@." "mode" "failures" "time(s)";
  line "%-10s %9d %9.3f@." "seq" (List.length (seeds seq)) seq_dt;
  line "%-10s %9d %9.3f@." (Printf.sprintf "par(%d)" jobs) (List.length (seeds par)) par_dt;
  Obs.add (c "fuzz.failures") (List.length (seeds par));
  span "fuzz.seq.time" seq_dt;
  span "fuzz.par.time" par_dt;
  if seeds seq = seeds par then Obs.incr (c "fuzz.match")
  else fail "sharded campaign diverged from the sequential one (jobs=%d)" jobs

let run () =
  header "PAR" "multicore layer";
  with_report "par" @@ fun () ->
  run_portfolio ();
  run_fuzz ()
