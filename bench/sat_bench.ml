(* SAT: deterministic SAT-heavy workloads through [Sat.Solver], from
   pure clause-level instances to the incremental assumption pattern the
   sweeper uses, plus one end-to-end BMC row. One report row, sat.json,
   gated by cbq-bench-regress against bench/baseline-sat/after. All gated
   metrics are deterministic for a given build (fixed seeds, no timing,
   no wall-clock-dependent budgets): counters carry verdicts, answer
   tallies and solver work (conflicts/decisions/propagations); wall-clock
   goes to the satbench.<row>.time spans, which the gate ignores unless
   --time-threshold. *)

open Harness

let lp = Sat.Lit.pos
let ln = Sat.Lit.neg_of

(* ---------- instance generators (all seeded, all deterministic) ---------- *)

(* pigeonhole: holes+1 pigeons into holes, UNSAT; binary-clause heavy *)
let php holes =
  let s = Sat.Solver.create () in
  let pigeons = holes + 1 in
  let x = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    ignore (Sat.Solver.add_clause s (Array.to_list (Array.map lp x.(p))))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        ignore (Sat.Solver.add_clause s [ ln x.(p1).(h); ln x.(p2).(h) ])
      done
    done
  done;
  s

(* uniform random k-SAT; distinct variables per clause *)
let random_ksat ~prng ~vars ~clauses ~k s =
  let vs = Array.init vars (fun _ -> Sat.Solver.new_var s) in
  for _ = 1 to clauses do
    let chosen = Array.make k (-1) in
    for i = 0 to k - 1 do
      let rec draw () =
        let v = Util.Prng.int prng vars in
        if Array.exists (( = ) v) chosen then draw () else v
      in
      chosen.(i) <- draw ()
    done;
    let clause =
      Array.to_list (Array.map (fun v -> Sat.Lit.make vs.(v) (Util.Prng.bool prng)) chosen)
    in
    ignore (Sat.Solver.add_clause s clause)
  done;
  vs

(* ---------- rows ---------- *)

type tally = { mutable sat : int; mutable unsat : int; mutable unknown : int }

let count tally = function
  | Sat.Solver.Sat -> tally.sat <- tally.sat + 1
  | Sat.Solver.Unsat -> tally.unsat <- tally.unsat + 1
  | Sat.Solver.Unknown -> tally.unknown <- tally.unknown + 1

let row_counter row metric = Obs.counter (Printf.sprintf "satbench.%s.%s" row metric)

let record_row row tally work_conflicts work_decisions work_propagations dt =
  Obs.add (row_counter row "answers_sat") tally.sat;
  Obs.add (row_counter row "answers_unsat") tally.unsat;
  Obs.add (row_counter row "answers_unknown") tally.unknown;
  Obs.add (row_counter row "conflicts") work_conflicts;
  Obs.add (row_counter row "decisions") work_decisions;
  Obs.add (row_counter row "propagations") work_propagations;
  Obs.add_seconds (Obs.span (Printf.sprintf "satbench.%s.time" row)) dt;
  line "%-12s %6d sat %6d unsat %4d unk %10d confl %8.3fs@." row tally.sat
    tally.unsat tally.unknown work_conflicts dt

(* pure UNSAT proof work: pigeonhole *)
let run_php row holes =
  let tally = { sat = 0; unsat = 0; unknown = 0 } in
  let watch = Util.Stopwatch.start () in
  let s = php holes in
  count tally (Sat.Solver.solve s);
  let st = Sat.Solver.stats s in
  record_row row tally st.Sat.Solver.conflicts st.Sat.Solver.decisions
    st.Sat.Solver.propagations
    (Util.Stopwatch.elapsed watch)

(* random 3-SAT near the phase transition, fresh solver per instance *)
let run_rand3sat row ~instances ~vars =
  let tally = { sat = 0; unsat = 0; unknown = 0 } in
  let conflicts = ref 0 and decisions = ref 0 and props = ref 0 in
  let watch = Util.Stopwatch.start () in
  for seed = 1 to instances do
    let prng = Util.Prng.create (0x35a7 + seed) in
    let s = Sat.Solver.create () in
    let clauses = int_of_float (4.26 *. float_of_int vars) in
    ignore (random_ksat ~prng ~vars ~clauses ~k:3 s);
    count tally (Sat.Solver.solve s);
    let st = Sat.Solver.stats s in
    conflicts := !conflicts + st.Sat.Solver.conflicts;
    decisions := !decisions + st.Sat.Solver.decisions;
    props := !props + st.Sat.Solver.propagations
  done;
  record_row row tally !conflicts !decisions !props (Util.Stopwatch.elapsed watch)

(* random 2-SAT around ratio 1: exercises the binary-clause layer end to
   end *)
let run_rand2sat row ~instances ~vars =
  let tally = { sat = 0; unsat = 0; unknown = 0 } in
  let conflicts = ref 0 and decisions = ref 0 and props = ref 0 in
  let watch = Util.Stopwatch.start () in
  for seed = 1 to instances do
    let prng = Util.Prng.create (0x25a7 + (seed * 7919)) in
    let s = Sat.Solver.create () in
    let clauses = vars + (vars / 10) in
    ignore (random_ksat ~prng ~vars ~clauses ~k:2 s);
    count tally (Sat.Solver.solve s);
    let st = Sat.Solver.stats s in
    conflicts := !conflicts + st.Sat.Solver.conflicts;
    decisions := !decisions + st.Sat.Solver.decisions;
    props := !props + st.Sat.Solver.propagations
  done;
  record_row row tally !conflicts !decisions !props (Util.Stopwatch.elapsed watch)

(* the factorized SAT-merge discipline: ONE solver, one shared clause
   database, many queries under assumptions (activation-style) *)
let run_incremental row ~vars ~queries =
  let tally = { sat = 0; unsat = 0; unknown = 0 } in
  let watch = Util.Stopwatch.start () in
  let prng = Util.Prng.create 0x1c4e7a11 in
  let s = Sat.Solver.create () in
  let clauses = int_of_float (3.5 *. float_of_int vars) in
  let vs = random_ksat ~prng ~vars ~clauses ~k:3 s in
  for _ = 1 to queries do
    let assumptions =
      List.init 4 (fun _ -> Sat.Lit.make vs.(Util.Prng.int prng vars) (Util.Prng.bool prng))
    in
    count tally (Sat.Solver.solve ~assumptions s)
  done;
  let st = Sat.Solver.stats s in
  record_row row tally st.Sat.Solver.conflicts st.Sat.Solver.decisions
    st.Sat.Solver.propagations
    (Util.Stopwatch.elapsed watch)

(* end-to-end: bounded model checking of the counter family — every
   depth is one incremental SAT query on the shared unrolling *)
let run_bmc row ~bits =
  let tally = { sat = 0; unsat = 0; unknown = 0 } in
  let watch = Util.Stopwatch.start () in
  let model = Circuits.Families.counter ~bits in
  let r = Baselines.Bmc.run ~max_depth:((1 lsl bits) - 1) model in
  (match r.Baselines.Bmc.verdict with
  | Baselines.Verdict.Falsified d ->
    tally.sat <- 1;
    Obs.add (row_counter row "cex_depth") d
  | Baselines.Verdict.Proved -> tally.unsat <- 1
  | Baselines.Verdict.Undecided _ -> tally.unknown <- 1);
  let st = r.Baselines.Bmc.solver in
  record_row row tally st.Sat.Solver.conflicts st.Sat.Solver.decisions
    st.Sat.Solver.propagations
    (Util.Stopwatch.elapsed watch)

let run () =
  header "SAT" "SAT core: pigeonhole, random k-SAT, incremental assumptions, BMC";
  with_report "sat" @@ fun () ->
  if !quick then begin
    run_php "php8" 8;
    run_rand3sat "rand3sat" ~instances:6 ~vars:120;
    run_rand2sat "rand2sat" ~instances:10 ~vars:1200;
    run_incremental "inc-assume" ~vars:200 ~queries:120;
    run_bmc "bmc-counter" ~bits:6
  end
  else begin
    run_php "php9" 9;
    run_rand3sat "rand3sat" ~instances:12 ~vars:150;
    run_rand2sat "rand2sat" ~instances:25 ~vars:3000;
    run_incremental "inc-assume" ~vars:300 ~queries:400;
    run_bmc "bmc-counter" ~bits:7
  end
