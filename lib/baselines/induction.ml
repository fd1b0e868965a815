type result = {
  verdict : Verdict.t;
  k_used : int;
  trace : Cbq.Trace.t option;
  solver : Sat.Solver.stats;
  seconds : float;
}

let pp_result ppf r =
  Format.fprintf ppf "%a k=%d decisions=%d conflicts=%d %.3fs" Verdict.pp r.verdict r.k_used
    r.solver.Sat.Solver.decisions r.solver.Sat.Solver.conflicts r.seconds

(* "states at frames i and j differ" *)
let distinct unroll i j =
  let model = Cbq.Unroll.model unroll in
  let aig = Netlist.Model.aig model in
  let at frame v = Cbq.Unroll.state_lit unroll ~frame v in
  Aig.or_list aig
    (List.map (fun v -> Aig.xor_ aig (at i v) (at j v)) (Netlist.Model.state_vars model))

let run ?(max_k = 50) ?(limits = Util.Limits.unlimited) model =
  let watch = Util.Stopwatch.start () in
  let limits = Obs.Limits.arm limits in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create aig in
  Cnf.Checker.set_limits checker limits;
  let base_unroll = Cbq.Unroll.create model in
  (* the step's path starts anywhere: satisfiability over it quantifies
     the start state *)
  let step_unroll = Cbq.Unroll.from_any_state model in
  let finish verdict k trace =
    {
      verdict;
      k_used = k;
      trace;
      solver = Cnf.Checker.solver_stats checker;
      seconds = Util.Stopwatch.elapsed watch;
    }
  in
  (* no query has a conflict limit: only the governor answers Maybe *)
  let undecided_why k = Printf.sprintf "%s (k=%d)" (Util.Limits.maybe_reason limits) k in
  let rec round k =
    match Util.Limits.check limits with
    | Some r ->
      finish
        (Verdict.Undecided (Printf.sprintf "%s (k=%d)" (Util.Limits.resource_name r) k))
        k None
    | None ->
      if k > max_k then
        finish (Verdict.Undecided (Printf.sprintf "no convergence by k=%d" max_k)) max_k None
      else begin
        (* base: counterexample of exactly length k? *)
        match Cnf.Checker.satisfiable checker [ Cbq.Unroll.bad_at base_unroll k ] with
        | Cnf.Checker.Yes ->
          let trace =
            Cbq.Unroll.trace_from_model base_unroll ~depth:k
              ~value:(Cnf.Checker.model_var checker)
          in
          finish (Verdict.Falsified k) k (Some trace)
        | Cnf.Checker.Maybe -> finish (Verdict.Undecided (undecided_why k)) k None
        | Cnf.Checker.No ->
          (* step: P on frames 0..k, loop-free, yet ¬P on frame k+1 *)
          let assumptions =
            List.init (k + 1) (fun i -> Aig.not_ (Cbq.Unroll.bad_at step_unroll i))
            @ [ Cbq.Unroll.bad_at step_unroll (k + 1) ]
            (* all k+2 path states pairwise distinct: makes the method
               complete (vacuous step once k exceeds the state count) *)
            @ List.concat
                (List.init (k + 2) (fun i ->
                     List.init (k + 2 - i - 1) (fun d -> distinct step_unroll i (i + d + 1))))
          in
          (match Cnf.Checker.satisfiable checker assumptions with
          | Cnf.Checker.No -> finish Verdict.Proved k None
          | Cnf.Checker.Yes -> round (k + 1)
          | Cnf.Checker.Maybe -> finish (Verdict.Undecided (undecided_why k)) k None)
      end
  in
  round 0
