type result = {
  verdict : Verdict.t;
  trace : Cbq.Trace.t option;
  depth_reached : int;
  inputs_eliminated : int;
  solver : Sat.Solver.stats;
  seconds : float;
}

let pp_result ppf r =
  Format.fprintf ppf "%a depth=%d decisions=%d conflicts=%d%s %.3fs" Verdict.pp r.verdict
    r.depth_reached r.solver.Sat.Solver.decisions r.solver.Sat.Solver.conflicts
    (if r.inputs_eliminated > 0 then Printf.sprintf " cbq-eliminated=%d" r.inputs_eliminated
     else "")
    r.seconds

(* strict budget: only structurally cheap eliminations are worth doing in
   front of a SAT call. A merged disjunction can exceed it, so the
   optimization phase runs *)
let preprocess_config =
  { Cbq.Quantify.default with use_dontcare = true; growth_limit = 1.0; growth_slack = 8 }

let search ?(conflict_limit = max_int) ?(preprocess = false)
    ?(limits = Util.Limits.unlimited) model ~target_at ~max_depth =
  let watch = Util.Stopwatch.start () in
  let limits = Obs.Limits.arm limits in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create aig in
  Cnf.Checker.set_limits checker limits;
  let prng = Util.Prng.create 67 in
  let limit = if conflict_limit = max_int then None else Some conflict_limit in
  let unroll = Cbq.Unroll.create model in
  let eliminated = ref 0 in
  let finish verdict trace depth =
    {
      verdict;
      trace;
      depth_reached = depth;
      inputs_eliminated = !eliminated;
      solver = Cnf.Checker.solver_stats checker;
      seconds = Util.Stopwatch.elapsed watch;
    }
  in
  let query k =
    let target = target_at unroll k in
    let target_for_sat =
      if not preprocess then target
      else begin
        let vars = Aig.support aig target in
        let q = Cbq.Quantify.all ~config:preprocess_config aig checker ~prng target ~vars in
        eliminated := !eliminated + List.length q.Cbq.Quantify.eliminated;
        q.Cbq.Quantify.lit
      end
    in
    Cnf.Checker.set_conflict_limit checker limit;
    match Cnf.Checker.satisfiable checker [ target_for_sat ] with
    | Cnf.Checker.Yes when preprocess ->
      (* re-solve the full cone so the model covers every frame input the
         quantification removed; the learned clauses make this cheap *)
      Cnf.Checker.satisfiable checker [ target ]
    | answer -> answer
  in
  let rec go k =
    match Util.Limits.check limits with
    | Some r ->
      finish
        (Verdict.Undecided (Printf.sprintf "%s (depth %d)" (Util.Limits.resource_name r) k))
        None k
    | None ->
      if k > max_depth then
        finish (Verdict.Undecided (Printf.sprintf "bound %d" max_depth)) None max_depth
      else begin
        match query k with
        | Cnf.Checker.Yes ->
          let trace =
            Cbq.Unroll.trace_from_model unroll ~depth:k ~value:(Cnf.Checker.model_var checker)
          in
          finish (Verdict.Falsified k) (Some trace) k
        | Cnf.Checker.No -> go (k + 1)
        | Cnf.Checker.Maybe ->
          let why =
            match Util.Limits.exhausted limits with
            | Some r -> Printf.sprintf "%s (depth %d)" (Util.Limits.resource_name r) k
            | None -> "conflict budget"
          in
          finish (Verdict.Undecided why) None k
      end
  in
  go 0

let run ?(max_depth = 100) ?conflict_limit ?preprocess ?limits model =
  search ?conflict_limit ?preprocess ?limits model ~target_at:Cbq.Unroll.bad_at ~max_depth

let run_with_frontier ?conflict_limit ?limits model ~frontier ~max_depth =
  let aig = Netlist.Model.aig model in
  let target_at unroll k =
    let subst v =
      if List.mem v (Netlist.Model.state_vars model) then
        Some (Cbq.Unroll.state_lit unroll ~frame:k v)
      else None
    in
    Aig.compose aig frontier ~subst
  in
  search model ~target_at ~max_depth ?conflict_limit ?limits
