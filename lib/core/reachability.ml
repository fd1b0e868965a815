type verdict =
  | Proved
  | Falsified of { depth : int; trace : Trace.t option }
  | Out_of_budget of { reason : string; frames : int }

(* Per-frame accounting. The iteration span is recorded from the step
   stopwatch already running (the loop is tail-recursive, so a [with_span]
   wrapper would nest and double-count). *)
let obs_iterations = Obs.counter "reach.iterations"
let obs_iter_span = Obs.span "reach.iteration"
let obs_frontier_size = Obs.histogram "reach.frontier_size"
let obs_reached_size = Obs.histogram "reach.reached_size"
let obs_eliminated = Obs.counter "reach.eliminated_inputs"
let obs_kept = Obs.counter "reach.kept_inputs"

type iteration = {
  index : int;
  frontier_size : int;
  reached_size : int;
  eliminated_inputs : int;
  kept_inputs : int;
  naive_size : int;
  seconds : float;
}

type result = {
  verdict : verdict;
  iterations : iteration list;
  total_seconds : float;
  peak_frontier : int;
  sat_queries : int;
  invariant : Aig.lit option;
  aborted_vars : Aig.var list;
      (* variables partial quantification abandoned, across all frames *)
}

(* Which variables the quantifier gave up on — triage needs names, not
   just a count. Sorted, deduplicated across frames, and mirrored into
   the run-report meta so stored reports carry it. *)
let record_aborted_vars vars =
  let vars = List.sort_uniq Int.compare vars in
  if vars <> [] then
    Obs.meta "quantify.aborted_vars"
      (String.concat "," (List.map (Printf.sprintf "x%d") vars));
  vars

type config = {
  quant : Quantify.config;
  max_iterations : int;
  sweep_frontier : bool;
  use_reached_dc : bool;
  make_trace : bool;
  seed : int;
}

let default =
  {
    quant = Quantify.default;
    max_iterations = 200;
    sweep_frontier = false;
    use_reached_dc = false;
    make_trace = true;
    seed = 1;
  }

let pp_verdict ppf = function
  | Proved -> Format.pp_print_string ppf "PROVED"
  | Falsified { depth; _ } -> Format.fprintf ppf "FALSIFIED (depth %d)" depth
  | Out_of_budget { reason; frames } ->
    Format.fprintf ppf "UNDECIDED (%s after %d frames)" reason frames

let pp_result ppf r =
  Format.fprintf ppf "%a  iterations=%d peak-frontier=%d sat-queries=%d %.3fs" pp_verdict
    r.verdict (List.length r.iterations) r.peak_frontier r.sat_queries r.total_seconds

(* decide exactly: containment and intersection tests must not be budgeted
   per query. A run-wide governor can still leave them [Maybe] — the caller
   must then degrade to [Out_of_budget], never treat the answer as No. *)
let exact_answer checker lits =
  Cnf.Checker.set_conflict_limit checker None;
  Cnf.Checker.satisfiable checker lits

(* Why a certification query came back [Maybe]: the tripped resource, or
   the conflict pool when it is merely dry (a dry pool only trips once a
   query actually draws from it). *)
let budget_reason limits =
  match Util.Limits.exhausted limits with
  | Some r -> Util.Limits.resource_name r
  | None -> Util.Limits.resource_name Util.Limits.Conflicts

(* Find the exact counterexample depth at or above [from_depth] (the
   reached-set don't-care option can make the traversal's hit iteration a
   lower bound) and extract a trace. A [Maybe] — possible once a resource
   governor has drained the conflict pool or the deadline — must STOP the
   search: skipping past an undecided depth could certify a later depth
   as "the" counterexample depth, which would be wrong. *)
let find_cex model checker ~from_depth ~limit =
  let unroll = Unroll.create model in
  let rec search d =
    if d > limit then None
    else
      match exact_answer checker [ Unroll.bad_at unroll d ] with
      | Cnf.Checker.Yes ->
        Some (d, Unroll.trace_from_model unroll ~depth:d ~value:(Cnf.Checker.model_var checker))
      | Cnf.Checker.No -> search (d + 1)
      | Cnf.Checker.Maybe -> None
  in
  search from_depth

let sum_naive reports =
  List.fold_left (fun acc r -> acc + r.Quantify.size_naive) 0 reports

type env = {
  model : Netlist.Model.t;
  checker : Cnf.Checker.t;
  prng : Util.Prng.t;
  bank : Sweep.Pattern_bank.t;
  quant : Quantify.config;
}

type direction = {
  initial : Aig.lit;
  target : Aig.lit;
  step : Aig.lit -> extra_vars:Aig.var list -> Quantify.result;
  rebase : Aig.lit -> Aig.lit;
  certificate : Aig.lit -> Aig.lit;
}

let traverse ~config ~limits model make_direction =
  let watch = Util.Stopwatch.start () in
  Obs.Progress.begin_run ();
  let limits = Obs.Limits.arm limits in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create aig in
  Cnf.Checker.set_limits checker limits;
  let prng = Util.Prng.create config.seed in
  (* one pattern bank for the whole traversal: counterexamples learned in
     any frame keep refuting merge candidates in every later frame *)
  let bank = Sweep.Pattern_bank.create () in
  let init = Netlist.Model.init_lit model in
  let iterations = ref [] in
  let peak = ref 0 in
  let push_iteration it =
    Obs.incr obs_iterations;
    Obs.add_seconds obs_iter_span it.seconds;
    Obs.observe obs_frontier_size it.frontier_size;
    Obs.observe obs_reached_size it.reached_size;
    Obs.add obs_eliminated it.eliminated_inputs;
    Obs.add obs_kept it.kept_inputs;
    Obs.Trace_events.sample "reach.frontier_size" it.frontier_size;
    Obs.Trace_events.sample "reach.reached_size" it.reached_size;
    Obs.Progress.frame ~index:it.index ~nodes:it.frontier_size;
    iterations := it :: !iterations
  in
  let aborted_acc = ref [] in
  let finish ?invariant verdict =
    {
      verdict;
      iterations = List.rev !iterations;
      total_seconds = Util.Stopwatch.elapsed watch;
      peak_frontier = !peak;
      sat_queries = Cnf.Checker.queries checker;
      invariant;
      aborted_vars = record_aborted_vars !aborted_acc;
    }
  in
  (* the bad states over the state variables, property inputs (if any)
     quantified away *)
  let bad_raw = Aig.not_ model.Netlist.Model.property in
  let input_vars = Netlist.Model.input_vars model in
  let model_vars = Netlist.Model.state_vars model @ input_vars in
  let bad_inputs = List.filter (fun v -> List.mem v input_vars) (Aig.support aig bad_raw) in
  let bad_result =
    Quantify.all ~config:config.quant ~bank aig checker ~prng bad_raw ~vars:bad_inputs
  in
  let bad = bad_result.Quantify.lit in
  let bad_clean = bad_result.Quantify.kept = [] in
  aborted_acc := bad_result.Quantify.kept;
  let dir = make_direction { model; checker; prng; bank; quant = config.quant } ~init ~bad in
  peak := Aig.size aig dir.initial;
  let falsified hit_iteration =
    if config.make_trace || config.use_reached_dc then
      match
        find_cex model checker ~from_depth:hit_iteration
          ~limit:(hit_iteration + config.max_iterations + 64)
      with
      | Some (d, t) -> Falsified { depth = d; trace = (if config.make_trace then Some t else None) }
      | None -> (
        (* with the reached-set don't-care the hit iteration is only a
           lower bound on the depth; if the governor kept the depth scan
           from confirming it, reporting it would risk a wrong depth —
           degrade to [Out_of_budget] instead *)
        match Util.Limits.exhausted limits with
        | Some r when config.use_reached_dc ->
          Out_of_budget { reason = Util.Limits.resource_name r; frames = hit_iteration }
        | Some _ | None -> Falsified { depth = hit_iteration; trace = None })
    else Falsified { depth = hit_iteration; trace = None }
  in
  match exact_answer checker [ init; bad ] with
  | Cnf.Checker.Yes -> finish (falsified 0)
  | Cnf.Checker.Maybe ->
    finish (Out_of_budget { reason = budget_reason limits; frames = 0 })
  | Cnf.Checker.No -> begin
    let reached = ref dir.initial in
    let frontier = ref dir.initial in
    let aux_vars = ref [] in
    let rec loop k =
      (* anytime behaviour: every frame starts with a governor poll (the
         AIG grows monotonically, so node-ceiling checks belong here) and
         a tripped run reports how deep it got before degrading *)
      match Util.Limits.check_aig_nodes limits (Aig.num_nodes aig) with
      | Some r ->
        Obs.Trace_events.instant_args "reach.limit_stop" "frame" k;
        finish (Out_of_budget { reason = Util.Limits.resource_name r; frames = k - 1 })
      | None ->
      if k > config.max_iterations then
        finish (Out_of_budget { reason = "iteration limit"; frames = k - 1 })
      else begin
        let step_watch = Util.Stopwatch.start () in
        Obs.Trace_events.begin_args "reach.frame" "frame" k;
        let q = dir.step !frontier ~extra_vars:!aux_vars in
        aborted_acc := q.Quantify.kept @ !aborted_acc;
        (* residual model variables must not collide with the next frame's
           variables: rename them to private auxiliary variables *)
        let residual = List.filter (fun v -> List.mem v model_vars) q.Quantify.kept in
        let renaming = List.map (fun v -> (v, Aig.fresh_var aig)) residual in
        let new_frontier =
          if renaming = [] then q.Quantify.lit
          else
            Aig.compose aig q.Quantify.lit ~subst:(fun v ->
                Option.map (Aig.var aig) (List.assoc_opt v renaming))
        in
        aux_vars :=
          List.map snd renaming
          @ List.filter (fun v -> not (List.mem v q.Quantify.eliminated)) !aux_vars;
        let new_frontier = dir.rebase new_frontier in
        let new_frontier =
          if config.sweep_frontier then
            fst (Synth.Opt.sweep_and_compact ~bank aig checker ~prng new_frontier)
          else new_frontier
        in
        (* optional: states the traversal already holds are don't cares
           for the new frontier *)
        let new_frontier =
          if config.use_reached_dc then
            fst
              (Synth.Dontcare.simplify_under_care ~bank aig checker ~prng
                 ~care:(Aig.not_ !reached) new_frontier)
          else new_frontier
        in
        let fsize = Aig.size aig new_frontier in
        if fsize > !peak then peak := fsize;
        let record ~reached_size =
          push_iteration
            {
              index = k;
              frontier_size = fsize;
              reached_size;
              eliminated_inputs = List.length q.Quantify.eliminated;
              kept_inputs = List.length q.Quantify.kept;
              naive_size = sum_naive q.Quantify.reports;
              seconds = Util.Stopwatch.elapsed step_watch;
            };
          Obs.Trace_events.end_args "reach.frame" "frontier_size" fsize
        in
        match exact_answer checker [ dir.target; new_frontier ] with
        | Cnf.Checker.Yes ->
          record ~reached_size:(Aig.size aig !reached);
          Obs.Trace_events.instant_args "reach.falsified" "frame" k;
          finish (falsified k)
        | Cnf.Checker.Maybe ->
          (* the frontier-meets-target test is the falsification
             certificate: undecided means neither this frame's hit nor any
             later Proved can be trusted — stop with the anytime verdict *)
          record ~reached_size:(Aig.size aig !reached);
          Obs.Trace_events.instant_args "reach.limit_stop" "frame" k;
          finish (Out_of_budget { reason = budget_reason limits; frames = k })
        | Cnf.Checker.No -> (
          let no_new = exact_answer checker [ new_frontier; Aig.not_ !reached ] in
          let reached' = Aig.or_ aig !reached new_frontier in
          record ~reached_size:(Aig.size aig reached');
          match no_new with
          | Cnf.Checker.No ->
            (* without residual variables the fix-point yields an
               inductive invariant: a checkable certificate *)
            let invariant =
              if bad_clean && !aux_vars = [] then Some (dir.certificate reached') else None
            in
            Obs.Trace_events.instant_args "reach.proved" "frame" k;
            finish ?invariant Proved
          | Cnf.Checker.Maybe ->
            (* an undecided fixpoint test can never be read as closure *)
            Obs.Trace_events.instant_args "reach.limit_stop" "frame" k;
            finish (Out_of_budget { reason = budget_reason limits; frames = k })
          | Cnf.Checker.Yes ->
            (* onion ring: keep only the genuinely new states in the next
               frontier so a step never re-derives old ones *)
            frontier := Aig.and_ aig new_frontier (Aig.not_ !reached);
            reached := reached';
            loop (k + 1))
      end
    in
    loop 1
  end

(* Backward: start from the bad states, step by pre-image (in-lining plus
   input quantification), stop on meeting the initial states; the
   complement of the reached set is the invariant. *)
let backward env ~init ~bad =
  {
    initial = bad;
    target = init;
    step =
      (fun frontier ~extra_vars ->
        Preimage.compute ~config:env.quant ~bank:env.bank env.model env.checker ~prng:env.prng
          ~frontier ~extra_vars);
    rebase = Fun.id;
    certificate = Aig.not_;
  }

let run ?(config = default) ?(limits = Util.Limits.unlimited) model =
  traverse ~config ~limits model backward
