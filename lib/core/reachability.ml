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
  seconds : float;
}

type result = {
  verdict : Verdict.t;
  trace : Trace.t option;
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

type config = { quant : Quantify.config; make_trace : bool }

let default = { quant = Quantify.default; make_trace = true }

let pp_result ppf r =
  Format.fprintf ppf "%a  iterations=%d peak-frontier=%d sat-queries=%d %.3fs" Verdict.pp
    r.verdict (List.length r.iterations) r.peak_frontier r.sat_queries r.total_seconds

(* The counterexample of a frontier that met the target at frame [depth]:
   the onion rings make [depth] the exact depth, so one query on the
   unrolling extracts the trace. A [Maybe] — the governor drained the
   conflict pool or the deadline — leaves the verdict without one. *)
let find_cex model checker ~depth =
  let unroll = Unroll.create model in
  match Unroll.cex_at unroll checker ~target:(Unroll.bad_at unroll depth) ~depth with
  | Unroll.Cex trace -> Some trace
  | Unroll.Proof | Unroll.Deeper | Unroll.Maybe -> None

(* ---------- the frame loop, over any state-set representation ---------- *)

exception Stop of string

type 'set image = { states : 'set; eliminated : int; kept : int }

type 'set sets = {
  init : 'set;
  bad : 'set;
  backward : bool;
  step : 'set -> 'set image;
  meets : 'set -> 'set -> Cnf.Checker.answer;
  and_ : 'set -> 'set -> 'set;
  or_ : 'set -> 'set -> 'set;
  not_ : 'set -> 'set;
  size : 'set -> int;
  invariant : 'set -> Aig.lit option;
}

let frame_loop ~config ~limits model (build : Cnf.Checker.t -> 'set sets) =
  let watch = Util.Stopwatch.start () in
  Obs.Progress.begin_run ();
  let limits = Obs.Limits.arm limits in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create ~limits aig in
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
  let finish ?trace ?invariant verdict =
    {
      verdict;
      trace;
      iterations = List.rev !iterations;
      total_seconds = Util.Stopwatch.elapsed watch;
      peak_frontier = !peak;
      sat_queries = Cnf.Checker.queries checker;
      invariant;
      aborted_vars = [];
    }
  in
  let undecided reason = finish (Verdict.Undecided reason) in
  let falsified depth =
    let trace = if config.make_trace then find_cex model checker ~depth else None in
    finish ?trace (Verdict.Falsified depth)
  in
  (* the frame a [Stop] interrupts, and whether its span is still open *)
  let frame = ref 0 and in_frame = ref false in
  let limit_stop reason =
    Obs.Trace_events.instant_args "reach.limit_stop" "frame" !frame;
    undecided reason
  in
  let run () =
    let s = build checker in
    let initial, target = if s.backward then (s.bad, s.init) else (s.init, s.bad) in
    peak := s.size initial;
    let reached = ref initial in
    let frontier = ref initial in
    let rec loop k =
      frame := k;
      (* anytime behaviour: every frame starts with a governor poll (the
         AIG grows monotonically, so node-ceiling checks belong here) and
         a tripped run reports how deep it got before degrading *)
      match Util.Limits.check_aig_nodes limits (Aig.num_nodes aig) with
      | Some r -> limit_stop (Util.Limits.resource_name r)
      | None ->
        let step_watch = Util.Stopwatch.start () in
        Obs.Trace_events.begin_args "reach.frame" "frame" k;
        in_frame := true;
        let image = s.step !frontier in
        let new_frontier = image.states in
        let fsize = s.size new_frontier in
        if fsize > !peak then peak := fsize;
        let record ~reached_size =
          push_iteration
            {
              index = k;
              frontier_size = fsize;
              reached_size;
              eliminated_inputs = image.eliminated;
              kept_inputs = image.kept;
              seconds = Util.Stopwatch.elapsed step_watch;
            };
          in_frame := false;
          Obs.Trace_events.end_args "reach.frame" "frontier_size" fsize
        in
        match s.meets target new_frontier with
        | Cnf.Checker.Yes ->
          record ~reached_size:(s.size !reached);
          Obs.Trace_events.instant_args "reach.falsified" "frame" k;
          falsified k
        | Cnf.Checker.Maybe ->
          (* the frontier-meets-target test is the falsification
             certificate: undecided means neither this frame's hit nor any
             later Proved can be trusted — stop with the anytime verdict *)
          record ~reached_size:(s.size !reached);
          limit_stop (Util.Limits.maybe_reason limits)
        | Cnf.Checker.No -> (
          let no_new = s.meets new_frontier (s.not_ !reached) in
          let reached' = s.or_ !reached new_frontier in
          record ~reached_size:(s.size reached');
          match no_new with
          | Cnf.Checker.No ->
            let invariant = s.invariant reached' in
            Obs.Trace_events.instant_args "reach.proved" "frame" k;
            finish ?invariant Verdict.Proved
          | Cnf.Checker.Maybe ->
            (* an undecided fixpoint test can never be read as closure *)
            limit_stop (Util.Limits.maybe_reason limits)
          | Cnf.Checker.Yes ->
            (* onion ring: keep only the genuinely new states in the next
               frontier so a step never re-derives old ones *)
            frontier := s.and_ new_frontier (s.not_ !reached);
            reached := reached';
            loop (k + 1))
    in
    match s.meets s.init s.bad with
    | Cnf.Checker.Yes -> falsified 0
    | Cnf.Checker.Maybe -> undecided (Util.Limits.maybe_reason limits)
    | Cnf.Checker.No -> loop 1
  in
  try run ()
  with Stop reason ->
    if !in_frame then Obs.Trace_events.end_ "reach.frame";
    limit_stop reason

(* ---------- AIG state sets: circuit-based quantification ---------- *)

type env = {
  model : Netlist.Model.t;
  checker : Cnf.Checker.t;
  prng : Util.Prng.t;
  bank : Sweep.Pattern_bank.t;
  quant : Quantify.config;
}

type direction = {
  backward : bool;
  step : Aig.lit -> extra_vars:Aig.var list -> (Quantify.result, string) Stdlib.result;
  rebase : Aig.lit -> Aig.lit;
}

(* Rename the residual model variables of a quantification result to
   private auxiliary variables, so they cannot collide with the next
   frame's variables. Returns the renamed literal and the new variables. *)
let rename_residuals aig ~model_vars lit kept =
  let renaming =
    List.filter_map
      (fun v -> if List.mem v model_vars then Some (v, Aig.fresh_var aig) else None)
      kept
  in
  let lit =
    if renaming = [] then lit
    else Aig.compose aig lit ~subst:(fun v -> Option.map (Aig.var aig) (List.assoc_opt v renaming))
  in
  (lit, List.map snd renaming)

(* The AIG sets of one run: the SAT tests share the run's checker, and
   residual variables — kept by the bad-state quantification or by any
   step — are renamed, quantified again by every later step, and barred
   from the certificate. [aborted] collects every variable kept. *)
let aig_sets ~(config : config) ~aborted model make_direction checker =
  let aig = Netlist.Model.aig model in
  let prng = Util.Prng.create 1 in
  (* one pattern bank for the whole traversal: counterexamples learned in
     any frame keep refuting merge candidates in every later frame *)
  let bank = Sweep.Pattern_bank.create () in
  let init = Netlist.Model.init_lit model in
  (* the bad states over the state variables, property inputs (if any)
     quantified away; a kept one is renamed like a frame's residual, or
     the first step would read it as its own input *)
  let bad_raw = Aig.not_ model.Netlist.Model.property in
  let input_vars = Netlist.Model.input_vars model in
  let model_vars = Netlist.Model.state_vars model @ input_vars in
  let bad_inputs = List.filter (fun v -> List.mem v input_vars) (Aig.support aig bad_raw) in
  let bad_result =
    Quantify.all ~config:config.quant ~bank aig checker ~prng bad_raw ~vars:bad_inputs
  in
  let bad, bad_aux =
    rename_residuals aig ~model_vars bad_result.Quantify.lit bad_result.Quantify.kept
  in
  aborted := bad_result.Quantify.kept;
  let dir = make_direction { model; checker; prng; bank; quant = config.quant } in
  let aux_vars = ref bad_aux in
  let step frontier =
    match dir.step frontier ~extra_vars:!aux_vars with
    | Error reason -> raise (Stop reason)
    | Ok q ->
      aborted := q.Quantify.kept @ !aborted;
      let states, renamed = rename_residuals aig ~model_vars q.Quantify.lit q.Quantify.kept in
      aux_vars :=
        renamed @ List.filter (fun v -> not (List.mem v q.Quantify.eliminated)) !aux_vars;
      {
        states = dir.rebase states;
        eliminated = List.length q.Quantify.eliminated;
        kept = List.length q.Quantify.kept;
      }
  in
  {
    init;
    bad;
    backward = dir.backward;
    step;
    (* exact: only the governor can answer Maybe, and the loop then
       ends Undecided *)
    meets = (fun a b -> Cnf.Checker.satisfiable checker [ a; b ]);
    and_ = Aig.and_ aig;
    or_ = Aig.or_ aig;
    not_ = Aig.not_;
    size = Aig.size aig;
    (* without residual variables the fix-point yields an inductive
       invariant: a checkable certificate *)
    invariant =
      (fun reached ->
        if bad_aux = [] && !aux_vars = [] then
          Some (if dir.backward then Aig.not_ reached else reached)
        else None);
  }

let traverse ~config ~limits model make_direction =
  let aborted = ref [] in
  let r = frame_loop ~config ~limits model (aig_sets ~config ~aborted model make_direction) in
  { r with aborted_vars = record_aborted_vars !aborted }

(* Backward: start from the bad states, step by pre-image (in-lining plus
   input quantification), stop on meeting the initial states; the
   complement of the reached set is the invariant. *)
let backward env =
  {
    backward = true;
    step =
      (fun frontier ~extra_vars ->
        Ok
          (Preimage.compute ~config:env.quant ~bank:env.bank env.model env.checker
             ~prng:env.prng ~frontier ~extra_vars));
    rebase = Fun.id;
  }

let run ?(config = default) ?(limits = Util.Limits.unlimited) model =
  traverse ~config ~limits model backward
