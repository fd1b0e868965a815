(* Abort accounting is the paper's headline number: how often a variable
   is kept for the SAT engine instead of eliminated (partial
   quantification, §4). The abort counters cover both causes, the growth
   budget and a tripped governor; [limits.quantify_fallbacks] counts the
   governor's share, the variables [all] kept at a trip. *)
let obs_span = Obs.span "quantify.one"
let obs_eliminated = Obs.counter "quantify.vars.eliminated"
let obs_aborted = Obs.counter "quantify.vars.aborted"
let obs_aborted_vars = Obs.counter "quantify.aborted_vars"
let obs_independent = Obs.counter "quantify.vars.independent"
let obs_cofactor_size = Obs.histogram "quantify.cofactor_size"
let obs_result_size = Obs.histogram "quantify.result_size"
let obs_saved = Obs.counter "quantify.nodes_saved_vs_naive"
let obs_limit_fallbacks = Obs.counter "limits.quantify_fallbacks"

type config = {
  sweep : Sweep.Sweeper.config;
  use_dontcare : bool;
  dontcare : Synth.Dontcare.config;
  use_rewrite : bool;
  growth_limit : float;
  growth_slack : int;
  greedy_order : bool;
}

let default =
  {
    sweep = Sweep.Sweeper.default;
    use_dontcare = false;
    dontcare = Synth.Dontcare.default;
    use_rewrite = true;
    growth_limit = 2.0;
    growth_slack = 32;
    greedy_order = true;
  }

let naive_config =
  {
    sweep = { Sweep.Sweeper.sim_rounds = 1; bdd_node_limit = 0; sat = None };
    use_dontcare = false;
    dontcare = Synth.Dontcare.default;
    use_rewrite = false;
    growth_limit = infinity;
    growth_slack = max_int;
    greedy_order = false;
  }

type var_report = {
  var : Aig.var;
  size_before : int;
  size_cof0 : int;
  size_cof1 : int;
  size_naive : int;
  sweep_report : Sweep.Sweeper.report option;
  dc_report : Synth.Dontcare.report option;
  size_after : int;
  aborted : bool;
}

let pp_var_report ppf r =
  Format.fprintf ppf "x%d: |F|=%d |F0|=%d |F1|=%d naive=%d final=%d%s" r.var r.size_before
    r.size_cof0 r.size_cof1 r.size_naive r.size_after
    (if r.aborted then " ABORTED" else "")

(* [infinity *. 0.] is NaN, so the unlimited case must short-circuit *)
let within_budget config ~before ~after =
  config.growth_limit = infinity
  || float_of_int after
     <= (config.growth_limit *. float_of_int before) +. float_of_int config.growth_slack

(* the merge phase runs only when some sweeping stage can prove a merge *)
let sweeps config =
  config.sweep.Sweep.Sweeper.sat <> None || config.sweep.Sweep.Sweeper.bdd_node_limit > 0

let one ?(config = default) ?bank aig checker ~prng l v =
  Obs.with_span obs_span @@ fun () ->
  Obs.Trace_events.begin_args "quantify.var" "var" v;
  let size_before = Aig.size aig l in
  if not (Aig.depends_on aig l v) then begin
    Obs.incr obs_independent;
    Obs.Trace_events.end_args "quantify.var" "result_size" size_before;
    ( Ok l,
      {
        var = v;
        size_before;
        size_cof0 = size_before;
        size_cof1 = size_before;
        size_naive = size_before;
        sweep_report = None;
        dc_report = None;
        size_after = size_before;
        aborted = false;
      } )
  end
  else begin
    let f0 = Aig.cofactor aig l ~v ~phase:false in
    let f1 = Aig.cofactor aig l ~v ~phase:true in
    let size_naive = Aig.size aig (Aig.or_ aig f0 f1) in
    (* merge phase on the joint cone of the two cofactors *)
    let (f0, f1), sweep_report =
      if not (sweeps config) then ((f0, f1), None)
      else begin
        let lits, report =
          Sweep.Sweeper.sweep_lits ~config:config.sweep ?bank aig checker ~prng [ f0; f1 ]
        in
        match lits with
        | [ a; b ] -> ((a, b), Some report)
        | _ -> assert false
      end
    in
    (* optimization phase on the disjunction *)
    let result, dc_report =
      if config.use_dontcare then begin
        let g, report =
          Synth.Dontcare.disjunction ~config:config.dontcare ?bank aig checker ~prng f0 f1
        in
        (g, Some report)
      end
      else (Aig.or_ aig f0 f1, None)
    in
    let result =
      if config.use_rewrite then fst (Synth.Rewrite.resubstitute aig result) else result
    in
    let size_after = Aig.size aig result in
    let aborted = not (within_budget config ~before:size_before ~after:size_after) in
    (* an aborted variable keeps [l], so its report carries [l]'s size *)
    let size_kept = if aborted then size_before else size_after in
    (* partial-quantification marker: the variable stays for the SAT
       engine *)
    if aborted then Obs.Trace_events.instant_args "quantify.aborted" "var" v;
    Obs.Trace_events.end_args "quantify.var" "result_size" size_kept;
    Obs.incr (if aborted then obs_aborted else obs_eliminated);
    Obs.observe obs_cofactor_size (Aig.size aig f0);
    Obs.observe obs_cofactor_size (Aig.size aig f1);
    Obs.observe obs_result_size size_kept;
    if not aborted then Obs.add obs_saved (max 0 (size_naive - size_after));
    let report =
      {
        var = v;
        size_before;
        size_cof0 = Aig.size aig f0;
        size_cof1 = Aig.size aig f1;
        size_naive;
        sweep_report;
        dc_report;
        size_after = size_kept;
        aborted;
      }
    in
    ((if aborted then Error result else Ok result), report)
  end

let block ?(config = default) ?bank aig checker ~prng l ~vars =
  let vars = List.sort_uniq Int.compare (List.filter (Aig.depends_on aig l) vars) in
  let k = List.length vars in
  if k = 0 then Ok l
  else if k > 6 then invalid_arg "Quantify.block: at most 6 variables"
  else begin
    let size_before = Aig.size aig l in
    let vars = Array.of_list vars in
    let cofactors =
      List.init (1 lsl k) (fun mask ->
          let c = ref l in
          Array.iteri
            (fun i v -> c := Aig.cofactor aig !c ~v ~phase:((mask lsr i) land 1 = 1))
            vars;
          !c)
      |> List.sort_uniq Int.compare
    in
    (* joint merge phase across every cofactor at once *)
    let cofactors =
      if not (sweeps config) then cofactors
      else
        fst (Sweep.Sweeper.sweep_lits ~config:config.sweep ?bank aig checker ~prng cofactors)
        |> List.sort_uniq Int.compare
    in
    (* balanced disjunction tree, each join optimized under mutual DCs *)
    let join a b =
      if config.use_dontcare then
        fst (Synth.Dontcare.disjunction ~config:config.dontcare ?bank aig checker ~prng a b)
      else Aig.or_ aig a b
    in
    let rec reduce = function
      | [] -> Aig.false_
      | [ x ] -> x
      | xs ->
        let rec pair_up = function
          | a :: b :: rest -> join a b :: pair_up rest
          | tail -> tail
        in
        reduce (pair_up xs)
    in
    let result = reduce cofactors in
    if within_budget config ~before:size_before ~after:(Aig.size aig result) then Ok result
    else Error result
  end

type result = {
  lit : Aig.lit;
  eliminated : Aig.var list;
  kept : Aig.var list;
  reports : var_report list;
}

(* Cheap cost estimate for the greedy order: number of cone nodes whose
   function depends on the variable — exactly the region Shannon expansion
   duplicates. One bottom-up pass computes it for all variables at once. *)
let influence aig l vars =
  let interesting = Util.Int_tbl.create 16 in
  List.iter (fun v -> Util.Int_tbl.replace interesting v ()) vars;
  let counts = Util.Int_tbl.create 16 in
  (* node -> set of interesting vars in its support, as a sorted int list
     (cones are small; sets stay tiny because [vars] is the candidate list) *)
  let supports : int list Util.Int_tbl.t = Util.Int_tbl.create 64 in
  let support_of_lit lit =
    let n = Aig.node_of_lit lit in
    match Util.Int_tbl.find_opt supports n with
    | Some s -> s
    | None -> (
      match Aig.var_of_lit aig lit with
      | Some v when Util.Int_tbl.mem interesting v -> [ v ]
      | Some _ | None -> [])
  in
  let rec merge a b =
    match (a, b) with
    | [], s | s, [] -> s
    | x :: xs, y :: ys ->
      if x < y then x :: merge xs b
      else if x > y then y :: merge a ys
      else x :: merge xs ys
  in
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let s = merge (support_of_lit f0) (support_of_lit f1) in
      Util.Int_tbl.replace supports n s;
      List.iter
        (fun v ->
          Util.Int_tbl.replace counts v
            (1 + Option.value (Util.Int_tbl.find_opt counts v) ~default:0))
        s)
    (Aig.cone aig [ l ]);
  fun v -> Option.value (Util.Int_tbl.find_opt counts v) ~default:0

let all ?(config = default) ?bank aig checker ~prng l ~vars =
  let rec go l remaining eliminated kept reports =
    match remaining with
    | [] ->
      (* which variables the partial quantification abandoned — count
         them here and let traversals name them in report meta *)
      Obs.add obs_aborted_vars (List.length kept);
      { lit = l; eliminated = List.rev eliminated; kept = List.rev kept; reports = List.rev reports }
    | _ when Util.Limits.check (Cnf.Checker.limits checker) <> None ->
      (* governor tripped: keep every remaining variable, the paper's §4
         abort, without cofactoring, ordering or sweeping them. The set
         stays exact, and the frame ends at its next exact query. *)
      let n = List.length remaining in
      Obs.add obs_limit_fallbacks n;
      Obs.add obs_aborted n;
      Obs.Trace_events.instant_args "quantify.limit_fallback" "vars" n;
      go l [] eliminated (List.rev_append remaining kept) reports
    | _ ->
      let remaining =
        if config.greedy_order then begin
          let cost = influence aig l remaining in
          List.stable_sort (fun a b -> Int.compare (cost a) (cost b)) remaining
        end
        else remaining
      in
      (match remaining with
      | [] -> assert false
      | v :: rest -> (
        match one ~config ?bank aig checker ~prng l v with
        | Ok l', report -> go l' rest (v :: eliminated) kept (report :: reports)
        | Error _, report -> go l rest eliminated (v :: kept) (report :: reports)))
  in
  go l vars [] [] []
