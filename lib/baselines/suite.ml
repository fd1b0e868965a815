type config = { bmc_depth : int; induction_k : int; cbq : Cbq.Reachability.config }

let default_config = { bmc_depth = 30; induction_k = 25; cbq = Cbq.Reachability.default }

type engine = {
  name : string;
  run : limits:Util.Limits.t -> Netlist.Model.t -> Verdict.t * Cbq.Trace.t option;
}

type detail = {
  verdict : Verdict.t;
  trace : Cbq.Trace.t option;
  invariant : Aig.lit option;
  pp_result : Format.formatter -> unit;
  pp_frames : Format.formatter -> unit;
}

let cbq
    (run :
      ?config:Cbq.Reachability.config ->
      ?limits:Util.Limits.t ->
      Netlist.Model.t ->
      Cbq.Reachability.result) config ~limits m =
  let r = run ~config:config.cbq ~limits m in
  let verdict, trace =
    match r.Cbq.Reachability.verdict with
    | Cbq.Reachability.Proved -> (Verdict.Proved, None)
    | Cbq.Reachability.Falsified { depth; trace } -> (Verdict.Falsified depth, trace)
    | Cbq.Reachability.Out_of_budget { reason; _ } -> (Verdict.Undecided reason, None)
  in
  {
    verdict;
    trace;
    invariant = r.Cbq.Reachability.invariant;
    pp_result = (fun ppf -> Cbq.Reachability.pp_result ppf r);
    pp_frames =
      (fun ppf ->
        List.iter
          (fun it ->
            Format.fprintf ppf
              "  iter %2d: frontier=%d reached=%d inputs eliminated=%d kept=%d (%.3fs)@."
              it.Cbq.Reachability.index it.Cbq.Reachability.frontier_size
              it.Cbq.Reachability.reached_size it.Cbq.Reachability.eliminated_inputs
              it.Cbq.Reachability.kept_inputs it.Cbq.Reachability.seconds)
          r.Cbq.Reachability.iterations);
  }

let bdd r =
  {
    verdict = r.Bdd_mc.verdict;
    trace = None;
    invariant = None;
    pp_result = (fun ppf -> Bdd_mc.pp_result ppf r);
    pp_frames =
      (fun ppf ->
        List.iter
          (fun it ->
            Format.fprintf ppf "  iter %2d: frontier-bdd=%d reached-bdd=%d@." it.Bdd_mc.index
              it.Bdd_mc.frontier_nodes it.Bdd_mc.reached_nodes)
          r.Bdd_mc.iterations);
  }

let plain ?trace pp verdict r =
  { verdict; trace; invariant = None; pp_result = (fun ppf -> pp ppf r); pp_frames = ignore }

let table config =
  [
    ("cbq-bwd", cbq Cbq.Reachability.run config);
    ("cbq-fwd", cbq Cbq.Forward.run config);
    ("bdd-bwd", fun ~limits m -> bdd (Bdd_mc.backward ~limits m));
    ("bdd-fwd", fun ~limits m -> bdd (Bdd_mc.forward ~limits m));
    ( "bmc",
      fun ~limits m ->
        let r = Bmc.run ~max_depth:config.bmc_depth ~limits m in
        plain ?trace:r.Bmc.trace Bmc.pp_result r.Bmc.verdict r );
    ( "induction",
      fun ~limits m ->
        let r = Induction.run ~max_k:config.induction_k ~limits m in
        plain ?trace:r.Induction.trace Induction.pp_result r.Induction.verdict r );
    ( "cofactor",
      fun ~limits m ->
        let r = Cofactor_preimage.run ~limits m in
        plain Cofactor_preimage.pp_result r.Cofactor_preimage.verdict r );
    ( "hybrid",
      fun ~limits m ->
        let r = Hybrid.run ~limits m in
        plain Hybrid.pp_result r.Hybrid.verdict r );
  ]

let engines ?(config = default_config) () =
  List.map
    (fun (name, detailed) ->
      {
        name;
        run =
          (fun ~limits m ->
            let d = detailed ~limits m in
            (d.verdict, d.trace));
      })
    (table config)

let names = List.map fst (table default_config)

let find ?config name = List.find_opt (fun e -> e.name = name) (engines ?config ())

let find_detailed ?(config = default_config) name = List.assoc_opt name (table config)
