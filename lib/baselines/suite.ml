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

(* every engine on the frame loop: both CBQ directions, both BDD
   directions and the enumerating ones *)
let traversal
    (run :
      ?config:Cbq.Reachability.config ->
      ?limits:Util.Limits.t ->
      Netlist.Model.t ->
      Cbq.Reachability.result) config ~limits m =
  let r = run ~config:config.cbq ~limits m in
  {
    verdict = r.Cbq.Reachability.verdict;
    trace = r.Cbq.Reachability.trace;
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

(* both engines on the deepening loop *)
let bounded (r : Cbq.Unroll.result) =
  {
    verdict = r.verdict;
    trace = r.trace;
    invariant = None;
    pp_result = (fun ppf -> Cbq.Unroll.pp_result ppf r);
    pp_frames = ignore;
  }

let table config =
  [
    ("cbq-bwd", traversal Cbq.Reachability.run config);
    ("cbq-fwd", traversal Cbq.Forward.run config);
    ( "bdd-bwd",
      traversal (fun ?config ?limits m -> (Bdd_mc.backward ?config ?limits m).reach) config );
    ( "bdd-fwd",
      traversal (fun ?config ?limits m -> (Bdd_mc.forward ?config ?limits m).reach) config );
    ("bmc", fun ~limits m -> bounded (Bmc.run ~max_depth:config.bmc_depth ~limits m).search);
    ("induction", fun ~limits m -> bounded (Induction.run ~max_k:config.induction_k ~limits m));
    ( "cofactor",
      traversal (fun ?config ?limits m -> (Cofactor_preimage.run ?config ?limits m).reach) config
    );
    ("hybrid", traversal (fun ?config ?limits m -> (Hybrid.run ?config ?limits m).reach) config);
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
