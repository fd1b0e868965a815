type result = Cofactor_preimage.result = {
  reach : Cbq.Reachability.result;
  enumerations : int;
}

(* the CBQ pre-image, then enumeration of whatever it kept *)
let direction ~limit ~used env =
  let dir = Cbq.Reachability.backward env in
  let step frontier ~extra_vars =
    Result.bind (dir.step frontier ~extra_vars)
      (Cofactor_preimage.enumerate env.Cbq.Reachability.checker ~limit ~used)
  in
  { dir with step }

let run ?(config = Cbq.Reachability.default) ?(max_enumerations = 10_000)
    ?(limits = Util.Limits.unlimited) model =
  (* a deliberately strict budget: quantify only while the set stays
     small. A merged disjunction can exceed it, so the optimization phase
     runs *)
  let quant =
    { config.quant with Cbq.Quantify.use_dontcare = true; growth_limit = 1.2; growth_slack = 16 }
  in
  let used = ref 0 in
  let reach =
    Cbq.Reachability.traverse ~config:{ config with quant } ~limits model
      (direction ~limit:max_enumerations ~used)
  in
  { reach; enumerations = !used }
