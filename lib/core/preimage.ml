type result = Quantify.result = {
  lit : Aig.lit;
  eliminated : Aig.var list;
  kept : Aig.var list;
  reports : Quantify.var_report list;
}

let substitute m b =
  Aig.compose (Netlist.Model.aig m) b ~subst:(Netlist.Model.next_subst m)

let obs_span = Obs.span "preimage.compute"
let obs_substituted_size = Obs.histogram "preimage.substituted_size"

let compute ?config ?bank m checker ~prng ~frontier ~extra_vars =
  Obs.with_span obs_span @@ fun () ->
  Obs.Trace_events.begin_ "preimage.compute";
  let aig = Netlist.Model.aig m in
  let inlined = substitute m frontier in
  let support = Aig.support aig inlined in
  let input_vars = Netlist.Model.input_vars m in
  let to_quantify =
    List.filter (fun v -> List.mem v input_vars || List.mem v extra_vars) support
  in
  Obs.observe obs_substituted_size (Aig.size aig inlined);
  let q = Quantify.all ?config ?bank aig checker ~prng inlined ~vars:to_quantify in
  Obs.Trace_events.end_args "preimage.compute" "kept" (List.length q.Quantify.kept);
  q
