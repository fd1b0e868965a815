(* Img(R): conjoin the transition relation, eliminate current-state,
   input and residual variables; the frame loop renames what stays
   free and [rebase] maps the primed next-state variables back to the
   current ones. Forward starts from the initial states, targets the bad
   states, and its reached set is itself the invariant. *)
let image env =
  let model = env.Reachability.model in
  let aig = Netlist.Model.aig model in
  let input_vars = Netlist.Model.input_vars model in
  let state_vars = Netlist.Model.state_vars model in
  (* primed variables standing for the next state in the relational image *)
  let primed =
    List.map (fun l -> (l.Netlist.Model.state_var, Aig.fresh_var aig)) model.Netlist.Model.latches
  in
  let transition =
    Aig.and_list aig
      (List.map
         (fun l ->
           let y = Aig.var aig (List.assoc l.Netlist.Model.state_var primed) in
           Aig.iff_ aig y l.Netlist.Model.next)
         model.Netlist.Model.latches)
  in
  let unprime v =
    let back = List.find_opt (fun (_, y) -> y = v) primed in
    Option.map (fun (s, _) -> Aig.var aig s) back
  in
  {
    Reachability.backward = false;
    step =
      (fun frontier ~extra_vars ->
        let product = Aig.and_ aig transition frontier in
        let to_quantify =
          List.filter
            (fun v -> List.mem v state_vars || List.mem v input_vars || List.mem v extra_vars)
            (Aig.support aig product)
        in
        Ok
          (Quantify.all ~config:env.Reachability.quant ~bank:env.Reachability.bank aig
             env.Reachability.checker ~prng:env.Reachability.prng product ~vars:to_quantify));
    rebase = (fun lit -> Aig.compose aig lit ~subst:unprime);
  }

let run ?(config = Reachability.default) ?(limits = Util.Limits.unlimited) model =
  Reachability.traverse ~config ~limits model image
