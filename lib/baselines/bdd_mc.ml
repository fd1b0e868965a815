type result = { reach : Cbq.Reachability.result; bdd_nodes : int }

(* The BDD sets of one run. Every operation that can build nodes runs
   under the node quota, tightened by what is left of the governor's BDD
   pool and charged back to it, and polls the governor while the manager
   grows. A blown quota stops the loop naming the binding resource; a
   blown pool is a fatal trip, BDDs being this engine's primary
   representation. [make_step] is built first, then init and bad. *)
let sets man ~node_limit ~limits ~backward (model : Netlist.Model.t) make_step _checker =
  let poll () = if Util.Limits.check limits <> None then raise Bdd.Node_limit in
  let guard f =
    let before = Bdd.num_nodes man in
    let pool = Option.map (( + ) before) (Util.Limits.bdd_budget limits) in
    let pool_bound = match pool with Some p -> p < node_limit | None -> false in
    let max_nodes = if pool_bound then Option.get pool else node_limit in
    let r = Bdd.with_limit man ~poll ~max_nodes f in
    Util.Limits.charge_bdd_nodes limits (Bdd.num_nodes man - before);
    match (r, Util.Limits.exhausted limits) with
    | Ok b, _ -> b
    | Error `Node_limit, Some r -> raise (Cbq.Reachability.Stop (Util.Limits.resource_name r))
    | Error `Node_limit, None when pool_bound ->
      Util.Limits.trip limits Util.Limits.Bdd_nodes;
      raise (Cbq.Reachability.Stop (Util.Limits.resource_name Util.Limits.Bdd_nodes))
    | Error `Node_limit, None -> raise (Cbq.Reachability.Stop "node limit")
  in
  let tr = Sweep.Bdd_sweep.translator man (Netlist.Model.aig model) in
  let of_lit l = tr [ l ] l in
  let step = guard (fun () -> make_step man tr) in
  let input_vars = Netlist.Model.input_vars model in
  let init = guard (fun () -> of_lit (Netlist.Model.init_lit model)) in
  let bad =
    guard (fun () ->
        Bdd.exists man (fun v -> List.mem v input_vars) (of_lit (Aig.not_ model.property)))
  in
  let binary op a b = guard (fun () -> op man a b) in
  {
    Cbq.Reachability.init;
    bad;
    backward;
    step = (fun s -> { states = guard (fun () -> step s); eliminated = 0; kept = 0 });
    meets = (fun a b -> if binary Bdd.and_ a b = Bdd.zero then Cnf.Checker.No else Yes);
    and_ = binary Bdd.and_;
    or_ = binary Bdd.or_;
    not_ = (fun a -> guard (fun () -> Bdd.not_ man a));
    size = Bdd.size man;
    invariant = (fun _ -> None);
  }

let traverse ?(node_limit = 1_000_000) ?(config = Cbq.Reachability.default)
    ?(limits = Util.Limits.unlimited) ~backward make_step model =
  let man = Bdd.create () in
  let reach =
    Cbq.Reachability.frame_loop ~config ~limits model
      (sets man ~node_limit ~limits ~backward model make_step)
  in
  { reach; bdd_nodes = Bdd.num_nodes man }

(* the latches' next-state BDDs, translated in one pass *)
let next_states tr (model : Netlist.Model.t) =
  let bdd = tr (List.map (fun l -> l.Netlist.Model.next) model.latches) in
  List.map (fun l -> (l.Netlist.Model.state_var, bdd l.Netlist.Model.next)) model.latches

let backward ?node_limit ?config ?limits model =
  let input_vars = Netlist.Model.input_vars model in
  traverse ?node_limit ?config ?limits ~backward:true
    (fun man tr ->
      let next = next_states tr model in
      fun frontier ->
        Bdd.exists man
          (fun v -> List.mem v input_vars)
          (Bdd.compose man frontier ~subst:(fun v -> List.assoc_opt v next)))
    model

let forward ?node_limit ?config ?limits model =
  (* primed variables live above every model variable *)
  let base = Aig.num_vars (Netlist.Model.aig model) + 1 in
  let primed = List.mapi (fun i v -> (v, base + i)) (Netlist.Model.state_vars model) in
  traverse ?node_limit ?config ?limits ~backward:false
    (fun man tr ->
      let relation =
        List.fold_left
          (fun acc (v, next) ->
            Bdd.and_ man acc (Bdd.iff_ man (Bdd.var_node man (List.assoc v primed)) next))
          Bdd.one (next_states tr model)
      in
      let unprime = List.map (fun (v, p) -> (p, Bdd.var_node man v)) primed in
      fun frontier ->
        let primed_only = Bdd.exists man (fun v -> v < base) (Bdd.and_ man relation frontier) in
        Bdd.compose man primed_only ~subst:(fun v -> List.assoc_opt v unprime))
    model
