(* "states at frames i and j differ" *)
let distinct unroll i j =
  let model = Cbq.Unroll.model unroll in
  let aig = Netlist.Model.aig model in
  let at frame v = Cbq.Unroll.state_lit unroll ~frame v in
  Aig.or_list aig
    (List.map (fun v -> Aig.xor_ aig (at i v) (at j v)) (Netlist.Model.state_vars model))

let run ?(max_k = 50) ?(limits = Util.Limits.unlimited) model =
  let round checker =
    let base_unroll = Cbq.Unroll.create model in
    (* the step's path starts anywhere: satisfiability over it quantifies
       the start state *)
    let step_unroll = Cbq.Unroll.from_any_state model in
    fun k ->
      (* base: counterexample of exactly length k? *)
      match
        Cbq.Unroll.cex_at base_unroll checker ~target:(Cbq.Unroll.bad_at base_unroll k) ~depth:k
      with
      | Cbq.Unroll.Deeper -> (
        (* step: P on frames 0..k, loop-free, yet ¬P on frame k+1 *)
        let assumptions =
          List.init (k + 1) (fun i -> Aig.not_ (Cbq.Unroll.bad_at step_unroll i))
          @ [ Cbq.Unroll.bad_at step_unroll (k + 1) ]
          (* all k+2 path states pairwise distinct: makes the method
             complete (vacuous step once k exceeds the state count) *)
          @ List.concat
              (List.init (k + 2) (fun i ->
                   List.init (k + 2 - i - 1) (fun d -> distinct step_unroll i (i + d + 1))))
        in
        match Cnf.Checker.satisfiable checker assumptions with
        | Cnf.Checker.No -> Cbq.Unroll.Proof
        | Cnf.Checker.Yes -> Cbq.Unroll.Deeper
        | Cnf.Checker.Maybe -> Cbq.Unroll.Maybe)
      | base -> base
  in
  Cbq.Unroll.deepen ~limits ~max_depth:max_k
    ~bound:(Printf.sprintf "no convergence by k=%d" max_k)
    model round
