type result = { reach : Cbq.Reachability.result; enumerations : int }

(* Finish [q] by enumerating its kept variables: cofactor the circuit
   with each satisfying assignment's values for those variables only
   (circuit cofactoring), so one solution captures every state that
   shares it; accumulate, block, repeat until UNSAT. *)
let enumerate checker ~limit ~used (q : Cbq.Quantify.result) =
  if q.kept = [] then Ok q
  else begin
    let aig = Cnf.Checker.aig checker in
    let rec go acc =
      if !used >= limit then Error "enumeration budget"
      else
        match Cnf.Checker.satisfiable checker [ q.lit; Aig.not_ acc ] with
        | Cnf.Checker.No -> Ok { q with lit = acc; eliminated = q.eliminated @ q.kept; kept = [] }
        | Cnf.Checker.Maybe -> Error (Util.Limits.maybe_reason (Cnf.Checker.limits checker))
        | Cnf.Checker.Yes ->
          incr used;
          let subst v =
            if List.mem v q.kept then
              Some (if Cnf.Checker.model_var checker v then Aig.true_ else Aig.false_)
            else None
          in
          go (Aig.or_ aig acc (Aig.compose aig q.lit ~subst))
    in
    go Aig.false_
  end

(* the in-lined frontier, every input and residual in its support left
   to enumeration *)
let direction ~limit ~used env =
  let model = env.Cbq.Reachability.model in
  let input_vars = Netlist.Model.input_vars model in
  let step frontier ~extra_vars =
    let inlined = Cbq.Preimage.substitute model frontier in
    let kept =
      List.filter
        (fun v -> List.mem v input_vars || List.mem v extra_vars)
        (Aig.support (Netlist.Model.aig model) inlined)
    in
    enumerate env.Cbq.Reachability.checker ~limit ~used
      { lit = inlined; eliminated = []; kept; reports = [] }
  in
  { (Cbq.Reachability.backward env) with step }

let run ?(config = Cbq.Reachability.default) ?(max_enumerations = 10_000)
    ?(limits = Util.Limits.unlimited) model =
  let used = ref 0 in
  let reach =
    Cbq.Reachability.traverse ~config ~limits model (direction ~limit:max_enumerations ~used)
  in
  { reach; enumerations = !used }
