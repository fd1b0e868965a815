type result = { search : Cbq.Unroll.result; inputs_eliminated : int }

(* strict budget: only structurally cheap eliminations are worth doing in
   front of a SAT call. A merged disjunction can exceed it, so the
   optimization phase runs *)
let preprocess_config =
  { Cbq.Quantify.default with use_dontcare = true; growth_limit = 1.0; growth_slack = 8 }

let run ?(max_depth = 100) ?(preprocess = false) ?(limits = Util.Limits.unlimited) model =
  let eliminated = ref 0 in
  let query checker =
    let aig = Netlist.Model.aig model in
    let prng = Util.Prng.create 67 in
    let unroll = Cbq.Unroll.create model in
    fun k ->
      let target = Cbq.Unroll.bad_at unroll k in
      let exact () = Cbq.Unroll.cex_at unroll checker ~target ~depth:k in
      if not preprocess then exact ()
      else begin
        let vars = Aig.support aig target in
        let q = Cbq.Quantify.all ~config:preprocess_config aig checker ~prng target ~vars in
        eliminated := !eliminated + List.length q.Cbq.Quantify.eliminated;
        match Cnf.Checker.satisfiable checker [ q.Cbq.Quantify.lit ] with
        (* re-solve the full cone so the model covers every frame input the
           quantification removed; the learned clauses make this cheap *)
        | Cnf.Checker.Yes -> exact ()
        | Cnf.Checker.No -> Cbq.Unroll.Deeper
        | Cnf.Checker.Maybe -> Cbq.Unroll.Maybe
      end
  in
  let search =
    Cbq.Unroll.deepen ~limits ~max_depth ~bound:(Printf.sprintf "bound %d" max_depth) model query
  in
  { search; inputs_eliminated = !eliminated }
