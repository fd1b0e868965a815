(* Quickstart: build a tiny sequential model with the public API, quantify
   a variable by hand, and verify the model with circuit-based backward
   reachability.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A model: two-bit counter with an enable input; the property says
     the counter never shows 3 with the enable low... which is false —
     once the counter reaches 3 it stays observable with any input, so we
     use the classic "never reaches 3" which fails at depth 3. *)
  let b = Netlist.Builder.create "quickstart" in
  let aig = Netlist.Builder.aig b in
  let enable = Netlist.Builder.input b in
  let q0 = Netlist.Builder.latch b ~init:false in
  let q1 = Netlist.Builder.latch b ~init:false in
  (* next state: increment when enabled *)
  let n0 = Aig.xor_ aig q0 enable in
  let n1 = Aig.xor_ aig q1 (Aig.and_ aig q0 enable) in
  Netlist.Builder.connect b q0 n0;
  Netlist.Builder.connect b q1 n1;
  Netlist.Builder.set_property b (Aig.not_ (Aig.and_ aig q0 q1));
  let model = Netlist.Builder.finish b in
  Format.printf "model: %a@." Netlist.Model.pp_stats (Netlist.Model.stats model);

  (* 2. Quantification by hand: eliminate the enable input from the
     pre-image of the bad states, watching the two phases work. *)
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 42 in
  let bad = Aig.and_ aig q0 q1 in
  let pre_inlined = Cbq.Preimage.substitute model bad in
  Format.printf "in-lined pre-image has %d AND nodes over %d variables@."
    (Aig.size aig pre_inlined)
    (List.length (Aig.support aig pre_inlined));
  (match Aig.var_of_lit aig enable with
  | Some v ->
    let result, report = Cbq.Quantify.one aig checker ~prng pre_inlined v in
    Format.printf "quantified the enable: %a@." Cbq.Quantify.pp_var_report report;
    (match result with
    | Ok lit ->
      Format.printf "result depends on: %s@."
        (String.concat ", "
           (List.map (Printf.sprintf "x%d") (Aig.support aig lit)))
    | Error _ -> Format.printf "aborted (would not fit the growth budget)@.")
  | None -> assert false);

  (* 3. Full verification: backward reachability with AIG state sets. *)
  let result = Cbq.Reachability.run model in
  Format.printf "verification: %a@." Cbq.Reachability.pp_result result;
  match (result.Cbq.Reachability.verdict, result.Cbq.Reachability.trace) with
  | Cbq.Verdict.Falsified _, Some t ->
    Format.printf "%a" (Cbq.Trace.pp model) t;
    Format.printf "trace checks out: %b@." (Cbq.Trace.check model t)
  | Cbq.Verdict.Falsified _, None -> Format.printf "(no trace requested)@."
  | Cbq.Verdict.Proved, _ -> Format.printf "property proved@."
  | Cbq.Verdict.Undecided reason, _ -> Format.printf "undecided: %s@." reason
