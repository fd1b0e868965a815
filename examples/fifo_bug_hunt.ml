(* Hunt the off-by-one overflow in the unguarded FIFO: circuit-based
   backward reachability finds the violation depth, the functional-unrolling
   BMC baseline confirms it, and both traces replay successfully on the
   model.

   Run with: dune exec examples/fifo_bug_hunt.exe *)

let () =
  let depth_log = 3 in
  let model = Circuits.Families.fifo ~buggy:true ~depth_log () in
  Format.printf "hunting the overflow in %s (depth %d FIFO, occupancy property)@."
    (Netlist.Model.name model) (1 lsl depth_log);

  (* 1. unbounded engine: backward reachability with AIG state sets *)
  let r = Cbq.Reachability.run model in
  Format.printf "cbq reachability: %a@." Cbq.Reachability.pp_result r;
  (match (r.Cbq.Reachability.verdict, r.Cbq.Reachability.trace) with
  | Cbq.Verdict.Falsified depth, Some t ->
    Format.printf "  counterexample depth %d, replays: %b@." depth (Cbq.Trace.check model t);
    let final = t.Cbq.Trace.states.(Array.length t.Cbq.Trace.states - 1) in
    let occupancy =
      List.fold_left
        (fun acc (v, bit) -> if bit then acc + (1 lsl (v - 2)) else acc)
        0 final
    in
    Format.printf "  final occupancy register: %d (capacity %d)@." occupancy (1 lsl depth_log)
  | Cbq.Verdict.Falsified _, None -> Format.printf "  (no trace)@."
  | Cbq.Verdict.Proved, _ -> Format.printf "  unexpectedly proved?!@."
  | Cbq.Verdict.Undecided reason, _ -> Format.printf "  undecided: %s@." reason);

  (* 1b. which inputs actually matter? ternary-simulation minimization *)
  (match r.Cbq.Reachability.trace with
  | Some t ->
    let essential = Cbq.Trace.minimize model t in
    let kept = Array.fold_left (fun acc f -> acc + List.length f) 0 essential in
    let total = Array.fold_left (fun acc f -> acc + List.length f) 0 t.Cbq.Trace.inputs in
    Format.printf "  essential stimulus: %d of %d input bits (the rest are don't cares)@."
      kept total
  | _ -> ());

  (* 2. cross-check with the BMC baseline *)
  let model_b = Circuits.Families.fifo ~buggy:true ~depth_log () in
  let bmc = (Baselines.Bmc.run ~max_depth:32 model_b).Baselines.Bmc.search in
  Format.printf "bmc cross-check:  %a@." Cbq.Unroll.pp_result bmc;
  (match bmc.Cbq.Unroll.trace with
  | Some t -> Format.printf "  bmc trace replays: %b@." (Cbq.Trace.check model_b t)
  | None -> ());

  (* 3. the guarded FIFO is safe — prove it with both unbounded engines *)
  let good = Circuits.Families.fifo ~depth_log () in
  let rg = Cbq.Reachability.run good in
  Format.printf "guarded fifo (cbq):       %a@." Cbq.Reachability.pp_result rg;
  let good_b = Circuits.Families.fifo ~depth_log () in
  let ind = Baselines.Induction.run good_b in
  Format.printf "guarded fifo (induction): %a@." Cbq.Unroll.pp_result ind
