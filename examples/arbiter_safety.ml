(* Verify mutual exclusion of the round-robin arbiter at growing sizes with
   the circuit-based engine and the canonical (BDD) baseline side by side —
   the traversal-comparison scenario of the paper (experiment T4 in
   miniature).

   Run with: dune exec examples/arbiter_safety.exe *)

let () =
  Format.printf "round-robin arbiter: at most one grant (safe family)@.";
  Format.printf "%-10s %-14s %-40s %-40s@." "requesters" "latches" "CBQ (this paper)"
    "BDD backward (baseline)";
  List.iter
    (fun n ->
      let model = Circuits.Families.rr_arbiter ~n in
      let stats = Netlist.Model.stats model in
      let cbq = Cbq.Reachability.run model in
      let model_b = Circuits.Families.rr_arbiter ~n in
      let bdd = Baselines.Bdd_mc.backward model_b in
      let cbq_txt = Format.asprintf "%a" Cbq.Reachability.pp_result cbq in
      (* the manager's node total, not the loop's peak frontier: the
         canonical representation's cost is every node it had to build *)
      let bdd_txt =
        Format.asprintf "%a iterations=%d bdd-nodes=%d %.3fs" Cbq.Verdict.pp bdd.reach.verdict
          (List.length bdd.reach.iterations) bdd.bdd_nodes bdd.reach.total_seconds
      in
      Format.printf "%-10d %-14d %-40s %-40s@." n stats.Netlist.Model.latches cbq_txt bdd_txt)
    [ 2; 3; 4; 6; 8 ];
  Format.printf
    "@.both engines prove the property; the circuit engine's frontier stays near the@.";
  Format.printf "cone size while the BDD baseline's node count grows with the token ring.@."
