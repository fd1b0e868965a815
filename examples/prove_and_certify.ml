(* Prove every safe benchmark family and independently check the proof.

   The backward engine's fix-point argument leaves a concrete artefact —
   the complement of the backward-reached set — which is an inductive
   invariant. This example re-validates each proof with the three
   textbook conditions (initiation, consecution, safety) on a fresh
   checker, so trusting the verdict does not require trusting the engine.

   Run with: dune exec examples/prove_and_certify.exe *)

let () =
  Format.printf "%-14s %-10s %12s %10s@." "model" "verdict" "invariant" "checked";
  List.iter
    (fun (name, param) ->
      let model, _ = Circuits.Registry.build name param in
      let r = Cbq.Reachability.run model in
      match r.Cbq.Reachability.verdict with
      | Cbq.Verdict.Proved -> (
        match r.Cbq.Reachability.invariant with
        | Some inv ->
          let size = Aig.size (Netlist.Model.aig model) inv in
          let status =
            match Cbq.Certify.check model ~invariant:inv with
            | Ok () -> "yes"
            | Error f -> Format.asprintf "NO (%a)" Cbq.Certify.pp_failure f
          in
          Format.printf "%-14s %-10s %9d ands %10s@." (Netlist.Model.name model) "proved"
            size status
        | None -> Format.printf "%-14s %-10s %12s@." (Netlist.Model.name model) "proved" "-")
      | v ->
        Format.printf "%-14s %a@." (Netlist.Model.name model) Cbq.Verdict.pp v)
    [
      ("counter-even", Some 6);
      ("twin-shift", Some 8);
      ("gray", Some 4);
      ("lfsr", Some 5);
      ("arbiter", Some 5);
      ("traffic", None);
      ("fifo", Some 3);
      ("peterson", None);
      ("johnson", Some 5);
      ("tmr", Some 3);
    ];
  Format.printf
    "@.a rejected certificate would mean an engine bug — the checker shares no state@.";
  Format.printf "with the traversal beyond the model itself.@."
