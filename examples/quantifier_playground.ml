(* Watch circuit-based quantification fight the Shannon blow-up, stage by
   stage, on a BDD-hostile cone (the middle bit of an array multiplier).

   Five configurations, from the paper's ablation:
     shannon   raw cofactor disjunction (structural hashing only)
     +merge    merge phase (simulation candidates, BDD sweeping, SAT)
     +dc       merge plus cross-cofactor don't-care optimization
     +odc      adds observability don't cares
     +rewrite  the full pipeline with cut-based resubstitution

   Run with: dune exec examples/quantifier_playground.exe *)

let configs : (string * Cbq.Quantify.config) list =
  [
    ("shannon", Cbq.Quantify.naive_config);
    ( "+merge",
      {
        Cbq.Quantify.naive_config with
        sweep = Sweep.Sweeper.default;
        growth_limit = infinity;
      } );
    ( "+dc",
      {
        Cbq.Quantify.default with
        use_dontcare = true;
        dontcare = { Synth.Dontcare.default with odc_max_tries = 0 };
        use_rewrite = false;
        growth_limit = infinity;
      } );
    ( "+odc",
      {
        Cbq.Quantify.default with
        use_dontcare = true;
        use_rewrite = false;
        growth_limit = infinity;
      } );
    ("+rewrite", { Cbq.Quantify.default with use_dontcare = true; growth_limit = infinity });
  ]

let () =
  let n = 5 in
  let cone = Circuits.Comb.multiplier_bit n in
  let aig = cone.Circuits.Comb.aig in
  let total_vars = List.length cone.Circuits.Comb.vars in
  Format.printf "cone %s: %d AND nodes, %d inputs@." cone.Circuits.Comb.name
    (Aig.size aig cone.Circuits.Comb.root)
    total_vars;
  (* quantify only first-operand variables: with the second operand free
     the result stays a non-trivial function of it (y = 0 keeps the
     product's middle bit at 0 no matter which x exists) *)
  let ks = [ 1; 2; 3; 4; 5 ] in
  Format.printf "@.result size after quantifying k variables:@.";
  Format.printf "%-10s" "config";
  List.iter (fun k -> Format.printf "k=%-6d" k) ks;
  Format.printf "@.";
  List.iter
    (fun (name, config) ->
      Format.printf "%-10s" name;
      List.iter
        (fun k ->
          let checker = Cnf.Checker.create aig in
          let prng = Util.Prng.create 5 in
          let vars = List.filteri (fun i _ -> i < k) cone.Circuits.Comb.vars in
          let r = Cbq.Quantify.all ~config aig checker ~prng cone.Circuits.Comb.root ~vars in
          Format.printf "%-8d" (Aig.size aig r.Cbq.Quantify.lit))
        ks;
      Format.printf "@.")
    configs;
  Format.printf
    "@.every row computes the same function (checked by the test suite); the rows@.";
  Format.printf "differ only in how hard they fight the representation blow-up.@."
