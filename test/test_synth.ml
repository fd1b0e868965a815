(* Optimization-phase tests: the don't-care-based disjunction must always
   equal the plain OR of the cofactors, never grow it, and its report must
   reflect what happened. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let eval_mask aig l mask = Aig.eval aig l (fun v -> (mask lsr v) land 1 = 1)

let semantically_equal aig nvars a b =
  let rec go mask =
    mask >= 1 lsl nvars || (eval_mask aig a mask = eval_mask aig b mask && go (mask + 1))
  in
  go 0

let setup () =
  let aig = Aig.create () in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 13 in
  (aig, checker, prng)

let test_disjunction_trivial_cases () =
  let aig, checker, prng = setup () in
  let x = Aig.var aig 0 in
  let g, _ = Synth.Dontcare.disjunction aig checker ~prng Aig.true_ x in
  check int "true | x" Aig.true_ g;
  let g, _ = Synth.Dontcare.disjunction aig checker ~prng Aig.false_ x in
  check int "false | x" x g;
  let g, _ = Synth.Dontcare.disjunction aig checker ~prng x (Aig.not_ x) in
  check int "x | ~x" Aig.true_ g

let test_disjunction_simplifies () =
  let aig, checker, prng = setup () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  (* f0 = x; f1 = ~x & (y ^ z): within f1's care set (~x... care = ¬f0)
     the x-related logic of any node is free *)
  let f0 = Aig.or_ aig x (Aig.and_ aig y z) in
  let f1 = Aig.and_ aig (Aig.not_ x) (Aig.xor_ aig y z) in
  let g, report = Synth.Dontcare.disjunction aig checker ~prng f0 f1 in
  let plain = Aig.or_ aig f0 f1 in
  check bool "equal to the plain disjunction" true (semantically_equal aig 3 g plain);
  check bool "never larger than plain" true
    (report.Synth.Dontcare.size_after <= report.Synth.Dontcare.size_before)

let test_report_counts () =
  let aig, checker, prng = setup () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  let f0 = x in
  (* f1 contains logic that is redundant when restricted to ~x *)
  let f1 = Aig.and_ aig (Aig.or_ aig x y) (Aig.not_ x) in
  let _, report = Synth.Dontcare.disjunction aig checker ~prng f0 f1 in
  check bool "sat calls happened" true (report.Synth.Dontcare.sat_calls >= 0);
  check bool "sizes recorded" true (report.Synth.Dontcare.size_before >= report.Synth.Dontcare.size_after)

let test_odc_disabled () =
  let aig, checker, prng = setup () in
  let config = { Synth.Dontcare.default with odc_max_tries = 0 } in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  let f0 = Aig.and_ aig x y in
  let f1 = Aig.and_ aig y z in
  let g, report = Synth.Dontcare.disjunction ~config aig checker ~prng f0 f1 in
  check int "no odc replacements when disabled" 0 report.Synth.Dontcare.odc_replacements;
  check bool "still equivalent" true (semantically_equal aig 3 g (Aig.or_ aig f0 f1))

let test_merges_disabled () =
  let aig, checker, prng = setup () in
  let config = { Synth.Dontcare.default with use_merges = false } in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  let f0 = x and f1 = Aig.xor_ aig x y in
  let g, report = Synth.Dontcare.disjunction ~config aig checker ~prng f0 f1 in
  check int "no merge replacements when disabled" 0 report.Synth.Dontcare.merge_replacements;
  check bool "still equivalent" true (semantically_equal aig 2 g (Aig.or_ aig f0 f1))

(* cofactor-pair property: the don't-care disjunction of the cofactors of
   any function along any variable equals the quantification *)
let nvars = 4
let build = Gen_util.build_aig
let qc_expr = Gen_util.qc_expr nvars

let disjunction_always_equivalent =
  QCheck.Test.make ~name:"DC disjunction = plain disjunction (cofactor pairs)" ~count:80
    qc_expr (fun e ->
      let aig = Aig.create () in
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 17 in
      let f = build aig e in
      let f0 = Aig.cofactor aig f ~v:0 ~phase:false in
      let f1 = Aig.cofactor aig f ~v:0 ~phase:true in
      let g, _ = Synth.Dontcare.disjunction aig checker ~prng f0 f1 in
      semantically_equal aig nvars g (Aig.or_ aig f0 f1))

let disjunction_never_larger =
  QCheck.Test.make ~name:"DC disjunction never exceeds the plain size" ~count:80 qc_expr
    (fun e ->
      let aig = Aig.create () in
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 19 in
      let f = build aig e in
      let f0 = Aig.cofactor aig f ~v:0 ~phase:false in
      let f1 = Aig.cofactor aig f ~v:0 ~phase:true in
      let plain_size = Aig.size aig (Aig.or_ aig f0 f1) in
      let _, report = Synth.Dontcare.disjunction aig checker ~prng f0 f1 in
      report.Synth.Dontcare.size_after <= plain_size)

let arbitrary_pairs_equivalent =
  QCheck.Test.make ~name:"DC disjunction on arbitrary pairs" ~count:80
    (QCheck.pair qc_expr qc_expr) (fun (e1, e2) ->
      let aig = Aig.create () in
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 23 in
      let f0 = build aig e1 and f1 = build aig e2 in
      let g, _ = Synth.Dontcare.disjunction aig checker ~prng f0 f1 in
      semantically_equal aig nvars g (Aig.or_ aig f0 f1))

(* ---------- cut-based resubstitution ---------- *)

let test_rewrite_finds_structural_duplicate () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  (* the same xor built two ways, both feeding further logic *)
  let xor1 = Aig.xor_ aig x y in
  let xor2 = Aig.or_ aig (Aig.and_ aig x (Aig.not_ y)) (Aig.and_ aig (Aig.not_ x) y) in
  let f = Aig.or_ aig (Aig.and_ aig xor1 z) (Aig.and_ aig xor2 (Aig.not_ z)) in
  let f', report = Synth.Rewrite.resubstitute aig f in
  check bool "semantics preserved" true (semantically_equal aig 3 f f');
  check bool "duplicate found without SAT" true (report.Synth.Rewrite.resubstitutions > 0);
  check bool "smaller" true (report.Synth.Rewrite.size_after < report.Synth.Rewrite.size_before)

let test_rewrite_folds_hidden_constant () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  (* (x&y&z) & (x&~y&z): contradiction invisible to the two-level rules *)
  let a = Aig.and_ aig (Aig.and_ aig x y) z in
  let b = Aig.and_ aig (Aig.and_ aig x (Aig.not_ y)) z in
  let hidden = Aig.and_ aig a b in
  check bool "not folded by the front-end" false (Aig.is_const hidden);
  let h', report = Synth.Rewrite.resubstitute aig hidden in
  check int "rewrite folds it" Aig.false_ h';
  check bool "reported as a constant" true (report.Synth.Rewrite.constants_folded > 0)

let test_rewrite_folds_projection () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  (* (x & y) | (x & ~y) = x: a projection hidden at depth two *)
  let f = Aig.or_ aig (Aig.and_ aig x y) (Aig.and_ aig x (Aig.not_ y)) in
  let f', _ = Synth.Rewrite.resubstitute aig f in
  check bool "projection folded to the variable" true
    (f' = x || semantically_equal aig 2 f' x)

let rewrite_preserves_semantics =
  QCheck.Test.make ~name:"resubstitution preserves semantics" ~count:150 qc_expr (fun e ->
      let aig = Aig.create () in
      let f = build aig e in
      let f', report = Synth.Rewrite.resubstitute aig f in
      semantically_equal aig nvars f f'
      && report.Synth.Rewrite.size_after <= report.Synth.Rewrite.size_before)

let () =
  Alcotest.run "synth"
    [
      ( "dontcare",
        [
          Alcotest.test_case "trivial cases" `Quick test_disjunction_trivial_cases;
          Alcotest.test_case "simplification" `Quick test_disjunction_simplifies;
          Alcotest.test_case "report counts" `Quick test_report_counts;
          Alcotest.test_case "odc disabled" `Quick test_odc_disabled;
          Alcotest.test_case "merges disabled" `Quick test_merges_disabled;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "finds structural duplicates" `Quick
            test_rewrite_finds_structural_duplicate;
          Alcotest.test_case "folds hidden constants" `Quick test_rewrite_folds_hidden_constant;
          Alcotest.test_case "folds projections" `Quick test_rewrite_folds_projection;
          QCheck_alcotest.to_alcotest rewrite_preserves_semantics;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest disjunction_always_equivalent;
          QCheck_alcotest.to_alcotest disjunction_never_larger;
          QCheck_alcotest.to_alcotest arbitrary_pairs_equivalent;
        ] );
    ]
