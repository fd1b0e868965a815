(* Merge-phase tests: simulation candidate classes, BDD sweeping, SAT
   merging with forward/backward strategies, and end-to-end semantic
   preservation of the substitutions. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let eval_mask aig l mask = Aig.eval aig l (fun v -> (mask lsr v) land 1 = 1)

let semantically_equal aig nvars a b =
  let rec go mask =
    mask >= 1 lsl nvars || (eval_mask aig a mask = eval_mask aig b mask && go (mask + 1))
  in
  go 0

(* two structurally different builds of the same function, plus unrelated
   logic: the standard sweeping workload *)
let make_redundant_pair () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  (* xor built via (x|y) & ~(x&y) is the and_/or_ definition; build the
     mux form instead so strashing cannot identify them *)
  let xor1 = Aig.xor_ aig x y in
  let xor2 = Aig.or_ aig (Aig.and_ aig x (Aig.not_ y)) (Aig.and_ aig (Aig.not_ x) y) in
  let f = Aig.and_ aig xor1 z in
  let g = Aig.and_ aig xor2 z in
  (aig, f, g, xor1, xor2)

let test_sim_candidates () =
  let aig, f, g, xor1, xor2 = make_redundant_pair () in
  let prng = Util.Prng.create 1 in
  let sim = Sweep.Sim.create aig ~roots:[ f; g ] ~rounds:4 ~prng in
  check bool "equivalent nodes share a class" true (Sweep.Sim.same_class sim xor1 xor2);
  check bool "complement detected" true (Sweep.Sim.same_class sim xor1 (Aig.not_ (Aig.not_ xor2)));
  check bool "distinct nodes distinguished eventually" true
    (not (Sweep.Sim.same_class sim f xor1) || Aig.size aig f = Aig.size aig xor1);
  let classes = Sweep.Sim.classes sim in
  check bool "at least one candidate class" true (List.length classes >= 1);
  List.iter
    (fun members -> check bool "classes have >= 2 members" true (List.length members >= 2))
    classes

let test_sim_refine_splits () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  (* x and y look alike only until a pattern separates them; force the
     degenerate 1-round case by refining with a distinguishing assignment *)
  let f = Aig.and_ aig x y in
  let prng = Util.Prng.create 2 in
  let sim = Sweep.Sim.create aig ~roots:[ f ] ~rounds:1 ~prng in
  let before = Sweep.Sim.refinements sim in
  Sweep.Sim.refine sim (fun v -> v = 0);
  check int "refinement counted" (before + 1) (Sweep.Sim.refinements sim);
  check bool "x and y distinguished by the pattern" false (Sweep.Sim.same_class sim x y)

let test_sim_constant_class () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 in
  let zero = Aig.and_ aig x (Aig.not_ x) in
  check int "strash folds the obvious constant" Aig.false_ zero;
  (* a constant hidden too deep for the two-level rewrite rules *)
  let y = Aig.var aig 1 in
  let z = Aig.var aig 2 in
  let a = Aig.and_ aig (Aig.and_ aig x y) z in
  let b = Aig.and_ aig (Aig.and_ aig x (Aig.not_ y)) z in
  let hidden_zero = Aig.and_ aig a b in
  check bool "front-end did not fold it" false (Aig.is_const hidden_zero);
  let prng = Util.Prng.create 3 in
  let sim = Sweep.Sim.create aig ~roots:[ hidden_zero ] ~rounds:4 ~prng in
  check bool "hidden constant classes with the constant node" true
    (Sweep.Sim.same_class sim hidden_zero Aig.false_)

(* ---------- bdd sweeping ---------- *)

let test_bdd_sweep_finds_merges () =
  let aig, f, g, _, _ = make_redundant_pair () in
  let res = Sweep.Bdd_sweep.run aig ~roots:[ f; g ] ~max_nodes:10_000 in
  check bool "not aborted" false res.Sweep.Bdd_sweep.aborted;
  check bool "found merges" true (List.length res.Sweep.Bdd_sweep.merges > 0);
  (* every reported merge is a true equivalence *)
  List.iter
    (fun (n, rep) ->
      check bool "merge is semantically valid" true
        (semantically_equal aig 3 (Aig.lit_of_node n) rep))
    res.Sweep.Bdd_sweep.merges;
  (* representatives always precede the merged node *)
  List.iter
    (fun (n, rep) -> check bool "acyclic direction" true (Aig.node_of_lit rep < n))
    res.Sweep.Bdd_sweep.merges

let test_bdd_sweep_quota () =
  let aig = Aig.create () in
  (* a multiplier-like cone blows past a tiny quota *)
  let xs = List.init 6 (Aig.var aig) in
  let f =
    List.fold_left
      (fun acc x -> Aig.xor_ aig (Aig.and_ aig acc x) (Aig.or_ aig acc (Aig.not_ x)))
      (List.hd xs) (List.tl xs)
  in
  let res = Sweep.Bdd_sweep.run aig ~roots:[ f ] ~max_nodes:8 in
  check bool "quota abort reported" true res.Sweep.Bdd_sweep.aborted

let test_bdd_sweep_constant_detection () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  (* two-level rules catch shallow contradictions, so bury it one level
     deeper: (x&y&z) & (x&~y&z) = 0 with the conflict across cousins *)
  let a = Aig.and_ aig (Aig.and_ aig x y) z in
  let b = Aig.and_ aig (Aig.and_ aig x (Aig.not_ y)) z in
  let hidden_zero = Aig.and_ aig a b in
  check bool "not folded by the front-end" false (Aig.is_const hidden_zero);
  let res = Sweep.Bdd_sweep.run aig ~roots:[ hidden_zero ] ~max_nodes:10_000 in
  let merged_to_const =
    List.exists
      (fun (n, rep) -> n = Aig.node_of_lit hidden_zero && Aig.is_const rep)
      res.Sweep.Bdd_sweep.merges
  in
  check bool "hidden constant merged to the constant" true merged_to_const

(* ---------- full sweeper ---------- *)

let run_sweeper ?config aig roots =
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 7 in
  Sweep.Sweeper.run ?config aig checker ~prng ~roots

let test_sweeper_end_to_end () =
  let aig, f, g, _, _ = make_redundant_pair () in
  let repl, report = run_sweeper aig [ f; g ] in
  check bool "some merges found" true (report.Sweep.Sweeper.total_merges > 0);
  let f' = Aig.rebuild aig ~repl f and g' = Aig.rebuild aig ~repl g in
  check bool "f preserved" true (semantically_equal aig 3 f f');
  check bool "g preserved" true (semantically_equal aig 3 g g');
  (* the two equivalent functions collapse to the same literal *)
  check int "f and g merged" f' g'

let test_sweeper_sat_only () =
  (* disable BDD sweeping: SAT must find the merges alone *)
  let aig, f, g, _, _ = make_redundant_pair () in
  let config = { Sweep.Sweeper.default with bdd_node_limit = 0 } in
  let repl, report = run_sweeper ~config aig [ f; g ] in
  check int "no bdd merges" 0 report.Sweep.Sweeper.bdd_merges;
  check bool "sat merges found" true (report.Sweep.Sweeper.sat_merges > 0);
  check int "f and g merged by SAT" (Aig.rebuild aig ~repl f) (Aig.rebuild aig ~repl g)

let test_sweeper_directions_agree () =
  let build () =
    let aig = Aig.create () in
    let xs = List.init 4 (Aig.var aig) in
    let sum1 =
      List.fold_left (Aig.xor_ aig) Aig.false_ xs
    in
    let sum2 =
      List.fold_right (fun x acc -> Aig.xor_ aig acc x) xs Aig.false_
    in
    (aig, Aig.and_ aig sum1 (List.hd xs), Aig.and_ aig sum2 (List.hd xs))
  in
  let run direction =
    let aig, f, g = build () in
    let config = { Sweep.Sweeper.default with sat = Some direction; bdd_node_limit = 0 } in
    let repl, _ = run_sweeper ~config aig [ f; g ] in
    let f' = Aig.rebuild aig ~repl f and g' = Aig.rebuild aig ~repl g in
    (aig, f, f', g, g')
  in
  let aig_f, f, f', g, g' = run Sweep.Sweeper.Forward in
  check bool "forward: f preserved" true (semantically_equal aig_f 4 f f');
  check bool "forward: g preserved" true (semantically_equal aig_f 4 g g');
  check int "forward merges the roots" f' g';
  let aig_b, f, f', g, g' = run Sweep.Sweeper.Backward in
  check bool "backward: f preserved" true (semantically_equal aig_b 4 f f');
  check bool "backward: g preserved" true (semantically_equal aig_b 4 g g');
  check int "backward merges the roots" f' g'

let test_sweeper_no_false_merges () =
  (* functions that agree on most but not all inputs must stay distinct *)
  let aig = Aig.create () in
  let xs = List.init 4 (Aig.var aig) in
  let conj = Aig.and_list aig xs in
  let almost = Aig.and_list aig (List.tl xs) in
  let repl, _ = run_sweeper aig [ conj; almost ] in
  let c' = Aig.rebuild aig ~repl conj and a' = Aig.rebuild aig ~repl almost in
  check bool "conj preserved" true (semantically_equal aig 4 conj c');
  check bool "almost preserved" true (semantically_equal aig 4 almost a');
  check bool "no false merge" true (c' <> a')

let test_sweeper_report_consistency () =
  let aig, f, g, _, _ = make_redundant_pair () in
  let _, report = run_sweeper aig [ f; g ] in
  check bool "cone size positive" true (report.Sweep.Sweeper.cone_size > 0);
  check bool "calls >= merges" true
    (report.Sweep.Sweeper.sat_calls >= report.Sweep.Sweeper.sat_merges);
  check bool "total >= sat merges" true
    (report.Sweep.Sweeper.total_merges >= report.Sweep.Sweeper.sat_merges)

let test_sweep_lits_wrapper () =
  let aig, f, g, _, _ = make_redundant_pair () in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 7 in
  let lits, _ = Sweep.Sweeper.sweep_lits aig checker ~prng [ f; g ] in
  match lits with
  | [ f'; g' ] ->
    check bool "wrapper preserves f" true (semantically_equal aig 3 f f');
    check bool "wrapper preserves g" true (semantically_equal aig 3 g g')
  | _ -> Alcotest.fail "expected two literals"

(* ---------- property: sweeping never changes semantics ---------- *)

let nvars = 4
let build = Gen_util.build_aig
let qc_pair = Gen_util.qc_pair nvars

let sweeping_preserves_semantics =
  QCheck.Test.make ~name:"sweeping preserves both roots" ~count:60 qc_pair (fun (e1, e2) ->
      let aig = Aig.create () in
      let f = build aig e1 and g = build aig e2 in
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 9 in
      let repl, _ = Sweep.Sweeper.run aig checker ~prng ~roots:[ f; g ] in
      semantically_equal aig nvars f (Aig.rebuild aig ~repl f)
      && semantically_equal aig nvars g (Aig.rebuild aig ~repl g))

let merges_are_equivalences =
  QCheck.Test.make ~name:"every individual merge is a true equivalence" ~count:60 qc_pair
    (fun (e1, e2) ->
      let aig = Aig.create () in
      let f = build aig e1 and g = build aig e2 in
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 11 in
      let repl, _ = Sweep.Sweeper.run aig checker ~prng ~roots:[ f; g ] in
      List.for_all
        (fun n ->
          let r = repl n in
          r = Aig.lit_of_node n || semantically_equal aig nvars (Aig.lit_of_node n) r)
        (Aig.cone aig [ f; g ]))

let () =
  Alcotest.run "sweep"
    [
      ( "simulation",
        [
          Alcotest.test_case "candidate classes" `Quick test_sim_candidates;
          Alcotest.test_case "refinement splits" `Quick test_sim_refine_splits;
          Alcotest.test_case "constant candidates" `Quick test_sim_constant_class;
        ] );
      ( "bdd sweeping",
        [
          Alcotest.test_case "finds true merges" `Quick test_bdd_sweep_finds_merges;
          Alcotest.test_case "quota abort" `Quick test_bdd_sweep_quota;
          Alcotest.test_case "constant detection" `Quick test_bdd_sweep_constant_detection;
        ] );
      ( "sweeper",
        [
          Alcotest.test_case "end to end" `Quick test_sweeper_end_to_end;
          Alcotest.test_case "sat-only configuration" `Quick test_sweeper_sat_only;
          Alcotest.test_case "forward and backward agree" `Quick test_sweeper_directions_agree;
          Alcotest.test_case "no false merges" `Quick test_sweeper_no_false_merges;
          Alcotest.test_case "report consistency" `Quick test_sweeper_report_consistency;
          Alcotest.test_case "sweep_lits wrapper" `Quick test_sweep_lits_wrapper;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest sweeping_preserves_semantics;
          QCheck_alcotest.to_alcotest merges_are_equivalences;
        ] );
    ]
