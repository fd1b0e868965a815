(* Core-library tests: quantification (against the BDD oracle, the
   Shannon disjunction and the definition), partial quantification,
   pre-image, unrolling, traces, and the full backward-reachability engine
   against the family oracles. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let eval_mask aig l mask = Aig.eval aig l (fun v -> (mask lsr v) land 1 = 1)

let semantically_equal aig nvars a b =
  let rec go mask =
    mask >= 1 lsl nvars || (eval_mask aig a mask = eval_mask aig b mask && go (mask + 1))
  in
  go 0

let setup () =
  let aig = Aig.create () in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 21 in
  (aig, checker, prng)

(* ---------- quantify ---------- *)

let test_quantify_definition () =
  let aig, checker, prng = setup () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  let f = Aig.or_ aig (Aig.and_ aig x y) (Aig.and_ aig (Aig.not_ x) z) in
  let result, report = Cbq.Quantify.one aig checker ~prng f 0 in
  (match result with
  | Ok q ->
    (* ∃x.f = y | z *)
    check bool "exists x" true (semantically_equal aig 3 q (Aig.or_ aig y z));
    check bool "variable gone" false (Aig.depends_on aig q 0)
  | Error _ -> Alcotest.fail "unexpected abort");
  check bool "report sizes sane" true
    (report.Cbq.Quantify.size_cof0 >= 0 && report.Cbq.Quantify.size_naive >= 0)

let test_quantify_free_variable () =
  let aig, checker, prng = setup () in
  let y = Aig.var aig 1 in
  let result, report = Cbq.Quantify.one aig checker ~prng y 0 in
  check bool "free variable is identity" true (result = Ok y);
  check bool "not aborted" false report.Cbq.Quantify.aborted

let test_quantify_to_constant () =
  let aig, checker, prng = setup () in
  let x = Aig.var aig 0 in
  (* ∃x. x = true *)
  (match Cbq.Quantify.one aig checker ~prng x 0 with
  | Ok q, _ -> check int "exists x. x" Aig.true_ q
  | Error _, _ -> Alcotest.fail "abort");
  (* ∃x. x & y = y *)
  let y = Aig.var aig 1 in
  match Cbq.Quantify.one aig checker ~prng (Aig.and_ aig x y) 0 with
  | Ok q, _ -> check int "exists x. x&y" y q
  | Error _, _ -> Alcotest.fail "abort"

let test_quantify_abort_budget () =
  let aig, checker, prng = setup () in
  (* a function whose quantification genuinely grows: parity-of-products *)
  let xs = List.init 8 (Aig.var aig) in
  let f =
    match xs with
    | x0 :: rest ->
      List.fold_left
        (fun acc x -> Aig.xor_ aig acc (Aig.and_ aig x0 x))
        x0 rest
    | [] -> assert false
  in
  let config =
    { Cbq.Quantify.default with growth_limit = 0.0; growth_slack = 0; use_dontcare = false }
  in
  let result, report = Cbq.Quantify.one ~config aig checker ~prng f 0 in
  (match result with
  | Error naive ->
    (* the rejected literal is still a correct quantification *)
    check bool "rejected result is still ∃x.f" true
      (semantically_equal aig 8 naive
         (Aig.or_ aig
            (Aig.cofactor aig f ~v:0 ~phase:false)
            (Aig.cofactor aig f ~v:0 ~phase:true)))
  | Ok q ->
    (* zero budget can still succeed if the result is constant *)
    check bool "only constants fit a zero budget" true (Aig.is_const q));
  ignore report

(* the optimization phase is off by default (the merged disjunction
   always fits the default growth budget) and runs under [use_dontcare] *)
let test_quantify_dontcare_opt_in () =
  let aig, checker, prng = setup () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  let f = Aig.or_ aig (Aig.and_ aig x y) (Aig.and_ aig (Aig.not_ x) z) in
  let optimized config =
    let result, report = Cbq.Quantify.one ~config aig checker ~prng f 0 in
    check bool "still exact" true
      (semantically_equal aig 3 (Result.fold ~ok:Fun.id ~error:Fun.id result) (Aig.or_ aig y z));
    report.Cbq.Quantify.dc_report <> None
  in
  check bool "default: skipped" false (optimized Cbq.Quantify.default);
  check bool "use_dontcare: runs" true
    (optimized { Cbq.Quantify.default with use_dontcare = true })

let test_quantify_all_partition () =
  let aig, checker, prng = setup () in
  let xs = List.init 6 (Aig.var aig) in
  let f = Aig.and_list aig xs in
  let r = Cbq.Quantify.all aig checker ~prng f ~vars:[ 0; 2; 4 ] in
  check int "all eliminated" 3 (List.length r.Cbq.Quantify.eliminated);
  check (Alcotest.list int) "none kept" [] r.Cbq.Quantify.kept;
  (* ∃x0,x2,x4. conj = x1 & x3 & x5 *)
  let expected = Aig.and_list aig [ List.nth xs 1; List.nth xs 3; List.nth xs 5 ] in
  check bool "remaining conjunction" true (semantically_equal aig 6 r.Cbq.Quantify.lit expected);
  (* eliminated variables are really gone *)
  List.iter
    (fun v -> check bool "support clean" false (Aig.depends_on aig r.Cbq.Quantify.lit v))
    [ 0; 2; 4 ]

let test_quantify_all_partial () =
  let aig, checker, prng = setup () in
  let xs = List.init 8 (Aig.var aig) in
  let x0 = List.hd xs in
  (* x0 entangled with everything: expensive; x7 trivial *)
  let f =
    Aig.and_ aig
      (List.fold_left (fun acc x -> Aig.xor_ aig acc (Aig.and_ aig x0 x)) x0 (List.tl xs))
      (List.nth xs 7)
  in
  let config =
    { Cbq.Quantify.default with growth_limit = 0.0; growth_slack = 2; use_dontcare = false;
      greedy_order = false }
  in
  let r = Cbq.Quantify.all ~config aig checker ~prng f ~vars:[ 0 ] in
  (* with the tiny budget the hard variable should be kept *)
  check bool "hard variable kept or result tiny" true
    (r.Cbq.Quantify.kept = [ 0 ] || Aig.size aig r.Cbq.Quantify.lit <= 2)

let test_naive_config_never_aborts () =
  let aig, checker, prng = setup () in
  let xs = List.init 6 (Aig.var aig) in
  let f = List.fold_left (Aig.xor_ aig) Aig.false_ xs in
  let naive =
    Cbq.Quantify.all ~config:Cbq.Quantify.naive_config aig checker ~prng f
      ~vars:[ 0; 1; 2 ]
  in
  check (Alcotest.list int) "nothing kept" [] naive.Cbq.Quantify.kept;
  (* ∃ of any parity variable is the constant true; the naive config only
     guarantees semantic correctness... *)
  (match Cnf.Checker.equal checker naive.Cbq.Quantify.lit Aig.true_ with
  | Cnf.Checker.Yes -> ()
  | Cnf.Checker.No | Cnf.Checker.Maybe -> Alcotest.fail "naive result not equivalent to true");
  (* ...while the full pipeline detects the constant structurally *)
  let full = Cbq.Quantify.all aig checker ~prng f ~vars:[ 0; 1; 2 ] in
  check int "full pipeline collapses parity to true" Aig.true_ full.Cbq.Quantify.lit

(* quantification against the BDD oracle on random expressions *)
let nvars = 4
let build_aig = Gen_util.build_aig
let build_bdd = Gen_util.build_bdd
let qc_expr = Gen_util.qc_expr nvars

(* the randomized pipeline checks run the default and, since it is off by
   default, the optimization phase as well *)
let pipeline_configs =
  [ Cbq.Quantify.default; { Cbq.Quantify.default with use_dontcare = true } ]

let quantify_matches_bdd_oracle =
  QCheck.Test.make ~name:"CBQ quantification = BDD exists" ~count:80 qc_expr (fun e ->
      let man = Bdd.create () in
      let qb = Bdd.exists man (fun v -> v <= 1) (build_bdd man e) in
      List.for_all
        (fun config ->
          let aig = Aig.create () in
          let checker = Cnf.Checker.create aig in
          let prng = Util.Prng.create 29 in
          let f = build_aig aig e in
          let r = Cbq.Quantify.all ~config aig checker ~prng f ~vars:[ 0; 1 ] in
          r.Cbq.Quantify.kept = []
          &&
          let rec go mask =
            mask >= 1 lsl nvars
            || eval_mask aig r.Cbq.Quantify.lit mask
               = Bdd.eval man qb (fun v -> (mask lsr v) land 1 = 1)
               && go (mask + 1)
          in
          go 0)
        pipeline_configs)

let quantified_support_clean =
  QCheck.Test.make ~name:"eliminated variables leave the support" ~count:80 qc_expr (fun e ->
      List.for_all
        (fun config ->
          let aig = Aig.create () in
          let checker = Cnf.Checker.create aig in
          let prng = Util.Prng.create 31 in
          let f = build_aig aig e in
          let r = Cbq.Quantify.all ~config aig checker ~prng f ~vars:[ 0; 1; 2 ] in
          List.for_all (fun v -> not (Aig.depends_on aig r.Cbq.Quantify.lit v))
            r.Cbq.Quantify.eliminated)
        pipeline_configs)

(* one variable against the Shannon disjunction itself, under a finite
   growth budget: an elimination clears the variable from the support,
   and an abort still carries a literal equivalent to ∃v.f *)
let quantify_matches_shannon =
  let nvars = 5 in
  let config = { Cbq.Quantify.naive_config with growth_limit = 4.0; growth_slack = 64 } in
  QCheck.Test.make ~count:200 ~name:"one var = Shannon disjunction"
    (QCheck.pair (Gen_util.qc_expr ~size:14 nvars) QCheck.(int_bound (nvars - 1)))
    (fun (e, v) ->
      let aig = Aig.create () in
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create 11 in
      let f = build_aig aig e in
      let shannon =
        Aig.or_ aig (Aig.cofactor aig f ~v ~phase:false) (Aig.cofactor aig f ~v ~phase:true)
      in
      match Cbq.Quantify.one ~config aig checker ~prng f v with
      | Ok q, _ -> semantically_equal aig nvars q shannon && not (Aig.depends_on aig q v)
      | Error naive, _ -> semantically_equal aig nvars naive shannon)

(* ---------- unroll ---------- *)

let test_unroll_counter () =
  let m = Circuits.Families.counter ~bits:3 in
  let aig = Netlist.Model.aig m in
  let u = Cbq.Unroll.create m in
  (* state at frame 0 is the all-zero init *)
  List.iter
    (fun v -> check int "frame-0 state" Aig.false_ (Cbq.Unroll.state_lit u ~frame:0 v))
    (Netlist.Model.state_vars m);
  (* frame 2 state depends exactly on the two first frame inputs *)
  let s2 = Cbq.Unroll.state_lit u ~frame:2 (List.hd (Netlist.Model.state_vars m)) in
  let support = Aig.support aig s2 in
  let frame0 = List.map snd (Cbq.Unroll.frame_inputs u ~frame:0) in
  let frame1 = List.map snd (Cbq.Unroll.frame_inputs u ~frame:1) in
  check bool "support within frame inputs" true
    (List.for_all (fun v -> List.mem v (frame0 @ frame1)) support);
  (* bad_at 0 is unsatisfiable (counter starts at 0), bad_at 7 is not *)
  let checker = Cnf.Checker.create aig in
  check bool "bad at 0 impossible" true
    (Cnf.Checker.satisfiable checker [ Cbq.Unroll.bad_at u 0 ] = Cnf.Checker.No);
  check bool "bad at 6 impossible" true
    (Cnf.Checker.satisfiable checker [ Cbq.Unroll.bad_at u 6 ] = Cnf.Checker.No);
  check bool "bad at 7 reachable" true
    (Cnf.Checker.satisfiable checker [ Cbq.Unroll.bad_at u 7 ] = Cnf.Checker.Yes)

let test_unroll_trace_from_model () =
  let m = Circuits.Families.counter ~bits:3 in
  let aig = Netlist.Model.aig m in
  let u = Cbq.Unroll.create m in
  let checker = Cnf.Checker.create aig in
  (match Cbq.Unroll.cex_at u checker ~target:(Cbq.Unroll.bad_at u 7) ~depth:7 with
  | Cbq.Unroll.Cex t ->
    check int "trace length" 7 (Cbq.Trace.length t);
    check bool "trace is genuine" true (Cbq.Trace.check m t)
  | Cbq.Unroll.Proof | Cbq.Unroll.Deeper | Cbq.Unroll.Maybe -> Alcotest.fail "expected sat")

(* ---------- trace ---------- *)

let test_trace_roundtrip () =
  let m = Circuits.Families.counter ~bits:2 in
  (* 3 enabled steps reach 3 = bad *)
  let frames = Array.make 3 (fun _ -> true) in
  let t = Cbq.Trace.of_inputs m frames in
  check int "length" 3 (Cbq.Trace.length t);
  check bool "valid counterexample" true (Cbq.Trace.check m t);
  (* a corrupted state sequence is rejected *)
  let bad_states = Array.copy t.Cbq.Trace.states in
  bad_states.(1) <- List.map (fun (v, b) -> (v, not b)) bad_states.(1);
  let corrupted = { t with Cbq.Trace.states = bad_states } in
  check bool "corrupted trace rejected" false (Cbq.Trace.check m corrupted);
  (* a trace ending in a good state is not a counterexample *)
  let short = Cbq.Trace.of_inputs m (Array.make 1 (fun _ -> true)) in
  check bool "good final state rejected" false (Cbq.Trace.check m short)

(* ---------- preimage ---------- *)

let test_preimage_counter () =
  let m = Circuits.Families.counter ~bits:3 in
  let aig = Netlist.Model.aig m in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 51 in
  (* frontier = the all-ones state *)
  let bad = Aig.not_ m.Netlist.Model.property in
  let pre = Cbq.Preimage.compute m checker ~prng ~frontier:bad ~extra_vars:[] in
  check (Alcotest.list int) "inputs eliminated" [] pre.Cbq.Preimage.kept;
  (* predecessors of 111 are 110 (with enable) and 111 (without) *)
  let state_vars = Netlist.Model.state_vars m in
  let as_state value v =
    let idx = Option.get (List.find_index (fun w -> w = v) state_vars) in
    (value lsr idx) land 1 = 1
  in
  let eval_state value =
    Aig.eval aig pre.Cbq.Preimage.lit (as_state value)
  in
  check bool "110 is a predecessor" true (eval_state 0b011 || eval_state 0b110);
  check bool "111 is a predecessor" true (eval_state 0b111);
  check bool "000 is not" false (eval_state 0b000)

let test_preimage_exact_set () =
  (* cross-validate the pre-image semantics against explicit enumeration
     on a small model *)
  let m = Circuits.Families.fifo ~buggy:true ~depth_log:1 () in
  let aig = Netlist.Model.aig m in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 53 in
  let bad = Aig.not_ m.Netlist.Model.property in
  let pre = Cbq.Preimage.compute m checker ~prng ~frontier:bad ~extra_vars:[] in
  check bool "fully quantified" true (pre.Cbq.Preimage.kept = []);
  let state_vars = Netlist.Model.state_vars m in
  let input_vars = Netlist.Model.input_vars m in
  let n = List.length state_vars in
  (* enumeration oracle: s is a predecessor iff some input drives it into
     a bad state *)
  for s = 0 to (1 lsl n) - 1 do
    let state v =
      match List.find_index (fun w -> w = v) state_vars with
      | Some i -> (s lsr i) land 1 = 1
      | None -> false
    in
    let expected =
      List.exists
        (fun i ->
          let inputs v =
            match List.find_index (fun w -> w = v) input_vars with
            | Some k -> (i lsr k) land 1 = 1
            | None -> false
          in
          let next = Netlist.Model.eval_step m ~state ~inputs in
          not (Netlist.Model.property_holds m ~state:next))
        (List.init (1 lsl List.length input_vars) Fun.id)
    in
    check bool (Printf.sprintf "state %d" s) expected (Aig.eval aig pre.Cbq.Preimage.lit state)
  done

(* ---------- reachability vs oracles ---------- *)

let reach_families =
  [
    ("counter", Some 3);
    ("counter-even", Some 4);
    ("twin-shift", Some 4);
    ("shift-pattern", Some 4);
    ("lfsr", Some 4);
    ("fifo", Some 2);
    ("fifo-buggy", Some 2);
    ("accumulator", Some 3);
    ("gray", Some 3);
    ("arbiter", Some 3);
    ("traffic", None);
    ("peterson", None);
  ]

let test_reachability_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Cbq.Reachability.run model in
      match (r.Cbq.Reachability.verdict, status) with
      | Cbq.Verdict.Proved, Circuits.Registry.Safe -> ()
      | Cbq.Verdict.Falsified depth, Circuits.Registry.Unsafe expected ->
        check int (name ^ " depth") expected depth;
        (match r.Cbq.Reachability.trace with
        | Some t ->
          check bool (name ^ " trace valid") true (Cbq.Trace.check model t);
          check int (name ^ " trace length") expected (Cbq.Trace.length t)
        | None -> Alcotest.fail (name ^ ": missing trace"))
      | v, _ ->
        Alcotest.fail
          (Format.asprintf "%s: unexpected verdict %a" name Cbq.Verdict.pp v))
    reach_families

let test_reachability_profile () =
  let model, _ = Circuits.Registry.build "counter" (Some 3) in
  let r = Cbq.Reachability.run model in
  check int "iteration count = depth" 7 (List.length r.Cbq.Reachability.iterations);
  List.iter
    (fun it ->
      check bool "reached grows" true (it.Cbq.Reachability.reached_size >= 0);
      check bool "inputs fully eliminated each step" true (it.Cbq.Reachability.kept_inputs = 0))
    r.Cbq.Reachability.iterations;
  check bool "peak recorded" true (r.Cbq.Reachability.peak_frontier > 0);
  check bool "queries recorded" true (r.Cbq.Reachability.sat_queries > 0)

let test_reachability_naive_variant () =
  (* even the no-optimization configuration must be sound, just bigger *)
  let config = { Cbq.Reachability.default with quant = Cbq.Quantify.naive_config } in
  let model, _ = Circuits.Registry.build "accumulator" (Some 3) in
  let r = Cbq.Reachability.run ~config model in
  match r.Cbq.Reachability.verdict with
  | Cbq.Verdict.Falsified depth -> check int "naive agrees" 3 depth
  | _ -> Alcotest.fail "expected falsification"

(* ---------- golden traversals ---------- *)

(* Both CBQ directions, cofactor and hybrid share one frame loop; these
   pins hold each engine to the verdicts and per-frame profiles (frontier
   size, eliminated and kept inputs) it produced with its own loop,
   including a conflict governor tight enough to degrade the run. Every
   proof must certify and every counterexample must replay. *)
let golden_traversals =
  [
    ("bwd", "counter", Some 3, `Plain, "FALSIFIED(7)",
     [ (9, 1, 0); (13, 1, 0); (16, 1, 0); (17, 1, 0); (10, 1, 0); (14, 1, 0); (17, 1, 0) ]);
    ("bwd", "fifo-buggy", Some 2, `Plain, "FALSIFIED(5)",
     [ (0, 2, 0); (19, 2, 0); (18, 2, 0); (2, 2, 0); (20, 2, 0) ]);
    ("bwd", "counter-even", Some 4, `Plain, "PROVED", [ (0, 1, 0) ]);
    ("bwd", "gray", Some 3, `Plain, "PROVED", [ (0, 1, 0) ]);
    ("bwd", "shift-pattern", Some 4, `Plain, "FALSIFIED(4)",
     [ (2, 1, 0); (1, 1, 0); (3, 1, 0); (1, 1, 0) ]);
    ("bwd", "arbiter", Some 3, `Plain, "PROVED", [ (4, 3, 0); (4, 3, 0) ]);
    (* the optimization phase runs only over the growth budget, so the
       3-conflict pool lasts to a decision *)
    ("bwd", "counter", Some 4, `Conflicts 3, "FALSIFIED(15)",
     [ (13, 1, 0); (20, 1, 0); (26, 1, 0); (30, 1, 0); (34, 1, 0); (38, 1, 0); (42, 1, 0);
       (43, 1, 0); (14, 1, 0); (21, 1, 0); (27, 1, 0); (31, 1, 0); (35, 1, 0); (39, 1, 0);
       (43, 1, 0) ]);
    ("bwd", "twin-shift", Some 4, `Conflicts 10, "PROVED", [ (11, 0, 0) ]);
    ("fwd", "counter", Some 3, `Plain, "FALSIFIED(7)",
     [ (5, 4, 0); (5, 4, 0); (5, 4, 0); (5, 4, 0); (5, 4, 0); (5, 4, 0); (5, 4, 0) ]);
    ("fwd", "fifo-buggy", Some 2, `Plain, "FALSIFIED(5)",
     [ (5, 5, 0); (9, 5, 0); (9, 5, 0); (9, 5, 0); (9, 5, 0) ]);
    ("fwd", "counter-even", Some 4, `Plain, "PROVED",
     [ (7, 5, 0); (7, 5, 0); (7, 5, 0); (7, 5, 0); (7, 5, 0); (7, 5, 0); (7, 5, 0); (7, 5, 0) ]);
    ("fwd", "gray", Some 3, `Plain, "PROVED",
     [ (11, 7, 0); (11, 7, 0); (20, 7, 0); (21, 7, 0); (19, 7, 0); (21, 7, 0); (20, 7, 0);
       (21, 7, 0); (19, 7, 0) ]);
    ("fwd", "shift-pattern", Some 4, `Plain, "FALSIFIED(4)",
     [ (7, 5, 0); (7, 5, 0); (15, 5, 0); (0, 5, 0) ]);
    ("fwd", "arbiter", Some 3, `Plain, "PROVED",
     [ (9, 9, 0); (8, 9, 0); (4, 9, 0); (9, 9, 0) ]);
    (* the target test asks bad∧image (the backward order); with that
       assumption order the 3-conflict pool lasts to a decision *)
    ("fwd", "counter", Some 4, `Conflicts 3, "FALSIFIED(15)",
     List.init 15 (fun _ -> (7, 5, 0)));
    ("fwd", "twin-shift", Some 4, `Conflicts 10, "UNDECIDED(conflict pool)",
     [ (15, 9, 0); (15, 9, 0); (31, 9, 0) ]);
    (* cofactor and hybrid are backward directions whose step finishes
       the pre-image by enumeration, so every frame keeps nothing *)
    ("cofactor", "counter", Some 3, `Plain, "FALSIFIED(7)",
     [ (9, 1, 0); (17, 1, 0); (30, 1, 0); (46, 1, 0); (65, 1, 0); (87, 1, 0); (112, 1, 0) ]);
    (* enumeration draws its cubes from SAT models, so these frontier
       sizes follow the solver's search order *)
    ("cofactor", "fifo-buggy", Some 2, `Plain, "FALSIFIED(5)",
     [ (18, 2, 0); (88, 2, 0); (304, 2, 0); (970, 2, 0); (1998, 2, 0) ]);
    ("cofactor", "arbiter", Some 3, `Plain, "PROVED", [ (4, 3, 0); (4, 3, 0) ]);
    ("cofactor", "gray", Some 3, `Plain, "PROVED", [ (0, 1, 0) ]);
    (* the pool runs dry inside frame 1's enumeration *)
    ("cofactor", "counter", Some 4, `Conflicts 3, "UNDECIDED(conflict pool)", []);
    ("hybrid", "counter", Some 3, `Plain, "FALSIFIED(7)",
     [ (8, 1, 0); (12, 1, 0); (15, 1, 0); (13, 1, 0); (16, 1, 0); (12, 1, 0); (16, 1, 0) ]);
    ("hybrid", "fifo-buggy", Some 2, `Plain, "FALSIFIED(5)",
     [ (0, 2, 0); (7, 2, 0); (17, 2, 0); (20, 2, 0); (2, 2, 0) ]);
    ("hybrid", "arbiter", Some 3, `Plain, "PROVED", [ (4, 3, 0); (4, 3, 0) ]);
    ("hybrid", "gray", Some 3, `Plain, "PROVED", [ (0, 1, 0) ]);
    (* hybrid's optimization phase draws on the pool too *)
    ("hybrid", "counter", Some 4, `Conflicts 3, "UNDECIDED(conflict pool)",
     [ (12, 1, 0); (19, 1, 0); (25, 1, 0); (29, 1, 0); (33, 1, 0); (37, 1, 0); (41, 1, 0);
       (53, 1, 0) ]);
  ]

let test_golden_traversals () =
  List.iter
    (fun (dir, name, param, mode, verdict, frames) ->
      let model, _ = Circuits.Registry.build name param in
      let limits =
        match mode with
        | `Conflicts n -> Util.Limits.create ~max_conflicts:n ()
        | `Plain -> Util.Limits.unlimited
      in
      let r =
        match dir with
        | "bwd" -> Cbq.Reachability.run ~limits model
        | "fwd" -> Cbq.Forward.run ~limits model
        | "cofactor" -> (Baselines.Cofactor_preimage.run ~limits model).reach
        | "hybrid" -> (Baselines.Hybrid.run ~limits model).reach
        | _ -> Alcotest.fail ("unknown engine " ^ dir)
      in
      let label = Printf.sprintf "%s %s" dir name in
      check Alcotest.string (label ^ " verdict") verdict
        (Format.asprintf "%a" Cbq.Verdict.pp r.Cbq.Reachability.verdict);
      check
        Alcotest.(list (triple int int int))
        (label ^ " frames") frames
        (List.map
           (fun it ->
             Cbq.Reachability.(it.frontier_size, it.eliminated_inputs, it.kept_inputs))
           r.Cbq.Reachability.iterations);
      match Cbq.Reachability.(r.verdict, r.invariant, r.trace) with
      | Cbq.Verdict.Proved, Some invariant, _ ->
        check bool (label ^ " certificate") true (Cbq.Certify.check model ~invariant = Ok ())
      | Cbq.Verdict.Proved, None, _ -> Alcotest.fail (label ^ ": proved without a certificate")
      | Cbq.Verdict.Falsified depth, _, Some t ->
        check bool (label ^ " trace replays") true (Cbq.Trace.check model t);
        check int (label ^ " trace length") depth (Cbq.Trace.length t)
      | Cbq.Verdict.Falsified _, _, None ->
        (* only a drained pool may keep the hit frame's query from
           rebuilding it *)
        if mode = `Plain then
          Alcotest.fail (label ^ ": falsified without a trace")
      | Cbq.Verdict.Undecided _, _, _ -> ())
    golden_traversals

let () =
  Alcotest.run "cbq"
    [
      ( "quantify",
        [
          Alcotest.test_case "definition" `Quick test_quantify_definition;
          Alcotest.test_case "free variable" `Quick test_quantify_free_variable;
          Alcotest.test_case "don't-care phase is opt-in" `Quick test_quantify_dontcare_opt_in;
          Alcotest.test_case "constant results" `Quick test_quantify_to_constant;
          Alcotest.test_case "abort budget" `Quick test_quantify_abort_budget;
          Alcotest.test_case "all: partition" `Quick test_quantify_all_partition;
          Alcotest.test_case "all: partial" `Quick test_quantify_all_partial;
          Alcotest.test_case "naive config total" `Quick test_naive_config_never_aborts;
          QCheck_alcotest.to_alcotest quantify_matches_bdd_oracle;
          QCheck_alcotest.to_alcotest quantify_matches_shannon;
          QCheck_alcotest.to_alcotest quantified_support_clean;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "counter frames" `Quick test_unroll_counter;
          Alcotest.test_case "trace extraction" `Quick test_unroll_trace_from_model;
        ] );
      ("trace", [ Alcotest.test_case "roundtrip and rejection" `Quick test_trace_roundtrip ]);
      ( "preimage",
        [
          Alcotest.test_case "counter predecessors" `Quick test_preimage_counter;
          Alcotest.test_case "exact set (enumeration oracle)" `Quick test_preimage_exact_set;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "all family oracles" `Slow test_reachability_oracles;
          Alcotest.test_case "profile sanity" `Quick test_reachability_profile;
          Alcotest.test_case "naive quantification variant" `Quick
            test_reachability_naive_variant;
          Alcotest.test_case "golden traversals, both directions" `Quick
            test_golden_traversals;
        ] );
    ]
