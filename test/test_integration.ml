(* Cross-engine integration tests: all engines must agree with each other
   on models none of them was tuned for — randomly mutated properties,
   AIGER-roundtripped models, and randomly generated machines. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* normalize every engine to (Proved | Falsified d | Undecided) *)
type outcome = P | F of int | U

let run_all ?(bmc_depth = 30) make_model =
  let of_verdict = function
    | Cbq.Verdict.Proved -> P
    | Cbq.Verdict.Falsified d -> F d
    | Cbq.Verdict.Undecided _ -> U
  in
  let cbq = of_verdict (Cbq.Reachability.run (make_model ())).Cbq.Reachability.verdict in
  let bdd = of_verdict (Baselines.Bdd_mc.backward (make_model ())).reach.Cbq.Reachability.verdict in
  let bmc =
    of_verdict
      (Baselines.Bmc.run ~max_depth:bmc_depth (make_model ())).Baselines.Bmc.search
        .Cbq.Unroll.verdict
  in
  let ind =
    of_verdict (Baselines.Induction.run ~max_k:25 (make_model ())).Cbq.Unroll.verdict
  in
  let cof =
    of_verdict
      (Baselines.Cofactor_preimage.run (make_model ())).Baselines.Cofactor_preimage.reach
        .Cbq.Reachability.verdict
  in
  [ ("cbq", cbq); ("bdd", bdd); ("bmc", bmc); ("induction", ind); ("cofactor", cof) ]

let consistent outcomes =
  (* all decided verdicts must agree (bmc can only falsify) *)
  let decided = List.filter (fun (_, o) -> o <> U) outcomes in
  match decided with
  | [] -> true
  | (_, first) :: rest -> List.for_all (fun (_, o) -> o = first) rest

let pp_outcomes outcomes =
  String.concat ", "
    (List.map
       (fun (n, o) ->
         Printf.sprintf "%s=%s" n
           (match o with P -> "proved" | F d -> Printf.sprintf "cex@%d" d | U -> "?"))
       outcomes)

(* ---------- random mutated properties on a known machine ---------- *)

(* the counter machine with the property "value != c": unsafe at depth c
   (for c > 0), so every engine's answer is predictable from c *)
let counter_avoiding bits c () =
  let b = Netlist.Builder.create (Printf.sprintf "counter-avoid-%d" c) in
  let aig = Netlist.Builder.aig b in
  let enable = Netlist.Builder.input b in
  let q = Netlist.Builder.latches b ~init:false bits in
  let inc = Circuits.Arith.add_const aig q 1 in
  List.iter2 (Netlist.Builder.connect b) q (Circuits.Arith.mux aig enable ~then_:inc ~else_:q);
  Netlist.Builder.set_property b (Aig.not_ (Circuits.Arith.equal_const aig q c));
  Netlist.Builder.finish b

let test_counter_avoiding_sweep () =
  let bits = 3 in
  for c = 1 to (1 lsl bits) - 1 do
    let outcomes = run_all (counter_avoiding bits c) in
    check bool (Printf.sprintf "c=%d consistent: %s" c (pp_outcomes outcomes)) true
      (consistent outcomes);
    (* every engine that decided must have found depth c *)
    List.iter
      (fun (n, o) ->
        match o with
        | F d -> check int (Printf.sprintf "c=%d %s depth" c n) c d
        | P -> Alcotest.fail (Printf.sprintf "c=%d: %s proved an unsafe model" c n)
        | U -> ())
      outcomes
  done

(* ---------- random machines ---------- *)

(* small random sequential machines: random next-state cones and a random
   property over latches; engines must agree pairwise *)
let random_machine seed () = Gen_util.random_machine seed ()

let test_random_machines_agree () =
  for seed = 1 to 25 do
    let outcomes = run_all (random_machine seed) in
    check bool (Printf.sprintf "seed %d: %s" seed (pp_outcomes outcomes)) true
      (consistent outcomes)
  done

(* the random machines have at most 2^5 states: BMC at depth 40 is
   complete for falsification, so "all undecided" can only mean safe —
   cross-check that cbq decides each instance *)
let test_random_machines_cbq_decides () =
  for seed = 1 to 25 do
    let model = random_machine seed () in
    match (Cbq.Reachability.run model).Cbq.Reachability.verdict with
    | Cbq.Verdict.Proved | Cbq.Verdict.Falsified _ -> ()
    | Cbq.Verdict.Undecided reason ->
      Alcotest.fail (Printf.sprintf "seed %d undecided: %s" seed reason)
  done

(* ---------- aiger roundtrip stability ---------- *)

let test_verdicts_survive_aiger_roundtrip () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let reread = Netlist.Aiger.read ~name:(name ^ "-reread") (Netlist.Aiger.write model) in
      let r = Cbq.Reachability.run reread in
      match (r.Cbq.Reachability.verdict, status) with
      | Cbq.Verdict.Proved, Circuits.Registry.Safe -> ()
      | Cbq.Verdict.Falsified depth, Circuits.Registry.Unsafe d ->
        check int (name ^ " depth after roundtrip") d depth
      | v, _ ->
        Alcotest.fail
          (Format.asprintf "%s: wrong verdict after roundtrip: %a" name Cbq.Verdict.pp v))
    [ ("counter", Some 3); ("fifo-buggy", Some 2); ("lfsr", Some 4); ("peterson", None) ]

(* ---------- traces cross-validate across engines ---------- *)

let test_bmc_trace_on_cbq_model () =
  (* a trace found by BMC replays on the model instance used by CBQ *)
  let model, _ = Circuits.Registry.build "accumulator" (Some 3) in
  let bmc = Baselines.Bmc.run ~max_depth:10 model in
  match bmc.Baselines.Bmc.search.Cbq.Unroll.trace with
  | Some t ->
    check bool "bmc trace valid" true (Cbq.Trace.check model t);
    let r = Cbq.Reachability.run model in
    (match (r.Cbq.Reachability.verdict, r.Cbq.Reachability.trace) with
    | Cbq.Verdict.Falsified depth, Some t' ->
      check int "same depth" (Cbq.Trace.length t) depth;
      check bool "cbq trace valid" true (Cbq.Trace.check model t')
    | _ -> Alcotest.fail "cbq should falsify")
  | None -> Alcotest.fail "bmc should find the bug"

(* ---------- partial quantification composes with SAT engines ---------- *)

let test_partial_quantification_preprocessing () =
  (* quantify away some arbiter inputs, then let BMC search for the
     (nonexistent) bug in the reduced problem: still no false alarm *)
  let model, _ = Circuits.Registry.build "arbiter" (Some 4) in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 71 in
  let bad = Aig.not_ model.Netlist.Model.property in
  let pre = Cbq.Preimage.compute model checker ~prng ~frontier:bad ~extra_vars:[] in
  check bool "some inputs eliminated" true (List.length pre.Cbq.Preimage.eliminated > 0);
  let r = Gen_util.bmc_to_frontier model ~frontier:pre.Cbq.Preimage.lit ~max_depth:10 in
  (* the pre-image of the (unreachable) bad set may itself be reachable
     only if the bad set is: the arbiter is safe, so any hit here would be
     at states outside the reachable set — BMC from the real initial
     states must find nothing *)
  match r.Cbq.Unroll.verdict with
  | Baselines.Verdict.Undecided _ -> ()
  | Baselines.Verdict.Falsified _ ->
    Alcotest.fail "reachable pre-image of an unreachable bad set"
  | Baselines.Verdict.Proved -> ()

let () =
  Alcotest.run "integration"
    [
      ( "cross-engine",
        [
          Alcotest.test_case "counter-avoiding sweep" `Slow test_counter_avoiding_sweep;
          Alcotest.test_case "random machines agree" `Slow test_random_machines_agree;
          Alcotest.test_case "cbq decides random machines" `Slow
            test_random_machines_cbq_decides;
        ] );
      ( "aiger",
        [
          Alcotest.test_case "verdicts survive roundtrip" `Slow
            test_verdicts_survive_aiger_roundtrip;
        ] );
      ( "traces",
        [ Alcotest.test_case "bmc and cbq traces agree" `Quick test_bmc_trace_on_cbq_model ] );
      ( "preprocessing",
        [
          Alcotest.test_case "partial quantification + BMC" `Quick
            test_partial_quantification_preprocessing;
        ] );
    ]
