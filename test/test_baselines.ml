(* Baseline-engine tests: every engine must agree with the family oracles,
   respect its resource limits, and produce replayable traces where it
   claims them. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let verdict_t =
  Alcotest.testable Baselines.Verdict.pp ( = )

let families =
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

let expect_verdict name (status : Circuits.Registry.status) (v : Baselines.Verdict.t) =
  match (status, v) with
  | Circuits.Registry.Safe, Baselines.Verdict.Proved -> ()
  | Circuits.Registry.Unsafe d, Baselines.Verdict.Falsified d' ->
    check int (name ^ " cex depth") d d'
  | _, v ->
    Alcotest.fail (Format.asprintf "%s: unexpected verdict %a" name Baselines.Verdict.pp v)

let test_verdict_helpers () =
  check bool "proved vs safe" true
    (Baselines.Verdict.agrees_with_oracle Baselines.Verdict.Proved ~safe:true ~depth:None);
  check bool "proved vs unsafe" false
    (Baselines.Verdict.agrees_with_oracle Baselines.Verdict.Proved ~safe:false ~depth:None);
  check bool "falsified depth match" true
    (Baselines.Verdict.agrees_with_oracle (Baselines.Verdict.Falsified 3) ~safe:false
       ~depth:(Some 3));
  check bool "falsified depth mismatch" false
    (Baselines.Verdict.agrees_with_oracle (Baselines.Verdict.Falsified 4) ~safe:false
       ~depth:(Some 3));
  check bool "undecided never wrong" true
    (Baselines.Verdict.agrees_with_oracle (Baselines.Verdict.Undecided "x") ~safe:true
       ~depth:None)

(* Every engine on the frame loop answers checkably: a counterexample
   replays with the verdict's length, and (over AIG sets) a proof's
   invariant certifies. *)
let expect_trace name model status (r : Cbq.Reachability.result) =
  expect_verdict name status r.verdict;
  match (r.verdict, r.trace) with
  | Baselines.Verdict.Falsified d, Some t ->
    check bool (name ^ " trace replays") true (Cbq.Trace.check model t);
    check int (name ^ " trace length") d (Cbq.Trace.length t)
  | Baselines.Verdict.Falsified _, None -> Alcotest.fail (name ^ ": missing trace")
  | (Baselines.Verdict.Proved | Baselines.Verdict.Undecided _), _ -> ()

let expect_checkable name model status (r : Cbq.Reachability.result) =
  expect_trace name model status r;
  match (r.verdict, r.invariant) with
  | Baselines.Verdict.Proved, Some invariant ->
    check bool (name ^ " certificate") true (Cbq.Certify.check model ~invariant = Ok ())
  | Baselines.Verdict.Proved, None -> Alcotest.fail (name ^ ": proved without a certificate")
  | (Baselines.Verdict.Falsified _ | Baselines.Verdict.Undecided _), _ -> ()

(* ---------- BDD engines ---------- *)

let test_bdd_backward_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Bdd_mc.backward model in
      expect_trace ("bdd-bwd " ^ name) model status r.reach)
    families

let test_bdd_forward_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Bdd_mc.forward model in
      expect_trace ("bdd-fwd " ^ name) model status r.reach)
    families

let test_bdd_node_limit () =
  (* a tiny quota must surface as Undecided, not a crash or wrong verdict *)
  let model, _ = Circuits.Registry.build "gray" (Some 5) in
  let r = Baselines.Bdd_mc.backward ~node_limit:50 model in
  check verdict_t "node limit reported" (Baselines.Verdict.Undecided "node limit") r.reach.verdict;
  check bool "peak within an order of the quota" true (r.bdd_nodes <= 100)

let test_bdd_iteration_profile () =
  let model, _ = Circuits.Registry.build "counter" (Some 3) in
  let r = Baselines.Bdd_mc.backward model in
  check int "iterations = depth" 7 (List.length r.reach.iterations);
  List.iter
    (fun (it : Cbq.Reachability.iteration) ->
      check bool "sizes recorded" true (it.frontier_size >= 0))
    r.reach.iterations

(* ---------- BMC ---------- *)

let test_bmc_finds_cex () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      match status with
      | Circuits.Registry.Safe -> ()
      | Circuits.Registry.Unsafe d ->
        let r = (Baselines.Bmc.run ~max_depth:(d + 5) model).Baselines.Bmc.search in
        expect_verdict ("bmc " ^ name) status r.Cbq.Unroll.verdict;
        (match r.Cbq.Unroll.trace with
        | Some t ->
          check bool (name ^ " trace replays") true (Cbq.Trace.check model t);
          check int (name ^ " trace length") d (Cbq.Trace.length t)
        | None -> Alcotest.fail (name ^ ": bmc should produce a trace")))
    families

let test_bmc_bound_respected () =
  let model, _ = Circuits.Registry.build "counter" (Some 4) in
  (* cex at 15; bound 5 must come back undecided *)
  let r = (Baselines.Bmc.run ~max_depth:5 model).Baselines.Bmc.search in
  (match r.Cbq.Unroll.verdict with
  | Baselines.Verdict.Undecided _ -> ()
  | v -> Alcotest.fail (Format.asprintf "expected bound, got %a" Baselines.Verdict.pp v));
  check bool "no trace below the bound" true (r.Cbq.Unroll.trace = None)

let test_bmc_with_frontier () =
  let model, _ = Circuits.Registry.build "counter" (Some 3) in
  let aig = Netlist.Model.aig model in
  (* frontier = counter value 5 (101) *)
  let state_vars = Netlist.Model.state_vars model in
  let lits =
    List.mapi
      (fun i v ->
        let q = Aig.var aig v in
        if (5 lsr i) land 1 = 1 then q else Aig.not_ q)
      state_vars
  in
  let frontier = Aig.and_list aig lits in
  let r = Gen_util.bmc_to_frontier model ~frontier ~max_depth:10 in
  (match r.Cbq.Unroll.verdict with
  | Baselines.Verdict.Falsified d -> check int "value 5 reached at step 5" 5 d
  | v -> Alcotest.fail (Format.asprintf "expected falsified, got %a" Baselines.Verdict.pp v))

(* ---------- induction ---------- *)

let test_induction_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Induction.run ~max_k:30 model in
      expect_verdict ("induction " ^ name) status r.Cbq.Unroll.verdict;
      match (status, r.Cbq.Unroll.trace) with
      | Circuits.Registry.Unsafe d, Some t ->
        check bool (name ^ " trace replays") true (Cbq.Trace.check model t);
        check int (name ^ " trace length") d (Cbq.Trace.length t)
      | Circuits.Registry.Unsafe _, None -> Alcotest.fail (name ^ ": missing trace")
      | Circuits.Registry.Safe, _ -> ())
    families

let test_induction_k_zero_inductive () =
  (* the even counter's property is inductive at k = 0 *)
  let model, _ = Circuits.Registry.build "counter-even" (Some 4) in
  let r = Baselines.Induction.run model in
  check verdict_t "proved" Baselines.Verdict.Proved r.Cbq.Unroll.verdict;
  check int "k = 0 suffices" 0 r.Cbq.Unroll.depth

let test_induction_needs_depth () =
  (* a deliberately non-0-inductive safe model: two latches, bit0 toggles,
     bit1 holds; property "state != 2". The unreachable state 3 satisfies
     the property but steps into state 2, so k = 0 fails; its only
     predecessor violates the property, so k = 1 with simple paths
     succeeds. *)
  let b = Netlist.Builder.create "toggle-hold" in
  let aig = Netlist.Builder.aig b in
  let q0 = Netlist.Builder.latch b ~init:false in
  let q1 = Netlist.Builder.latch b ~init:false in
  Netlist.Builder.connect b q0 (Aig.not_ q0);
  Netlist.Builder.connect b q1 q1;
  Netlist.Builder.set_property b (Aig.not_ (Aig.and_ aig q1 (Aig.not_ q0)));
  let model = Netlist.Builder.finish b in
  let r = Baselines.Induction.run ~max_k:10 model in
  check verdict_t "proved" Baselines.Verdict.Proved r.Cbq.Unroll.verdict;
  check bool "k > 0 needed" true (r.Cbq.Unroll.depth > 0)

(* ---------- cofactor pre-image and hybrid ---------- *)

let test_cofactor_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Cofactor_preimage.run model in
      expect_checkable ("cofactor " ^ name) model status r.reach)
    families

let test_cofactor_preimage_matches_cbq () =
  (* the enumerated pre-image and the circuit-quantified pre-image are the
     same set *)
  let model, _ = Circuits.Registry.build "fifo-buggy" (Some 2) in
  let aig = Netlist.Model.aig model in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 61 in
  let bad = Aig.not_ model.Netlist.Model.property in
  let cbq = Cbq.Preimage.compute model checker ~prng ~frontier:bad ~extra_vars:[] in
  check bool "cbq fully quantified" true (cbq.Cbq.Preimage.kept = []);
  let input_vars = Netlist.Model.input_vars model in
  let inlined = Cbq.Preimage.substitute model bad in
  let kept = List.filter (fun v -> List.mem v input_vars) (Aig.support aig inlined) in
  let used = ref 0 in
  match
    Baselines.Cofactor_preimage.enumerate checker ~limit:1_000 ~used
      { lit = inlined; eliminated = []; kept; reports = [] }
  with
  | Error why -> Alcotest.fail ("enumeration should finish: " ^ why)
  | Ok enumerated ->
    check bool "enumeration used solutions" true (!used > 0);
    check bool "every input eliminated" true
      (enumerated.kept = [] && List.sort compare enumerated.eliminated = List.sort compare kept);
    (match Cnf.Checker.equal checker enumerated.lit cbq.Cbq.Preimage.lit with
    | Cnf.Checker.Yes -> ()
    | Cnf.Checker.No | Cnf.Checker.Maybe -> Alcotest.fail "pre-images differ")

let test_cofactor_budget () =
  let model, _ = Circuits.Registry.build "arbiter" (Some 4) in
  let r = Baselines.Cofactor_preimage.run ~max_enumerations:1 model in
  match r.reach.verdict with
  | Baselines.Verdict.Undecided why ->
    check Alcotest.string "names the budget" "enumeration budget" why
  | Baselines.Verdict.Proved ->
    (* a 1-enumeration budget can only succeed if the bad set was empty *)
    check int "only possible with zero enumerations" 0 r.enumerations
  | Baselines.Verdict.Falsified _ -> Alcotest.fail "arbiter is safe"

let test_hybrid_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Baselines.Hybrid.run model in
      expect_checkable ("hybrid " ^ name) model status r.reach)
    families

let test_hybrid_division_of_labour () =
  let model, _ = Circuits.Registry.build "arbiter" (Some 4) in
  let r = Baselines.Hybrid.run model in
  check verdict_t "proved" Baselines.Verdict.Proved r.reach.verdict;
  (* CBQ takes the cheap inputs, so enumeration needs no more solutions
     than pure enumeration does, and finishes every frame *)
  let pure, _ = Circuits.Registry.build "arbiter" (Some 4) in
  let c = Baselines.Cofactor_preimage.run pure in
  check bool "no more enumerations than pure enumeration" true
    (r.enumerations <= c.enumerations);
  List.iter
    (fun it -> check int "nothing left unquantified" 0 it.Cbq.Reachability.kept_inputs)
    r.reach.iterations

(* ---------- the whole suite ---------- *)

(* A property that reads an input: latches s1, s2 both load x, and the
   bad states are s1 ∧ s2 ∧ ¬x, reached at depth 1 (x = 1 then 0). When
   the bad-state quantification keeps x, the kept copy must not become
   frame 1's own input, or the first pre-image computes ∃x.¬P(δ(s,x),x)
   = false and the traversal proves an unsafe model. *)
let property_input_model () =
  let b = Netlist.Builder.create "property-input" in
  let aig = Netlist.Builder.aig b in
  let x = Netlist.Builder.input b in
  let s1 = Netlist.Builder.latch b ~init:false in
  let s2 = Netlist.Builder.latch b ~init:false in
  Netlist.Builder.connect b s1 x;
  Netlist.Builder.connect b s2 x;
  Netlist.Builder.set_property b (Aig.not_ (Aig.and_list aig [ s1; s2; Aig.not_ x ]));
  Netlist.Builder.finish b

let test_property_input () =
  let zero_budget =
    {
      Baselines.Suite.default_config with
      cbq =
        {
          Cbq.Reachability.default with
          quant = { Cbq.Quantify.default with growth_limit = 0.; growth_slack = 0 };
        };
    }
  in
  List.iter
    (fun (label, config) ->
      List.iter
        (fun (e : Baselines.Suite.engine) ->
          let model = property_input_model () in
          let verdict, trace = e.run ~limits:Util.Limits.unlimited model in
          let name = Printf.sprintf "%s %s" e.name label in
          check verdict_t name (Baselines.Verdict.Falsified 1) verdict;
          Option.iter
            (fun t -> check bool (name ^ " trace replays") true (Cbq.Trace.check model t))
            trace)
        (Baselines.Suite.engines ~config ()))
    [ ("default", Baselines.Suite.default_config); ("zero growth budget", zero_budget) ]

let () =
  Alcotest.run "baselines"
    [
      ("verdict", [ Alcotest.test_case "oracle agreement" `Quick test_verdict_helpers ]);
      ( "bdd",
        [
          Alcotest.test_case "backward vs oracles" `Slow test_bdd_backward_oracles;
          Alcotest.test_case "forward vs oracles" `Slow test_bdd_forward_oracles;
          Alcotest.test_case "node limit" `Quick test_bdd_node_limit;
          Alcotest.test_case "iteration profile" `Quick test_bdd_iteration_profile;
        ] );
      ( "bmc",
        [
          Alcotest.test_case "finds counterexamples" `Slow test_bmc_finds_cex;
          Alcotest.test_case "respects the bound" `Quick test_bmc_bound_respected;
          Alcotest.test_case "arbitrary frontier targets" `Quick test_bmc_with_frontier;
        ] );
      ( "induction",
        [
          Alcotest.test_case "vs oracles" `Slow test_induction_oracles;
          Alcotest.test_case "k=0 inductive property" `Quick test_induction_k_zero_inductive;
          Alcotest.test_case "needs induction depth" `Quick test_induction_needs_depth;
        ] );
      ( "cofactor",
        [
          Alcotest.test_case "vs oracles" `Slow test_cofactor_oracles;
          Alcotest.test_case "pre-image matches CBQ" `Quick test_cofactor_preimage_matches_cbq;
          Alcotest.test_case "enumeration budget" `Quick test_cofactor_budget;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "vs oracles" `Slow test_hybrid_oracles;
          Alcotest.test_case "division of labour" `Quick test_hybrid_division_of_labour;
        ] );
      ("suite", [ Alcotest.test_case "property reads an input" `Quick test_property_input ]);
    ]
