(* Tests for the extension features: cross-manager import, stand-alone
   CEC, DIMACS I/O, forward CBQ reachability, and the Johnson/TMR
   families. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let eval_mask aig l mask = Aig.eval aig l (fun v -> (mask lsr v) land 1 = 1)

let semantically_equal aig nvars a b =
  let rec go mask =
    mask >= 1 lsl nvars || (eval_mask aig a mask = eval_mask aig b mask && go (mask + 1))
  in
  go 0

(* ---------- Aig.import ---------- *)

let test_import_basic () =
  let src = Aig.create () in
  let x = Aig.var src 0 and y = Aig.var src 1 in
  let f = Aig.xor_ src (Aig.and_ src x y) (Aig.or_ src x (Aig.not_ y)) in
  let dst = Aig.create () in
  (* map source variables 0,1 to destination variables 5,3 *)
  let subst v = Aig.var dst (if v = 0 then 5 else 3) in
  let g = Aig.import dst ~source:src ~subst f in
  for mask = 0 to 3 do
    let src_env v = (mask lsr v) land 1 = 1 in
    let dst_env v = if v = 5 then src_env 0 else if v = 3 then src_env 1 else false in
    check bool
      (Printf.sprintf "import agrees on %d" mask)
      (Aig.eval src f src_env) (Aig.eval dst g dst_env)
  done

let test_import_complemented_and_const () =
  let src = Aig.create () in
  let x = Aig.var src 0 in
  let dst = Aig.create () in
  let subst _ = Aig.var dst 0 in
  check int "constant imports as constant" Aig.true_
    (Aig.import dst ~source:src ~subst Aig.true_);
  check int "complemented leaf" (Aig.not_ (Aig.var dst 0))
    (Aig.import dst ~source:src ~subst (Aig.not_ x))

let test_import_into_mapped_logic () =
  (* mapping a variable to non-variable logic in the destination *)
  let src = Aig.create () in
  let x = Aig.var src 0 and y = Aig.var src 1 in
  let f = Aig.and_ src x y in
  let dst = Aig.create () in
  let a = Aig.var dst 0 and b = Aig.var dst 1 in
  let subst v = if v = 0 then Aig.or_ dst a b else b in
  let g = Aig.import dst ~source:src ~subst f in
  check bool "substituted semantics" true
    (semantically_equal dst 2 g (Aig.and_ dst (Aig.or_ dst a b) b))

(* ---------- Cec ---------- *)

let test_cec_adders_equal () =
  List.iter
    (fun n ->
      let ripple = Circuits.Comb.adder_carry n in
      let cla = Circuits.Comb.carry_lookahead n in
      let r =
        Sweep.Cec.check_cones
          (ripple.Circuits.Comb.aig, ripple.Circuits.Comb.root, ripple.Circuits.Comb.vars)
          (cla.Circuits.Comb.aig, cla.Circuits.Comb.root, cla.Circuits.Comb.vars)
      in
      check bool
        (Printf.sprintf "adders %d-bit equivalent" n)
        true
        (r.Sweep.Cec.verdict = Sweep.Cec.Equivalent))
    [ 2; 4; 8 ]

let test_cec_bug_refuted () =
  let ripple = Circuits.Comb.adder_carry 6 in
  let cla = Circuits.Comb.carry_lookahead ~bug:true 6 in
  let r =
    Sweep.Cec.check_cones
      (ripple.Circuits.Comb.aig, ripple.Circuits.Comb.root, ripple.Circuits.Comb.vars)
      (cla.Circuits.Comb.aig, cla.Circuits.Comb.root, cla.Circuits.Comb.vars)
  in
  match r.Sweep.Cec.verdict with
  | Sweep.Cec.Inequivalent assignment ->
    (* the witness must actually distinguish the circuits (shared joint
       numbering is positional on both sides) *)
    let value (c : Circuits.Comb.cone) =
      Aig.eval c.Circuits.Comb.aig c.Circuits.Comb.root (fun v ->
          try List.assoc v assignment with Not_found -> false)
    in
    check bool "witness distinguishes" true (value ripple <> value cla)
  | Sweep.Cec.Equivalent | Sweep.Cec.Unknown -> Alcotest.fail "bug not refuted"

let test_cec_same_manager () =
  let aig = Aig.create () in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 91 in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  let a = Aig.xor_ aig x y in
  let b = Aig.or_ aig (Aig.and_ aig x (Aig.not_ y)) (Aig.and_ aig (Aig.not_ x) y) in
  let r = Sweep.Cec.check aig checker ~prng a b in
  check bool "same-manager equivalence" true (r.Sweep.Cec.verdict = Sweep.Cec.Equivalent)

let test_cec_input_count_mismatch () =
  let c1 = Circuits.Comb.parity 3 and c2 = Circuits.Comb.parity 4 in
  Alcotest.check_raises "width mismatch rejected"
    (Invalid_argument "Cec.check_cones: input counts differ") (fun () ->
      ignore
        (Sweep.Cec.check_cones
           (c1.Circuits.Comb.aig, c1.Circuits.Comb.root, c1.Circuits.Comb.vars)
           (c2.Circuits.Comb.aig, c2.Circuits.Comb.root, c2.Circuits.Comb.vars)))

(* ---------- Dimacs ---------- *)

let test_dimacs_parse_basic () =
  let text = "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  match Sat.Dimacs.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    check int "num vars" 3 p.Sat.Dimacs.num_vars;
    check int "num clauses" 2 (List.length p.Sat.Dimacs.clauses);
    (match p.Sat.Dimacs.clauses with
    | [ c1; _ ] ->
      check bool "literal mapping" true (c1 = [ Sat.Lit.pos 0; Sat.Lit.neg_of 1 ])
    | _ -> Alcotest.fail "clause shape")

let test_dimacs_multiline_and_header_less () =
  (* clauses split across lines, no p-line *)
  let text = "1 2\n-3 0 3 0\n" in
  match Sat.Dimacs.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok p ->
    check int "inferred vars" 3 p.Sat.Dimacs.num_vars;
    check int "two clauses" 2 (List.length p.Sat.Dimacs.clauses)

let test_dimacs_errors () =
  (match Sat.Dimacs.parse "p cnf x 2\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad header accepted");
  (match Sat.Dimacs.parse "1 two 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad literal accepted");
  match Sat.Dimacs.parse "1 2 3\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated clause accepted"

let test_dimacs_roundtrip_and_solve () =
  let p = { Sat.Dimacs.num_vars = 2; clauses = [ [ Sat.Lit.pos 0 ]; [ Sat.Lit.neg_of 0; Sat.Lit.pos 1 ] ] } in
  (match Sat.Dimacs.parse (Sat.Dimacs.render p) with
  | Ok p' -> check bool "roundtrip" true (p = p')
  | Error msg -> Alcotest.fail msg);
  let solver = Sat.Solver.create () in
  check bool "load ok" true (Sat.Dimacs.load solver p);
  check bool "solves sat" true (Sat.Solver.solve solver = Sat.Solver.Sat);
  check (Alcotest.option bool) "propagated" (Some true) (Sat.Solver.value solver 1);
  (* an unsatisfiable problem *)
  let q =
    { Sat.Dimacs.num_vars = 1; clauses = [ [ Sat.Lit.pos 0 ]; [ Sat.Lit.neg_of 0 ] ] }
  in
  let s2 = Sat.Solver.create () in
  let ok = Sat.Dimacs.load s2 q in
  check bool "conflicting units rejected at load" false ok

(* ---------- forward CBQ reachability ---------- *)

let forward_families =
  [
    ("counter", Some 3);
    ("counter-even", Some 4);
    ("shift-pattern", Some 4);
    ("lfsr", Some 4);
    ("fifo-buggy", Some 2);
    ("accumulator", Some 3);
    ("traffic", None);
    ("johnson", Some 4);
  ]

let test_forward_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let r = Cbq.Forward.run model in
      match (r.Cbq.Reachability.verdict, status) with
      | Cbq.Verdict.Proved, Circuits.Registry.Safe -> ()
      | Cbq.Verdict.Falsified depth, Circuits.Registry.Unsafe expected ->
        check int (name ^ " depth") expected depth;
        (match r.Cbq.Reachability.trace with
        | Some t -> check bool (name ^ " trace valid") true (Cbq.Trace.check model t)
        | None -> Alcotest.fail (name ^ ": missing trace"))
      | v, _ ->
        Alcotest.fail
          (Format.asprintf "%s: unexpected forward verdict %a" name Cbq.Verdict.pp v))
    forward_families

let test_forward_agrees_with_backward () =
  List.iter
    (fun (name, param) ->
      let m1, _ = Circuits.Registry.build name param in
      let m2, _ = Circuits.Registry.build name param in
      let f = (Cbq.Forward.run m1).Cbq.Reachability.verdict in
      let b = (Cbq.Reachability.run m2).Cbq.Reachability.verdict in
      check Alcotest.string (name ^ " directions agree") (Cbq.Verdict.to_meta b)
        (Cbq.Verdict.to_meta f))
    [ ("counter", Some 3); ("fifo-buggy", Some 2); ("counter-even", Some 4) ]

(* ---------- new families ---------- *)

let random_stimulus m prng _step =
  let vals = List.map (fun v -> (v, Util.Prng.bool prng)) (Netlist.Model.input_vars m) in
  fun v -> (try List.assoc v vals with Not_found -> false)

let simulate_safe m steps seed =
  let prng = Util.Prng.create seed in
  let state = ref (Netlist.Model.init_state m) in
  let ok = ref true in
  for step = 1 to steps do
    state := Netlist.Model.eval_step m ~state:!state ~inputs:(random_stimulus m prng step);
    if not (Netlist.Model.property_holds m ~state:!state) then ok := false
  done;
  !ok

let test_johnson_family () =
  let m = Circuits.Families.johnson ~bits:5 in
  check bool "validates" true (Netlist.Model.validate m = Ok ());
  check bool "safe under random stimulus" true (simulate_safe m 300 97);
  let r = Cbq.Reachability.run m in
  check bool "proved by cbq" true (r.Cbq.Reachability.verdict = Cbq.Verdict.Proved)

let test_tmr_family () =
  let m = Circuits.Families.tmr ~bits:3 in
  check bool "validates" true (Netlist.Model.validate m = Ok ());
  check int "three replicas + voter + shadow" (5 * 3) (Netlist.Model.num_latches m);
  check bool "safe under random stimulus" true (simulate_safe m 200 101);
  let r = Cbq.Reachability.run m in
  check bool "proved by cbq" true (r.Cbq.Reachability.verdict = Cbq.Verdict.Proved)

let test_cla_cone_semantics () =
  let n = 4 in
  let c = Circuits.Comb.carry_lookahead n in
  let aig = c.Circuits.Comb.aig in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let env v = if v < n then (a lsr v) land 1 = 1 else (b lsr (v - n)) land 1 = 1 in
      check bool
        (Printf.sprintf "cla carry(%d,%d)" a b)
        (a + b >= 16)
        (Aig.eval aig c.Circuits.Comb.root env)
    done
  done

(* ---------- proof certificates ---------- *)

let safe_families_for_certificates =
  [ ("counter-even", Some 4); ("twin-shift", Some 4); ("lfsr", Some 4); ("fifo", Some 2);
    ("gray", Some 3); ("arbiter", Some 3); ("traffic", None); ("peterson", None);
    ("johnson", Some 4); ("tmr", Some 3) ]

let test_backward_certificates () =
  List.iter
    (fun (name, param) ->
      let model, _ = Circuits.Registry.build name param in
      let r = Cbq.Reachability.run model in
      check bool (name ^ " proved") true (r.Cbq.Reachability.verdict = Cbq.Verdict.Proved);
      match r.Cbq.Reachability.invariant with
      | None -> Alcotest.fail (name ^ ": expected a certificate")
      | Some inv -> (
        match Cbq.Certify.check model ~invariant:inv with
        | Ok () -> ()
        | Error f -> Alcotest.failf "%s: certificate rejected (%a)" name Cbq.Certify.pp_failure f))
    safe_families_for_certificates

let test_forward_certificates () =
  List.iter
    (fun (name, param) ->
      let model, _ = Circuits.Registry.build name param in
      let r = Cbq.Forward.run model in
      check bool (name ^ " proved") true (r.Cbq.Reachability.verdict = Cbq.Verdict.Proved);
      match r.Cbq.Reachability.invariant with
      | None -> Alcotest.fail (name ^ ": expected a certificate")
      | Some inv -> (
        match Cbq.Certify.check model ~invariant:inv with
        | Ok () -> ()
        | Error f -> Alcotest.failf "%s: certificate rejected (%a)" name Cbq.Certify.pp_failure f))
    [ ("counter-even", Some 4); ("lfsr", Some 4); ("johnson", Some 4); ("traffic", None) ]

let test_certify_rejects_bogus () =
  let model, _ = Circuits.Registry.build "counter-even" (Some 4) in
  let aig = Netlist.Model.aig model in
  let q0 = Aig.var aig (List.hd (Netlist.Model.state_vars model)) in
  (* "true" is initial and inductive but not safe *)
  (match Cbq.Certify.check model ~invariant:Aig.true_ with
  | Error Cbq.Certify.Not_safe -> ()
  | Ok () | Error _ -> Alcotest.fail "trivial invariant should fail the safety condition");
  (* "false" fails initiation *)
  (match Cbq.Certify.check model ~invariant:Aig.false_ with
  | Error Cbq.Certify.Not_initial -> ()
  | Ok () | Error _ -> Alcotest.fail "empty invariant should fail initiation");
  (* "bit0 = 0 and bit1 = 0" holds initially and is safe, but the counter
     escapes it: not inductive *)
  let state_vars = Netlist.Model.state_vars model in
  let q1 = Aig.var aig (List.nth state_vars 1) in
  match Cbq.Certify.check model ~invariant:(Aig.and_ aig (Aig.not_ q0) (Aig.not_ q1)) with
  | Error Cbq.Certify.Not_inductive -> ()
  | Ok () | Error _ -> Alcotest.fail "non-inductive invariant accepted"

let test_certificate_cross_engine () =
  (* the backward certificate certifies the model for anyone — e.g. it is
     accepted on a fresh, independently built instance's checker too *)
  let model, _ = Circuits.Registry.build "arbiter" (Some 3) in
  let r = Cbq.Reachability.run model in
  match r.Cbq.Reachability.invariant with
  | Some inv ->
    (* re-check several times: the check itself must be deterministic *)
    for _ = 1 to 3 do
      match Cbq.Certify.check model ~invariant:inv with
      | Ok () -> ()
      | Error f -> Alcotest.failf "recheck failed: %a" Cbq.Certify.pp_failure f
    done
  | None -> Alcotest.fail "expected certificate"

(* ---------- cone-of-influence reduction ---------- *)

(* a counter with a free-running observer register and an unused input:
   the observer and the extra input are outside the property's cone *)
let model_with_dead_logic () =
  let b = Netlist.Builder.create "dead-logic" in
  let aig = Netlist.Builder.aig b in
  let enable = Netlist.Builder.input b in
  let junk_input = Netlist.Builder.input b in
  let q0 = Netlist.Builder.latch b ~init:false in
  let q1 = Netlist.Builder.latch b ~init:false in
  let observer = Netlist.Builder.latch b ~init:false in
  Netlist.Builder.connect b q0 (Aig.xor_ aig q0 enable) ;
  Netlist.Builder.connect b q1 (Aig.xor_ aig q1 (Aig.and_ aig q0 enable));
  Netlist.Builder.connect b observer (Aig.xor_ aig observer junk_input);
  Netlist.Builder.set_property b (Aig.not_ (Aig.and_ aig q0 q1));
  Netlist.Builder.finish b

let test_coi_drops_dead_logic () =
  let m = model_with_dead_logic () in
  let reduced, report = Netlist.Coi.reduce m in
  check int "latches 3 -> 2" 2 report.Netlist.Coi.latches_after;
  check int "inputs 2 -> 1" 1 report.Netlist.Coi.inputs_after;
  check int "one latch removed" 1 (List.length report.Netlist.Coi.removed_latches);
  check bool "validates" true (Netlist.Model.validate reduced = Ok ());
  (* the verdict (cex at depth 3) is unchanged *)
  let r = Cbq.Reachability.run reduced in
  (match r.Cbq.Reachability.verdict with
  | Cbq.Verdict.Falsified depth -> check int "depth preserved" 3 depth
  | v -> Alcotest.fail (Format.asprintf "%a" Cbq.Verdict.pp v))

let test_coi_tight_models_untouched () =
  List.iter
    (fun (name, param) ->
      let m, _ = Circuits.Registry.build name param in
      let _, report = Netlist.Coi.reduce m in
      check int (name ^ " latches untouched") report.Netlist.Coi.latches_before
        report.Netlist.Coi.latches_after)
    [ ("counter", Some 3); ("peterson", None); ("gray", Some 3) ]

let test_coi_chain_dependency () =
  (* the property reads only the last latch of a chain, but the chain
     pulls every earlier latch into the cone *)
  let b = Netlist.Builder.create "chain" in
  let d = Netlist.Builder.input b in
  let q = Netlist.Builder.latches b ~init:false 4 in
  (match q with
  | [ q0; q1; q2; q3 ] ->
    Netlist.Builder.connect b q0 d;
    Netlist.Builder.connect b q1 q0;
    Netlist.Builder.connect b q2 q1;
    Netlist.Builder.connect b q3 q2;
    Netlist.Builder.set_property b (Aig.not_ q3)
  | _ -> assert false);
  let m = Netlist.Builder.finish b in
  let _, report = Netlist.Coi.reduce m in
  check int "whole chain kept" 4 report.Netlist.Coi.latches_after

(* ---------- ternary evaluation and trace minimization ---------- *)

let test_eval3_basics () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  let f = Aig.and_ aig x y in
  let env known v = List.assoc_opt v known in
  check (Alcotest.option bool) "0 & X = 0" (Some false) (Aig.eval3 aig f (env [ (0, false) ]));
  check (Alcotest.option bool) "1 & X = X" None (Aig.eval3 aig f (env [ (0, true) ]));
  check (Alcotest.option bool) "1 & 1 = 1" (Some true)
    (Aig.eval3 aig f (env [ (0, true); (1, true) ]));
  let g = Aig.or_ aig x y in
  check (Alcotest.option bool) "1 | X = 1" (Some true) (Aig.eval3 aig g (env [ (0, true) ]));
  check (Alcotest.option bool) "0 | X = X" None (Aig.eval3 aig g (env [ (0, false) ]));
  (* X-pessimism on reconvergence is allowed: x & ~x is X when x is *)
  check (Alcotest.option bool) "constant under any env" (Some true)
    (Aig.eval3 aig Aig.true_ (env []));
  check (Alcotest.option bool) "bare unknown leaf" None (Aig.eval3 aig x (env []))

let eval3_agrees_with_eval =
  QCheck.Test.make ~name:"eval3 on total assignments = eval" ~count:100
    (QCheck.make ~print:(fun _ -> "<seed>") (QCheck.Gen.int_bound 5_000))
    (fun seed ->
      let cone = Circuits.Comb.random_cone ~vars:4 ~gates:20 ~seed in
      let aig = cone.Circuits.Comb.aig in
      let rec go mask =
        mask >= 16
        || Aig.eval3 aig cone.Circuits.Comb.root (fun v -> Some ((mask lsr v) land 1 = 1))
           = Some (Aig.eval aig cone.Circuits.Comb.root (fun v -> (mask lsr v) land 1 = 1))
           && go (mask + 1)
      in
      go 0)

let eval3_is_sound_abstraction =
  QCheck.Test.make ~name:"eval3 definite answers agree with every completion" ~count:100
    (QCheck.make ~print:(fun _ -> "<seed>") (QCheck.Gen.int_bound 5_000))
    (fun seed ->
      let cone = Circuits.Comb.random_cone ~vars:4 ~gates:20 ~seed in
      let aig = cone.Circuits.Comb.aig in
      let prng = Util.Prng.create seed in
      (* random partial assignment over the 4 variables *)
      let partial =
        List.init 4 (fun v ->
            (v, if Util.Prng.bool prng then Some (Util.Prng.bool prng) else None))
      in
      match Aig.eval3 aig cone.Circuits.Comb.root (fun v -> List.assoc v partial) with
      | None -> true
      | Some definite ->
        (* every completion must produce the same value *)
        let rec go mask =
          mask >= 16
          ||
          let env v =
            match List.assoc v partial with Some b -> b | None -> (mask lsr v) land 1 = 1
          in
          Aig.eval aig cone.Circuits.Comb.root env = definite && go (mask + 1)
        in
        go 0)

let test_trace_minimize_counter () =
  (* the counter only advances on enable: every enable bit is essential,
     so minimization keeps exactly the enables *)
  let m = Circuits.Families.counter ~bits:3 in
  let r = Cbq.Reachability.run m in
  match r.Cbq.Reachability.trace with
  | Some t ->
    let essential = Cbq.Trace.minimize m t in
    Array.iteri
      (fun k frame ->
        check int (Printf.sprintf "frame %d keeps its enable" k) 1 (List.length frame))
      essential
  | _ -> Alcotest.fail "expected counterexample"

let test_trace_minimize_drops_irrelevant () =
  (* fifo-buggy: the pop input is irrelevant on an all-push overflow run *)
  let m = Circuits.Families.fifo ~buggy:true ~depth_log:2 () in
  let r = Cbq.Reachability.run m in
  match r.Cbq.Reachability.trace with
  | Some t ->
    let essential = Cbq.Trace.minimize m t in
    let kept = Array.fold_left (fun acc f -> acc + List.length f) 0 essential in
    let total = Array.fold_left (fun acc f -> acc + List.length f) 0 t.Cbq.Trace.inputs in
    check bool "some inputs dropped" true (kept < total);
    (* soundness: the essential inputs with arbitrary completions still fail *)
    let prng = Util.Prng.create 119 in
    for _ = 1 to 20 do
      let frames =
        Array.map
          (fun frame v ->
            match List.assoc_opt v frame with
            | Some b -> b
            | None -> Util.Prng.bool prng)
          essential
      in
      let completed = Cbq.Trace.of_inputs m frames in
      check bool "completion is still a counterexample" false
        (Netlist.Model.property_holds m
           ~state:(fun v ->
             List.assoc v completed.Cbq.Trace.states.(Array.length completed.Cbq.Trace.states - 1)))
    done
  | _ -> Alcotest.fail "expected counterexample"

(* ---------- BMC with CBQ preprocessing (paper §4) ---------- *)

let test_bmc_preprocessed_oracles () =
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      match status with
      | Circuits.Registry.Safe -> ()
      | Circuits.Registry.Unsafe d ->
        let r = Baselines.Bmc.run ~max_depth:(d + 3) ~preprocess:true model in
        (match r.Baselines.Bmc.search.Cbq.Unroll.verdict with
        | Baselines.Verdict.Falsified d' -> check int (name ^ " depth") d d'
        | v -> Alcotest.fail (Format.asprintf "%s: %a" name Baselines.Verdict.pp v));
        check bool (name ^ " eliminated some inputs") true
          (r.Baselines.Bmc.inputs_eliminated > 0);
        (match r.Baselines.Bmc.search.Cbq.Unroll.trace with
        | Some t -> check bool (name ^ " trace valid") true (Cbq.Trace.check model t)
        | None -> Alcotest.fail (name ^ ": missing trace")))
    [ ("counter", Some 3); ("fifo-buggy", Some 2); ("accumulator", Some 3);
      ("shift-pattern", Some 5) ]

let test_bmc_preprocessed_no_false_alarm () =
  let model, _ = Circuits.Registry.build "lfsr" (Some 4) in
  let r = Baselines.Bmc.run ~max_depth:12 ~preprocess:true model in
  match r.Baselines.Bmc.search.Cbq.Unroll.verdict with
  | Baselines.Verdict.Undecided _ -> ()
  | v -> Alcotest.fail (Format.asprintf "safe model refuted: %a" Baselines.Verdict.pp v)

(* ---------- failed assumptions (unsat core) ---------- *)

let test_failed_assumptions_chain () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s and b = Sat.Solver.new_var s and c = Sat.Solver.new_var s in
  ignore (Sat.Solver.add_clause s [ Sat.Lit.neg_of a; Sat.Lit.pos b ]);
  ignore (Sat.Solver.add_clause s [ Sat.Lit.neg_of b; Sat.Lit.pos c ]);
  (* a=1 and c=0 clash through the chain; the b assumption is redundant *)
  check bool "unsat" true
    (Sat.Solver.solve ~assumptions:[ Sat.Lit.pos a; Sat.Lit.neg_of c; Sat.Lit.pos b ] s
    = Sat.Solver.Unsat);
  let core = Sat.Solver.failed_assumptions s in
  let core_vars = List.sort compare (List.map Sat.Lit.var core) in
  check (Alcotest.list int) "core is {a, ~c}" [ 0; 2 ] core_vars;
  (* the core alone must still be unsat *)
  check bool "core is itself unsat" true (Sat.Solver.solve ~assumptions:core s = Sat.Solver.Unsat)

let test_failed_assumptions_direct_clash () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  check bool "unsat" true
    (Sat.Solver.solve ~assumptions:[ Sat.Lit.pos a; Sat.Lit.neg_of a ] s = Sat.Solver.Unsat);
  let core_vars = List.sort_uniq compare (List.map Sat.Lit.var (Sat.Solver.failed_assumptions s)) in
  check (Alcotest.list int) "core over the clashing variable" [ 0 ] core_vars

let test_failed_assumptions_level0 () =
  let s = Sat.Solver.create () in
  let a = Sat.Solver.new_var s in
  ignore (Sat.Solver.add_clause s [ Sat.Lit.neg_of a ]);
  check bool "unsat" true (Sat.Solver.solve ~assumptions:[ Sat.Lit.pos a ] s = Sat.Solver.Unsat);
  (* the database alone refutes the assumption: core is just {a} *)
  check (Alcotest.list int) "singleton core" [ 0 ]
    (List.map Sat.Lit.var (Sat.Solver.failed_assumptions s));
  (* a fresh solve clears the core *)
  ignore (Sat.Solver.solve s);
  check (Alcotest.list int) "cleared" [] (List.map Sat.Lit.var (Sat.Solver.failed_assumptions s))

(* ---------- block quantification ---------- *)

let test_block_matches_sequential () =
  let aig = Aig.create () in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 111 in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 and w = Aig.var aig 3 in
  let f = Aig.or_ aig (Aig.and_ aig x (Aig.xor_ aig y z)) (Aig.and_ aig w (Aig.iff_ aig x z)) in
  (* the don't-care joins, off by default, are what these block tests
     exercise *)
  let config = { Cbq.Quantify.default with use_dontcare = true; growth_limit = infinity } in
  (match Cbq.Quantify.block ~config aig checker ~prng f ~vars:[ 0; 2 ] with
  | Ok blocked ->
    let seq = Cbq.Quantify.all ~config aig checker ~prng f ~vars:[ 0; 2 ] in
    check bool "block = sequential" true
      (Cnf.Checker.equal checker blocked seq.Cbq.Quantify.lit = Cnf.Checker.Yes);
    check bool "variables gone" true
      ((not (Aig.depends_on aig blocked 0)) && not (Aig.depends_on aig blocked 2))
  | Error _ -> Alcotest.fail "unexpected abort");
  (* empty set and free variables are identities *)
  (match Cbq.Quantify.block aig checker ~prng f ~vars:[] with
  | Ok l -> check int "empty set" f l
  | Error _ -> Alcotest.fail "abort");
  match Cbq.Quantify.block aig checker ~prng f ~vars:[ 9 ] with
  | Ok l -> check int "free variable" f l
  | Error _ -> Alcotest.fail "abort"

let test_block_too_many () =
  let aig = Aig.create () in
  let checker = Cnf.Checker.create aig in
  let prng = Util.Prng.create 113 in
  let xs = List.init 8 (Aig.var aig) in
  let f = Aig.and_list aig xs in
  Alcotest.check_raises "more than 6 variables rejected"
    (Invalid_argument "Quantify.block: at most 6 variables") (fun () ->
      ignore (Cbq.Quantify.block aig checker ~prng f ~vars:[ 0; 1; 2; 3; 4; 5; 6 ]))

let block_matches_bdd =
  QCheck.Test.make ~name:"block quantification = BDD exists (random cones)" ~count:50
    (QCheck.make ~print:(fun _ -> "<seed>") (QCheck.Gen.int_bound 10_000))
    (fun seed ->
      let cone = Circuits.Comb.random_cone ~vars:4 ~gates:24 ~seed in
      let aig = cone.Circuits.Comb.aig in
      let checker = Cnf.Checker.create aig in
      let prng = Util.Prng.create seed in
      let config = { Cbq.Quantify.default with use_dontcare = true; growth_limit = infinity } in
      match Cbq.Quantify.block ~config aig checker ~prng cone.Circuits.Comb.root ~vars:[ 0; 1 ] with
      | Error _ -> false
      | Ok blocked ->
        let man = Bdd.create () in
        let tr = Sweep.Bdd_sweep.translator man aig in
        let to_bdd l = tr [ l ] l in
        let expected = Bdd.exists man (fun v -> v <= 1) (to_bdd cone.Circuits.Comb.root) in
        let got = to_bdd blocked in
        got = expected)

(* ---------- sequential sweeping ---------- *)

let test_seq_sweep_twin_shift () =
  let model = Circuits.Families.twin_shift ~bits:6 in
  let reduced, report = Cbq.Seq_sweep.reduce model in
  check int "half the latches merged" 6 report.Cbq.Seq_sweep.merged_latches;
  check int "latches after" 6 report.Cbq.Seq_sweep.latches_after;
  check bool "reduced model validates" true (Netlist.Model.validate reduced = Ok ());
  (* the merged property collapses to the trivially true one *)
  check bool "property simplified to a constant" true
    (reduced.Netlist.Model.property = Aig.true_)

let test_seq_sweep_tmr () =
  let model = Circuits.Families.tmr ~bits:4 in
  let reduced, report = Cbq.Seq_sweep.reduce model in
  check bool "replicas merged" true (report.Cbq.Seq_sweep.merged_latches >= 8);
  check bool "validates" true (Netlist.Model.validate reduced = Ok ());
  let r = Cbq.Reachability.run reduced in
  check bool "still proved" true (r.Cbq.Reachability.verdict = Cbq.Verdict.Proved)

let test_seq_sweep_no_false_merges () =
  (* families with no redundant registers must pass through unchanged and
     keep their verdicts *)
  List.iter
    (fun (name, param) ->
      let model, status = Circuits.Registry.build name param in
      let reduced, report = Cbq.Seq_sweep.reduce model in
      check bool (name ^ " validates") true (Netlist.Model.validate reduced = Ok ());
      ignore report;
      let r = Cbq.Reachability.run reduced in
      match (r.Cbq.Reachability.verdict, status) with
      | Cbq.Verdict.Proved, Circuits.Registry.Safe -> ()
      | Cbq.Verdict.Falsified depth, Circuits.Registry.Unsafe d ->
        check int (name ^ " depth preserved") d depth
      | v, _ ->
        Alcotest.fail
          (Format.asprintf "%s: verdict changed by seq-sweep: %a" name Cbq.Verdict.pp v))
    [ ("counter", Some 3); ("fifo-buggy", Some 2); ("gray", Some 3); ("peterson", None);
      ("lfsr", Some 4); ("accumulator", Some 3) ]

let test_seq_sweep_behaviour_preserved () =
  (* random co-simulation of the original and reduced models *)
  let model = Circuits.Families.tmr ~bits:3 in
  let reduced, _ = Cbq.Seq_sweep.reduce model in
  let prng = Util.Prng.create 115 in
  let s1 = ref (Netlist.Model.init_state model) in
  let s2 = ref (Netlist.Model.init_state reduced) in
  for step = 1 to 200 do
    let stim = random_stimulus model prng step in
    (if Netlist.Model.property_holds model ~state:!s1
        <> Netlist.Model.property_holds reduced ~state:!s2
     then Alcotest.failf "property divergence at step %d" step);
    s1 := Netlist.Model.eval_step model ~state:!s1 ~inputs:stim;
    s2 := Netlist.Model.eval_step reduced ~state:!s2 ~inputs:stim
  done

let () =
  Alcotest.run "extensions"
    [
      ( "import",
        [
          Alcotest.test_case "basic cross-manager copy" `Quick test_import_basic;
          Alcotest.test_case "complement and constants" `Quick
            test_import_complemented_and_const;
          Alcotest.test_case "mapping to logic" `Quick test_import_into_mapped_logic;
        ] );
      ( "cec",
        [
          Alcotest.test_case "adder architectures equivalent" `Quick test_cec_adders_equal;
          Alcotest.test_case "injected bug refuted" `Quick test_cec_bug_refuted;
          Alcotest.test_case "same-manager check" `Quick test_cec_same_manager;
          Alcotest.test_case "input count mismatch" `Quick test_cec_input_count_mismatch;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse basic" `Quick test_dimacs_parse_basic;
          Alcotest.test_case "multiline, no header" `Quick test_dimacs_multiline_and_header_less;
          Alcotest.test_case "parse errors" `Quick test_dimacs_errors;
          Alcotest.test_case "roundtrip and solve" `Quick test_dimacs_roundtrip_and_solve;
        ] );
      ( "forward",
        [
          Alcotest.test_case "family oracles" `Slow test_forward_oracles;
          Alcotest.test_case "agrees with backward" `Quick test_forward_agrees_with_backward;
        ] );
      ( "new families",
        [
          Alcotest.test_case "johnson" `Quick test_johnson_family;
          Alcotest.test_case "tmr" `Quick test_tmr_family;
          Alcotest.test_case "carry-lookahead semantics" `Quick test_cla_cone_semantics;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "backward proofs certify" `Slow test_backward_certificates;
          Alcotest.test_case "forward proofs certify" `Slow test_forward_certificates;
          Alcotest.test_case "bogus invariants rejected" `Quick test_certify_rejects_bogus;
          Alcotest.test_case "deterministic recheck" `Quick test_certificate_cross_engine;
        ] );
      ( "cone of influence",
        [
          Alcotest.test_case "drops dead logic" `Quick test_coi_drops_dead_logic;
          Alcotest.test_case "tight models untouched" `Quick test_coi_tight_models_untouched;
          Alcotest.test_case "chain dependencies kept" `Quick test_coi_chain_dependency;
        ] );
      ( "ternary evaluation",
        [
          Alcotest.test_case "x-propagation rules" `Quick test_eval3_basics;
          QCheck_alcotest.to_alcotest eval3_agrees_with_eval;
          QCheck_alcotest.to_alcotest eval3_is_sound_abstraction;
        ] );
      ( "trace minimization",
        [
          Alcotest.test_case "counter keeps every enable" `Quick test_trace_minimize_counter;
          Alcotest.test_case "drops irrelevant inputs" `Quick
            test_trace_minimize_drops_irrelevant;
        ] );
      ( "bmc preprocessing",
        [
          Alcotest.test_case "oracles preserved" `Slow test_bmc_preprocessed_oracles;
          Alcotest.test_case "no false alarms" `Quick test_bmc_preprocessed_no_false_alarm;
        ] );
      ( "unsat cores",
        [
          Alcotest.test_case "chain core" `Quick test_failed_assumptions_chain;
          Alcotest.test_case "direct clash" `Quick test_failed_assumptions_direct_clash;
          Alcotest.test_case "level-0 refutation" `Quick test_failed_assumptions_level0;
        ] );
      ( "block quantification",
        [
          Alcotest.test_case "matches sequential" `Quick test_block_matches_sequential;
          Alcotest.test_case "size guard" `Quick test_block_too_many;
          QCheck_alcotest.to_alcotest block_matches_bdd;
        ] );
      ( "sequential sweeping",
        [
          Alcotest.test_case "twin shift halves" `Quick test_seq_sweep_twin_shift;
          Alcotest.test_case "tmr replicas" `Quick test_seq_sweep_tmr;
          Alcotest.test_case "no false merges" `Slow test_seq_sweep_no_false_merges;
          Alcotest.test_case "co-simulation" `Quick test_seq_sweep_behaviour_preserved;
        ] );
    ]
