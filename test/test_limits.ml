(* The resource governor and every graceful-degradation path it gates:
   governor bookkeeping, budgeted SAT queries answering Maybe, sweeping
   that keeps merges proven before exhaustion, quantification keeping
   its variables once the governor trips, and — the contract that
   matters — engines whose limited verdicts are Unknown or agree with
   the oracle, never a wrong Safe/Unsafe. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let eval_mask aig l mask = Aig.eval aig l (fun v -> (mask lsr v) land 1 = 1)

let semantically_equal aig nvars a b =
  let rec go mask =
    mask >= 1 lsl nvars || (eval_mask aig a mask = eval_mask aig b mask && go (mask + 1))
  in
  go 0

(* a governor whose deadline is already behind it *)
let expired () =
  let l = Util.Limits.create ~timeout:0.0 () in
  ignore (Util.Limits.check l);
  l

(* ---------- governor bookkeeping ---------- *)

let test_unlimited_never_trips () =
  let l = Util.Limits.unlimited in
  check bool "not limited" false (Util.Limits.is_limited l);
  check bool "check clean" true (Util.Limits.check l = None);
  Util.Limits.charge_conflicts l max_int;
  Util.Limits.charge_bdd_nodes l max_int;
  check bool "charging is a no-op" true (Util.Limits.exhausted l = None);
  check bool "no conflict bound" true (Util.Limits.conflict_budget l = None);
  check bool "no bdd bound" true (Util.Limits.bdd_budget l = None)

let test_deadline_trips_and_sticks () =
  let l = Util.Limits.create ~timeout:0.0 () in
  check bool "limited" true (Util.Limits.is_limited l);
  check bool "deadline trips on poll" true (Util.Limits.check l = Some Util.Limits.Deadline);
  (* sticky without re-polling the clock *)
  check bool "exhausted is sticky" true (Util.Limits.exhausted l = Some Util.Limits.Deadline);
  check string "resource name" "deadline" (Util.Limits.resource_name Util.Limits.Deadline)

let test_conflict_pool_drains () =
  let l = Util.Limits.create ~max_conflicts:10 () in
  check bool "pool starts full" true (Util.Limits.conflict_budget l = Some 10);
  Util.Limits.charge_conflicts l 4;
  check bool "pool drains" true (Util.Limits.conflict_budget l = Some 6);
  check bool "not yet tripped" true (Util.Limits.exhausted l = None);
  Util.Limits.charge_conflicts l 6;
  check bool "dry pool trips" true (Util.Limits.exhausted l = Some Util.Limits.Conflicts);
  check bool "budget floors at zero" true (Util.Limits.conflict_budget l = Some 0)

let test_aig_ceiling () =
  let l = Util.Limits.create ~max_aig_nodes:100 () in
  check bool "under the ceiling" true (Util.Limits.check_aig_nodes l 100 = None);
  check bool "over the ceiling" true
    (Util.Limits.check_aig_nodes l 101 = Some Util.Limits.Aig_nodes)

let test_bdd_pool_is_non_fatal () =
  let l = Util.Limits.create ~max_bdd_nodes:50 () in
  Util.Limits.charge_bdd_nodes l 60;
  check bool "draining the bdd pool is not fatal" true (Util.Limits.exhausted l = None);
  check bool "but the pool is dry" true (Util.Limits.bdd_budget l = Some 0);
  (* a BDD-primary engine promotes it explicitly *)
  Util.Limits.trip l Util.Limits.Bdd_nodes;
  check bool "promoted trip is fatal" true
    (Util.Limits.exhausted l = Some Util.Limits.Bdd_nodes)

let test_first_trip_wins_and_notify_fires_once () =
  let l = Util.Limits.create ~timeout:0.0 ~max_conflicts:1 () in
  let fired = ref [] in
  Util.Limits.set_notify l (fun r -> fired := r :: !fired);
  ignore (Util.Limits.check l);
  Util.Limits.charge_conflicts l 5;
  Util.Limits.trip l Util.Limits.Aig_nodes;
  check bool "first trip wins" true (Util.Limits.exhausted l = Some Util.Limits.Deadline);
  check int "notify fired exactly once" 1 (List.length !fired);
  check bool "notify saw the first resource" true (!fired = [ Util.Limits.Deadline ])

(* ---------- cancellation ---------- *)

let test_cancel_trips_and_sticks () =
  let l = Util.Limits.create () in
  check bool "fresh governor is clean" true (Util.Limits.check l = None);
  Util.Limits.cancel l;
  check bool "cancel trips" true (Util.Limits.exhausted l = Some Util.Limits.Cancelled);
  Util.Limits.cancel l;
  check bool "idempotent and sticky" true (Util.Limits.exhausted l = Some Util.Limits.Cancelled);
  check string "resource name" "cancelled" (Util.Limits.resource_name Util.Limits.Cancelled)

let test_cancel_does_not_displace_first_trip () =
  let l = Util.Limits.create ~timeout:0.0 () in
  ignore (Util.Limits.check l);
  Util.Limits.cancel l;
  check bool "first trip wins over cancel" true
    (Util.Limits.exhausted l = Some Util.Limits.Deadline)

let test_cancel_unlimited_refused () =
  match Util.Limits.cancel Util.Limits.unlimited with
  | () -> Alcotest.fail "cancelling the shared unlimited governor must raise"
  | exception Invalid_argument _ ->
    check bool "unlimited stays clean" true (Util.Limits.exhausted Util.Limits.unlimited = None)

(* the cross-domain contract: a solver racing on another domain abandons
   its search promptly once its governor is cancelled from here *)
let test_cancel_stops_racing_solver () =
  (* pigeonhole PHP(12,11): exponentially hard for CDCL, so without the
     cancel this solve would outlive the whole suite. The governor has
     no caps at all — only the cancel hook can stop it. *)
  let pigeons = 12 and holes = 11 in
  let s = Sat.Solver.create () in
  let var = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    ignore (Sat.Solver.add_clause s (List.init holes (fun h -> Sat.Lit.pos var.(p).(h))))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        ignore
          (Sat.Solver.add_clause s [ Sat.Lit.neg_of var.(p1).(h); Sat.Lit.neg_of var.(p2).(h) ])
      done
    done
  done;
  let limits = Util.Limits.create () in
  let result = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set result (Some (Sat.Solver.solve ~limits s))) in
  Unix.sleepf 0.05;
  Util.Limits.cancel limits;
  let watch = Util.Stopwatch.start () in
  Domain.join d;
  let latency = Util.Stopwatch.elapsed watch in
  check bool "cancelled solve answers Unknown" true
    (Atomic.get result = Some Sat.Solver.Unknown);
  (* the solver polls the governor every 1024 search iterations, so the
     reaction is microseconds; the generous bound absorbs scheduling
     noise on a loaded single-core CI box *)
  check bool "returns promptly after the cancel" true (latency < 5.0)

(* ---------- budgeted SAT queries ---------- *)

let test_checker_shortcuts_to_maybe () =
  let aig = Aig.create () in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  let f = Aig.and_ aig x y in
  let limits = Util.Limits.create () in
  let checker = Cnf.Checker.create ~limits aig in
  check bool "decides before exhaustion" true (Cnf.Checker.satisfiable checker [ f ] = Cnf.Checker.Yes);
  Util.Limits.cancel limits;
  check bool "answers Maybe after exhaustion" true
    (Cnf.Checker.satisfiable checker [ f ] = Cnf.Checker.Maybe)

(* the checker reads the clock itself: under a deadline already behind
   it, with nothing else polling, an easy query answers Maybe without
   touching the solver *)
let test_checker_polls_the_deadline () =
  let aig = Aig.create () in
  let f = Aig.and_ aig (Aig.var aig 0) (Aig.var aig 1) in
  let checker = Cnf.Checker.create ~limits:(Util.Limits.create ~timeout:0.0 ()) aig in
  let before = Cnf.Checker.solver_stats checker in
  check bool "answers Maybe" true (Cnf.Checker.satisfiable checker [ f ] = Cnf.Checker.Maybe);
  check bool "no solver call" true (Cnf.Checker.solver_stats checker = before)

let test_solver_charges_the_pool () =
  (* an unsatisfiable pigeonhole-ish core costs conflicts; the run-wide
     pool must shrink after the query *)
  let aig = Aig.create () in
  let xs = List.init 6 (Aig.var aig) in
  let sum1 = List.fold_left (Aig.xor_ aig) Aig.false_ xs in
  let sum2 = List.fold_right (fun x acc -> Aig.xor_ aig acc x) xs Aig.false_ in
  let diff = Aig.xor_ aig sum1 sum2 in
  let l = Util.Limits.create ~max_conflicts:1_000_000 () in
  let checker = Cnf.Checker.create ~limits:l aig in
  check bool "xor trees agree" true (Cnf.Checker.satisfiable checker [ diff ] = Cnf.Checker.No);
  let remaining = Option.get (Util.Limits.conflict_budget l) in
  check bool "pool untouched or drained, never grown" true (remaining <= 1_000_000)

(* ---------- sweeping under exhaustion ---------- *)

let redundant_pair () =
  let aig = Aig.create () in
  let xs = List.init 4 (Aig.var aig) in
  let sum1 = List.fold_left (Aig.xor_ aig) Aig.false_ xs in
  let sum2 = List.fold_right (fun x acc -> Aig.xor_ aig acc x) xs Aig.false_ in
  (aig, Aig.and_ aig sum1 (List.hd xs), Aig.and_ aig sum2 (List.hd xs))

let test_sweep_under_expired_deadline_is_sound () =
  let aig, f, g = redundant_pair () in
  let checker = Cnf.Checker.create ~limits:(expired ()) aig in
  let prng = Util.Prng.create 7 in
  let repl, report = Sweep.Sweeper.run aig checker ~prng ~roots:[ f; g ] in
  (* whatever was proven before the trip survives, and is really proven *)
  check bool "no crash, report sane" true (report.Sweep.Sweeper.total_merges >= 0);
  let f' = Aig.rebuild aig ~repl f and g' = Aig.rebuild aig ~repl g in
  check bool "f preserved" true (semantically_equal aig 4 f f');
  check bool "g preserved" true (semantically_equal aig 4 g g')

let test_conflict_trip_does_not_skip_bdd_stage () =
  (* the conflict pool gates SAT, not BDDs: with the pool already dry the
     BDD stage must still close this purely-structural pair *)
  let aig, f, g = redundant_pair () in
  let l = Util.Limits.create ~max_conflicts:1 () in
  Util.Limits.charge_conflicts l 10;
  check bool "pool tripped up front" true (Util.Limits.exhausted l = Some Util.Limits.Conflicts);
  let checker = Cnf.Checker.create ~limits:l aig in
  let prng = Util.Prng.create 7 in
  let repl, report = Sweep.Sweeper.run aig checker ~prng ~roots:[ f; g ] in
  check bool "bdd merges found despite dry SAT pool" true (report.Sweep.Sweeper.bdd_merges > 0);
  check int "pair still merged" (Aig.rebuild aig ~repl f) (Aig.rebuild aig ~repl g)

(* ---------- quantification fallback ---------- *)

let test_quantify_fallback_equivalence () =
  (* a tripped governor keeps every variable (the paper's partial
     quantification abort): [all] hands back [f] itself with both
     variables kept, and [one], which does not read the governor, still
     computes the exact quantification *)
  let build () =
    let aig = Aig.create () in
    let xs = List.init 5 (Aig.var aig) in
    let f =
      match xs with
      | [ a; b; c; d; e ] ->
        Aig.or_ aig
          (Aig.and_ aig (Aig.xor_ aig a b) (Aig.or_ aig c d))
          (Aig.and_ aig e (Aig.and_ aig a (Aig.not_ c)))
      | _ -> assert false
    in
    (aig, f)
  in
  let aig, f = build () in
  let checker = Cnf.Checker.create ~limits:(expired ()) aig in
  let prng = Util.Prng.create 21 in
  let limited = Cbq.Quantify.all aig checker ~prng f ~vars:[ 0; 2 ] in
  check int "degraded quantification returns f" f limited.Cbq.Quantify.lit;
  check (Alcotest.list int) "both variables kept" [ 0; 2 ]
    (List.sort Int.compare limited.Cbq.Quantify.kept);
  check (Alcotest.list int) "none eliminated" [] limited.Cbq.Quantify.eliminated;
  let shannon =
    Aig.or_ aig (Aig.cofactor aig f ~v:0 ~phase:false) (Aig.cofactor aig f ~v:0 ~phase:true)
  in
  (match Cbq.Quantify.one aig checker ~prng f 0 with
  | (Ok g | Error g), _ ->
    check bool "one's result is the Shannon disjunction" true (semantically_equal aig 5 g shannon));
  (* and it is the set the unbounded path computes *)
  let aig_u, f_u = build () in
  let unbounded =
    Cbq.Quantify.one aig_u (Cnf.Checker.create aig_u) ~prng:(Util.Prng.create 21) f_u 0
  in
  match unbounded with
  | Ok g_u, _ ->
    let table aig l = List.init 32 (eval_mask aig l) in
    check bool "same set as the unbounded path" true (table aig_u g_u = table aig shannon)
  | Error _, _ -> Alcotest.fail "the unbounded path eliminates x0"

(* [all] is the one place that reacts to a trip: it polls before each
   variable and keeps the rest without cofactoring them, so the manager
   gains no node *)
let test_quantify_all_stops_at_a_trip () =
  let aig = Aig.create () in
  let n = 12 in
  let xs = Array.init n (Aig.var aig) in
  let f =
    List.fold_left (Aig.xor_ aig) Aig.false_
      (List.init n (fun i -> Aig.and_ aig xs.(i) (Aig.not_ xs.((i + 1) mod n))))
  in
  let vars = List.init n Fun.id in
  check int "every variable in the cone" n (List.length (Aig.support aig f));
  let limits = Util.Limits.create () in
  Util.Limits.cancel limits;
  let checker = Cnf.Checker.create ~limits aig in
  let nodes = Aig.num_nodes aig in
  let r = Cbq.Quantify.all aig checker ~prng:(Util.Prng.create 5) f ~vars in
  check int "returns its input literal" f r.Cbq.Quantify.lit;
  check (Alcotest.list int) "keeps every variable" vars (List.sort Int.compare r.Cbq.Quantify.kept);
  check (Alcotest.list int) "eliminates none" [] r.Cbq.Quantify.eliminated;
  check int "adds no AIG node" nodes (Aig.num_nodes aig)

(* the latency contract: a CBQ traversal cancelled from another domain
   mid-frame stops promptly, because the quantifier keeps the frame's
   remaining variables instead of grinding through them unoptimized *)
let test_cancel_stops_traversal () =
  (* mult-cmp 16 is one frame of about 0.3 s unbudgeted (2-vCPU VM), so
     50 ms is mid-frame *)
  let model, _ = Circuits.Registry.build "mult-cmp" (Some 16) in
  let limits = Util.Limits.create () in
  let config = { Cbq.Reachability.default with make_trace = false } in
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (Cbq.Reachability.run ~config ~limits model)))
  in
  Unix.sleepf 0.05;
  Util.Limits.cancel limits;
  let watch = Util.Stopwatch.start () in
  Domain.join d;
  let latency = Util.Stopwatch.elapsed watch in
  (match Atomic.get result with
  | Some { Cbq.Reachability.verdict = Cbq.Verdict.Undecided reason; _ } ->
    check string "names the cancel" "cancelled" reason
  | Some r ->
    Alcotest.fail
      (Format.asprintf "expected a cancelled run, got %a" Cbq.Verdict.pp r.Cbq.Reachability.verdict)
  | None -> Alcotest.fail "traversal returned nothing");
  check bool "stops within 2 s of the cancel" true (latency < 2.0)

(* ---------- engines: limited verdicts are never wrong ---------- *)

let families =
  [
    ("counter", Some 4);
    ("fifo-buggy", Some 2);
    ("arbiter", Some 4);
    ("gray", Some 3);
    ("counter-even", Some 5);
  ]

let agrees name (status : Circuits.Registry.status) (verdict : Cbq.Verdict.t) =
  match (verdict, status) with
  | Cbq.Verdict.Proved, Circuits.Registry.Safe -> ()
  | Cbq.Verdict.Falsified depth, Circuits.Registry.Unsafe d when depth = d -> ()
  | Cbq.Verdict.Undecided _, _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "%s: limited verdict disagrees with the oracle" name)

let test_backward_limited_verdicts_sound () =
  List.iter
    (fun (name, param) ->
      List.iter
        (fun budget ->
          let model, status = Circuits.Registry.build name param in
          let limits = Util.Limits.create ~max_conflicts:budget () in
          let config = { Cbq.Reachability.default with make_trace = false } in
          let r = Cbq.Reachability.run ~config ~limits model in
          agrees name status r.Cbq.Reachability.verdict)
        [ 0; 20; 500 ])
    families

let test_forward_limited_verdicts_sound () =
  List.iter
    (fun (name, param) ->
      List.iter
        (fun budget ->
          let model, status = Circuits.Registry.build name param in
          let limits = Util.Limits.create ~max_conflicts:budget () in
          let config = { Cbq.Reachability.default with make_trace = false } in
          let r = Cbq.Forward.run ~config ~limits model in
          agrees name status r.Cbq.Reachability.verdict)
        [ 0; 20; 500 ])
    families

let test_expired_deadline_is_anytime () =
  let model, _ = Circuits.Registry.build "counter" (Some 4) in
  let r = Cbq.Reachability.run ~limits:(expired ()) model in
  match r.Cbq.Reachability.verdict with
  | Cbq.Verdict.Undecided reason ->
    check string "names the deadline" "deadline" reason;
    check bool "anytime frame count" true (List.length r.Cbq.Reachability.iterations >= 0)
  | _ -> Alcotest.fail "expired run must be undecided"

let test_aig_ceiling_stops_traversal () =
  let model, _ = Circuits.Registry.build "counter" (Some 4) in
  (* the model alone already exceeds the ceiling: first frame check trips *)
  let limits = Util.Limits.create ~max_aig_nodes:1 () in
  let r = Cbq.Reachability.run ~limits model in
  match r.Cbq.Reachability.verdict with
  | Cbq.Verdict.Undecided reason ->
    check string "names the ceiling" "aig node ceiling" reason
  | _ -> Alcotest.fail "ceiling run must be undecided"

let baseline_agrees name (status : Circuits.Registry.status) (v : Baselines.Verdict.t) =
  match (v, status) with
  | Baselines.Verdict.Proved, Circuits.Registry.Safe -> ()
  | Baselines.Verdict.Falsified depth, Circuits.Registry.Unsafe d when depth = d -> ()
  | Baselines.Verdict.Undecided _, _ -> ()
  | _ -> Alcotest.fail (Printf.sprintf "%s: limited baseline verdict wrong" name)

let test_baselines_limited_verdicts_sound () =
  List.iter
    (fun (name, param) ->
      let run f =
        let model, status = Circuits.Registry.build name param in
        baseline_agrees name status (f model)
      in
      let limits () = Util.Limits.create ~max_conflicts:30 () in
      run (fun m -> (Baselines.Bmc.run ~limits:(limits ()) m).search.Cbq.Unroll.verdict);
      run (fun m -> (Baselines.Induction.run ~limits:(limits ()) m).Cbq.Unroll.verdict);
      run (fun m ->
          (Baselines.Cofactor_preimage.run ~limits:(limits ()) m).reach.Cbq.Reachability.verdict);
      run (fun m -> (Baselines.Hybrid.run ~limits:(limits ()) m).reach.Cbq.Reachability.verdict);
      run (fun m ->
          (Baselines.Bdd_mc.backward ~limits:(Util.Limits.create ~max_bdd_nodes:40 ()) m).reach
            .Cbq.Reachability.verdict);
      run (fun m ->
          (Baselines.Bdd_mc.forward ~limits:(Util.Limits.create ~timeout:0.0 ()) m).reach
            .Cbq.Reachability.verdict))
    families

(* the deepening loop's stopping rules, for both engines on it. counter 4
   fails at depth 15, so a stopped run that read PROVED or FALSIFIED
   would be wrong or unearned *)
let test_deepening_stops () =
  let engines =
    [
      ( "bmc",
        fun ~limits ~max_depth m -> (Baselines.Bmc.run ~limits ~max_depth m).Baselines.Bmc.search
      );
      ("induction", fun ~limits ~max_depth m -> Baselines.Induction.run ~limits ~max_k:max_depth m);
    ]
  in
  let cancelled () =
    let l = Util.Limits.create () in
    Util.Limits.cancel l;
    l
  in
  let pool_drained why =
    match Scanf.sscanf why "conflict pool (depth %d)%!" Fun.id with
    | depth -> depth > 0
    | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> false
  in
  let cases =
    [
      ("cancelled first", cancelled, 30, fun _ why -> why = "cancelled (depth 0)");
      ("pool drained", (fun () -> Util.Limits.create ~max_conflicts:20 ()), 30, fun _ -> pool_drained);
      ( "bound",
        (fun () -> Util.Limits.unlimited),
        5,
        fun engine why -> why = if engine = "bmc" then "bound 5" else "no convergence by k=5" );
    ]
  in
  List.iter
    (fun (engine, run) ->
      List.iter
        (fun (case, limits, max_depth, expected) ->
          let model, _ = Circuits.Registry.build "counter" (Some 4) in
          match (run ~limits:(limits ()) ~max_depth model).Cbq.Unroll.verdict with
          | Cbq.Verdict.Undecided why ->
            check bool (Printf.sprintf "%s, %s: %S" engine case why) true (expected engine why)
          | v -> Alcotest.failf "%s, %s: %a" engine case Cbq.Verdict.pp v)
        cases)
    engines

let test_bdd_engine_names_the_pool () =
  let model, _ = Circuits.Registry.build "counter" (Some 4) in
  let r = Baselines.Bdd_mc.backward ~limits:(Util.Limits.create ~max_bdd_nodes:10 ()) model in
  match r.reach.Cbq.Reachability.verdict with
  | Baselines.Verdict.Undecided why ->
    check string "verdict names the pool" "bdd node pool" why
  | _ -> Alcotest.fail "tiny bdd pool must leave the verdict undecided"

(* the certificate check under a governor: a query it leaves undecided
   neither accepts nor rejects, whatever the invariant *)
let test_certify_cancelled () =
  let model, _ = Circuits.Registry.build "gray" (Some 3) in
  let r = Cbq.Reachability.run model in
  let valid = Option.get r.Cbq.Reachability.invariant in
  check bool "the invariant certifies" true (Cbq.Certify.check model ~invariant:valid = Ok ());
  let invalid = Aig.var (Netlist.Model.aig model) (List.hd (Netlist.Model.state_vars model)) in
  check bool "the other does not" true (Cbq.Certify.check model ~invariant:invalid <> Ok ());
  let limits = Util.Limits.create () in
  Util.Limits.cancel limits;
  List.iter
    (fun (label, invariant) ->
      check bool (label ^ " left unchecked") true
        (Cbq.Certify.check ~limits model ~invariant = Error (Cbq.Certify.Unchecked "cancelled")))
    [ ("valid", valid); ("invalid", invalid) ]

let () =
  Alcotest.run "limits"
    [
      ( "governor",
        [
          Alcotest.test_case "unlimited never trips" `Quick test_unlimited_never_trips;
          Alcotest.test_case "deadline trips and sticks" `Quick test_deadline_trips_and_sticks;
          Alcotest.test_case "conflict pool drains" `Quick test_conflict_pool_drains;
          Alcotest.test_case "aig ceiling" `Quick test_aig_ceiling;
          Alcotest.test_case "bdd pool is non-fatal" `Quick test_bdd_pool_is_non_fatal;
          Alcotest.test_case "first trip wins, notify fires once" `Quick
            test_first_trip_wins_and_notify_fires_once;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "cancel trips and sticks" `Quick test_cancel_trips_and_sticks;
          Alcotest.test_case "first trip wins over cancel" `Quick
            test_cancel_does_not_displace_first_trip;
          Alcotest.test_case "unlimited refuses cancel" `Quick test_cancel_unlimited_refused;
          Alcotest.test_case "cancel stops a racing solver" `Quick
            test_cancel_stops_racing_solver;
        ] );
      ( "sat",
        [
          Alcotest.test_case "checker shortcuts to Maybe" `Quick test_checker_shortcuts_to_maybe;
          Alcotest.test_case "checker polls the deadline" `Quick test_checker_polls_the_deadline;
          Alcotest.test_case "solver charges the pool" `Quick test_solver_charges_the_pool;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "expired deadline keeps soundness" `Quick
            test_sweep_under_expired_deadline_is_sound;
          Alcotest.test_case "conflict trip keeps the bdd stage" `Quick
            test_conflict_trip_does_not_skip_bdd_stage;
        ] );
      ( "quantify",
        [
          Alcotest.test_case "fallback computes the same set" `Quick
            test_quantify_fallback_equivalence;
          Alcotest.test_case "a trip stops the variable loop" `Quick
            test_quantify_all_stops_at_a_trip;
          Alcotest.test_case "cancel stops a traversal mid-frame" `Quick
            test_cancel_stops_traversal;
        ] );
      ( "engines",
        [
          Alcotest.test_case "backward: limited verdicts sound" `Quick
            test_backward_limited_verdicts_sound;
          Alcotest.test_case "forward: limited verdicts sound" `Quick
            test_forward_limited_verdicts_sound;
          Alcotest.test_case "expired deadline is anytime" `Quick test_expired_deadline_is_anytime;
          Alcotest.test_case "aig ceiling stops traversal" `Quick test_aig_ceiling_stops_traversal;
          Alcotest.test_case "baselines: limited verdicts sound" `Quick
            test_baselines_limited_verdicts_sound;
          Alcotest.test_case "deepening loop stops undecided" `Quick test_deepening_stops;
          Alcotest.test_case "bdd engine names its pool" `Quick test_bdd_engine_names_the_pool;
          Alcotest.test_case "certificate check under a cancel" `Quick test_certify_cancelled;
        ] );
    ]
