(* The harness's pure metric code: the self-time profiler, the
   percentile and geomean conventions, job classification, and the
   exit status a planted wrong verdict produces. *)

open Perf_lib

let close = Alcotest.float 1e-9
let check = Alcotest.check
let int = Alcotest.int

let ev ?(tid = 0) name ph ts =
  {
    Obs.Trace_events.ev_name = name;
    ev_ph = ph;
    ev_ts = ts;
    ev_tid = tid;
    ev_arg_key = "";
    ev_arg_value = 0;
  }

(* ---------- profile ---------- *)

(* Lane 0: job [0,100] ⊃ sat [10,30], sweep [40,90] ⊃ sat [50,60].
   Lane 1, interleaved: job [5,55] ⊃ sat [20,25], then a begin that
   never ends. Timestamps are microseconds. *)
let nested_events =
  [
    ev "job" 'B' 0.0; ev ~tid:1 "job" 'B' 5.0; ev "sat" 'B' 10.0; ev ~tid:1 "sat" 'B' 20.0;
    ev ~tid:1 "sat" 'E' 25.0; ev "sat" 'E' 30.0; ev "sweep" 'B' 40.0; ev "sat" 'B' 50.0;
    ev ~tid:1 "job" 'E' 55.0; ev "sat" 'E' 60.0; ev ~tid:1 "late" 'B' 70.0; ev "sweep" 'E' 90.0;
    ev "job" 'E' 100.0;
  ]

let us x = x *. 1e-6

let profile_of events =
  let p = Profile.create () in
  Profile.add p events;
  p

let test_self_time_nesting () =
  let p = profile_of nested_events in
  check close "lane 0 job self" (us 30.0) (Profile.self_s ~tid:0 p "job");
  check close "lane 1 job self" (us 45.0) (Profile.self_s ~tid:1 p "job");
  check close "sweep self" (us 40.0) (Profile.self_s p "sweep");
  check close "sat is a leaf: self = total" (us 35.0) (Profile.self_s p "sat");
  check close "sat total" (us 35.0) (Profile.total_s p "sat");
  check int "sat calls" 3 (Profile.calls p "sat");
  check close "sat directly under sweep" (us 10.0)
    (Profile.time_under p "sat" ~parent:(String.equal "sweep"));
  check close "sat directly under job, both lanes" (us 25.0)
    (Profile.time_under p "sat" ~parent:(String.equal "job"));
  check close "lane 0 self times add up to its root" (us 100.0)
    (Profile.lane_self_s p ~tid:0 ~excluded:[]);
  check int "every event seen" 13 p.events

let test_unclosed_begin () =
  let p = profile_of nested_events in
  check int "one unclosed begin" 1 p.unclosed;
  check int "no unmatched end" 0 p.unmatched;
  check close "never stretched to the last timestamp" 0.0 (Profile.total_s p "late");
  check int "and never counted as a call" 0 (Profile.calls p "late")

let test_unmatched_end () =
  let p = profile_of [ ev "a" 'E' 1.0; ev "a" 'B' 2.0; ev "b" 'E' 3.0 ] in
  check int "orphan end and misnamed end" 2 p.unmatched;
  check int "misnamed end still pops" 0 p.unclosed

let test_merge () =
  let a = profile_of nested_events in
  Profile.merge ~into:a (profile_of nested_events);
  check close "self times add" (us 80.0) (Profile.self_s a "sweep");
  check int "calls add" 6 (Profile.calls a "sat");
  check int "durations kept per call" 6 (List.length (Profile.durations a "sat"));
  check int "unclosed add" 2 a.unclosed

(* ---------- statistics ---------- *)

let test_percentile_nearest_rank () =
  let xs = List.init 10 (fun i -> float_of_int (10 - i)) in
  check close "p50 of 1..10" 5.0 (Stats.percentile 50.0 xs);
  check close "p90 of 1..10" 9.0 (Stats.percentile 90.0 xs);
  check close "p99 of 1..10 is the max" 10.0 (Stats.percentile 99.0 xs);
  check close "p10 of 1..10" 1.0 (Stats.percentile 10.0 xs);
  check close "median of three" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check close "median of an even count averages the middle pair" 2.5
    (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  let big = List.init 2000 (fun i -> float_of_int (i + 1)) in
  check close "p99 of 2000 leaves 20 above it" 1980.0 (Stats.percentile 99.0 big);
  check close "empty" 0.0 (Stats.percentile 50.0 [])

let test_geomean () =
  check close "1 and 4" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  check (Alcotest.float 1e-12) "ms and ks balance" 1.0 (Stats.geomean [ 0.001; 1000.0 ]);
  check close "constant" 0.5 (Stats.geomean [ 0.5; 0.5; 0.5 ]);
  check close "empty" 0.0 (Stats.geomean [])

(* ---------- outcomes ---------- *)

let outcome = Alcotest.testable (fun ppf o ->
    Format.pp_print_string ppf
      (match o with
      | Outcome.Decided -> "decided"
      | Bounded -> "bounded"
      | Failed why -> "failed: " ^ why))
    (fun a b ->
      match (a, b) with
      | Outcome.Failed _, Outcome.Failed _ -> true
      | _ -> a = b)

let classify ?(exhausted = None) ?(trace_ok = None) status verdict =
  Outcome.classify ~status ~verdict ~exhausted ~trace_ok

let test_classification () =
  let open Baselines.Verdict in
  let unsafe = Circuits.Registry.Unsafe 3 and safe = Circuits.Registry.Safe in
  check outcome "method bound is not a failure" Bounded
    (classify safe (Undecided "bound 30"));
  check outcome "deadline trip is a failure" (Failed "")
    (classify ~exhausted:(Some Util.Limits.Deadline) safe (Undecided "deadline"));
  check outcome "wrong verdict" (Failed "") (classify unsafe Proved);
  check outcome "wrong depth" (Failed "") (classify unsafe (Falsified 2));
  check outcome "counterexample that does not replay" (Failed "")
    (classify ~trace_ok:(Some false) unsafe (Falsified 3));
  check outcome "right answer" Decided (classify ~trace_ok:(Some true) unsafe (Falsified 3));
  check outcome "proof" Decided (classify safe Proved)

(* A planted wrong verdict travels through the same job runner, pass
   and exit status the harness uses. *)
let planted_pass engine =
  let model, status = Circuits.Registry.build "counter" (Some 2) in
  let job = { Workloads.model = "counter"; param = 2; engine = engine.Baselines.Suite.name } in
  let prepared =
    {
      Passes.job;
      status;
      model_name = Netlist.Model.name model;
      payload = Passes.Frozen (Par.Clone.freeze model);
      engine;
    }
  in
  let setup = { Passes.jobs = [| prepared |]; build_s = 0.0; freeze_s = 0.0; daemon = None } in
  Passes.engine_pass setup [| 0 |]

let exit_code_of (p : Passes.pass) =
  Outcome.exit_code ~failed:(Outcome.failed p.outcomes) ~profile_errors:0

let test_planted_wrong_verdict () =
  let liar =
    { Baselines.Suite.name = "liar"; run = (fun ~limits:_ _ -> (Baselines.Verdict.Proved, None)) }
  in
  let p = planted_pass liar in
  check int "the wrong verdict is a failed job" 1 (Outcome.failed p.outcomes);
  check int "and the harness exits non-zero" 1 (exit_code_of p);
  let honest = Option.get (Baselines.Suite.find "cbq-bwd") in
  check int "the real engine passes" 0 (exit_code_of (planted_pass honest));
  check int "profile errors alone fail the run" 1 (Outcome.exit_code ~failed:0 ~profile_errors:1)

let () =
  Alcotest.run "perf"
    [
      ( "profile",
        [
          Alcotest.test_case "self time with nesting and two lanes" `Quick test_self_time_nesting;
          Alcotest.test_case "unclosed begin" `Quick test_unclosed_begin;
          Alcotest.test_case "unmatched end" `Quick test_unmatched_end;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "planted wrong verdict" `Quick test_planted_wrong_verdict;
        ] );
    ]
