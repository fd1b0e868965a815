(* perf: time to verdict on the fixed workloads, plus a traced per-layer
   profile. See README.md for the workloads, the metrics and their
   bounds.

     dune exec bench/perf/perf.exe -- [--workload W]... [--seed N]
       [--seconds S] [--repeats R] [--trace 0|1] [--json FILE] [--store DIR]

   Every (workload, repeat) runs in a fresh child process of this
   executable, so each run starts with a clean heap and its own peak
   RSS. With --trace 0 the children run untraced and the harness
   reports the end-to-end metrics; with --trace 1 it runs an untraced
   and a traced child per repeat and reports the per-layer metrics,
   including the tracing overhead between the two.

   Prints "<workload> <metric> <value> <unit>" for every metric, then
   one JSON object as the last line of stdout. Exits 1 when any job
   gave a wrong answer (see Outcome), 2 on a usage error or a child
   that died without a result. *)

open Perf_lib

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("job_geomean_s", "s");
    ("jobs_per_s", "1/s");
    ("latency_p50_s", "s");
    ("latency_p99_s", "s");
    ("decided_frac", "ratio");
    ("peak_rss_mb", "MB");
  ]

(* Timings are the best of their repetitions within a run. On a
   shared machine other tenants' load comes in bursts of a few seconds
   that only ever add time, and the fastest repetition is the one a
   burst missed. Set-up takes a few milliseconds, so it is repeated
   this often before every pass, which spreads its samples over the
   run like the passes'. *)
let setups_per_pass = 3

let best xs = List.fold_left Float.min Float.infinity xs
let pass_wall = "pass_wall_s"

(* ---------- the child: one measured run of one workload ---------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(* An engine job runs alone, so each job's best pass is its time to
   verdict. serve-mix jobs share two workers and only a whole pass
   repeats, so each figure is the best any pass reached. *)
let run_metrics (w : Workloads.t) orders (passes : Passes.pass list) =
  let order = List.hd orders in
  let summary samples = (Stats.geomean samples, Stats.percentile 50.0 samples, Stats.percentile 99.0 samples) in
  let wall, (geomean, p50, p99) =
    match w.kind with
    | Workloads.Engine ->
      let per_job = Hashtbl.create 16 in
      List.iter2
        (fun order (p : Passes.pass) ->
          List.iteri (fun k dt -> Hashtbl.add per_job order.(k) dt) p.seconds)
        orders passes;
      let times = Array.to_list (Array.map (fun i -> best (Hashtbl.find_all per_job i)) order) in
      (List.fold_left ( +. ) 0.0 times, summary times)
    | Workloads.Serve ->
      let each = List.map (fun (p : Passes.pass) -> summary p.seconds) passes in
      ( best (List.map (fun (p : Passes.pass) -> p.wall) passes),
        ( best (List.map (fun (g, _, _) -> g) each),
          best (List.map (fun (_, m, _) -> m) each),
          best (List.map (fun (_, _, t) -> t) each) ) )
  in
  let outcomes = List.concat_map (fun (p : Passes.pass) -> p.outcomes) passes in
  [
    ("wall_s", wall);
    ("job_geomean_s", geomean);
    ("jobs_per_s", float_of_int (Array.length order) /. wall);
    ("latency_p50_s", p50);
    ("latency_p99_s", p99);
    ("decided_frac", float_of_int (Outcome.decided outcomes) /. float_of_int (List.length outcomes));
  ]

(* Untraced runs repeat whole passes, each in its own order, while the
   next one fits in [seconds] (at least one), all on one set-up, as a
   user's models and daemon would stay up. Before every pass set-up is
   timed again on throwaway copies, so its samples spread over the run
   like the passes'. A traced run makes exactly one pass, whose
   counters are the per-layer totals. *)
let child (w : Workloads.t) ~seed ~seconds ~trace =
  let setups = ref [] in
  let timed_setup () =
    let s, dt = Util.Stopwatch.time (fun () -> Passes.setup w) in
    setups := (s, dt) :: !setups;
    s
  in
  let s = timed_setup () in
  let watch = Util.Stopwatch.start () in
  let rec loop k acc =
    for _ = 1 to setups_per_pass do
      Passes.teardown (timed_setup ())
    done;
    let order = Workloads.sequence w ~seed ~pass:k in
    (* counters and the ring see the pass, not the set-ups *)
    if trace then begin
      Obs.reset ();
      Obs.set_enabled true;
      Obs.Trace_events.reset ~limit:Passes.trace_limit ();
      Obs.Trace_events.set_enabled true
    end;
    let p = Passes.pass s w order in
    let acc = (order, p) :: acc in
    if trace || Util.Stopwatch.elapsed watch +. p.wall > seconds then List.rev acc
    else loop (k + 1) acc
  in
  let orders, passes =
    List.split (Fun.protect ~finally:(fun () -> Passes.teardown s) (fun () -> loop 0 []))
  in
  let best_of f = best (List.map f !setups) in
  Obs.Trace_events.set_enabled false;
  let layers =
    if not trace then []
    else
      Layers.measure
        {
          build_s = best_of (fun (s, _) -> s.Passes.build_s);
          freeze_s = best_of (fun (s, _) -> s.Passes.freeze_s);
          pass = List.hd passes;
          counter = (fun name -> float_of_int (Obs.value_of name));
        }
  in
  let profile_errors =
    List.fold_left
      (fun acc (p : Passes.pass) ->
        acc + p.profile.unclosed + p.profile.unmatched + p.dropped + p.bad_sums)
      0 passes
  in
  let outcomes = List.concat_map (fun (p : Passes.pass) -> p.outcomes) passes in
  let metrics =
    (("setup_s", best_of snd) :: run_metrics w orders passes)
    @ [
        ("peak_rss_mb", peak_rss_mb ());
        (* a traced run has one pass, so the overhead compares typical passes *)
        (pass_wall, Stats.median (List.map (fun (p : Passes.pass) -> p.wall) passes));
      ]
    @ layers
  in
  Obs.Json.(
    Obj
      [
        ("attempted", Int (List.length outcomes));
        ("failed", Int (Outcome.failed outcomes));
        ("profile_errors", Int profile_errors);
        ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) metrics));
      ])

(* ---------- the parent: spawn, aggregate, report ---------- *)

type run = { attempted : int; failed : int; profile_errors : int; values : (string * float) list }

exception Child_failed of string

(* The child being waited for, so that a parent told to stop stops it
   too, and waits for it, instead of leaving it running. *)
let running_child = ref None

let stop_child_and_exit signal =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    !running_child;
  exit (128 + signal)

let spawn_child ~workload ~seed ~seconds ~trace =
  let args =
    [|
      Sys.executable_name; "--child"; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin out_w Unix.stderr in
  running_child := Some pid;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let output = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  running_child := None;
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) ""
      (String.split_on_char '\n' output)
  in
  let int key json = match Obs.Json.member key json with Some (Obs.Json.Int i) -> i | _ -> 0 in
  match (status, Obs.Json.of_string last) with
  | Unix.WEXITED 0, Ok json ->
    let values =
      match Obs.Json.member "metrics" json with
      | Some (Obs.Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match v with
            | Obs.Json.Float f -> Some (k, f)
            | Obs.Json.Int i -> Some (k, float_of_int i)
            | _ -> None)
          fields
      | _ -> []
    in
    {
      attempted = int "attempted" json;
      failed = int "failed" json;
      profile_errors = int "profile_errors" json;
      values;
    }
  | _ -> raise (Child_failed (Printf.sprintf "%s child (seed %d) ended without a result" workload seed))

type summary = {
  workload : string;
  attempted : int;
  failed : int;
  profile_errors : int;
  metrics : (string * string * float * float list) list;  (** name, unit, median, samples *)
}

let summarize workload ~units ~extra runs =
  let samples name = List.filter_map (fun (r : run) -> List.assoc_opt name r.values) runs in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name extra with
        | Some v -> (name, unit, v, [ v ])
        | None ->
          let xs = samples name in
          (name, unit, Stats.median xs, xs))
      units
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 runs in
  {
    workload;
    attempted = sum (fun (r : run) -> r.attempted);
    failed = sum (fun (r : run) -> r.failed);
    profile_errors = sum (fun (r : run) -> r.profile_errors);
    metrics;
  }

(* --trace 0: the end-to-end metrics of [repeats] untraced children.
   --trace 1: the per-layer metrics of [repeats] traced children, with
   the tracing overhead measured against as many untraced ones. *)
let measure_workload ~seed ~seconds ~repeats ~trace workload =
  let runs traced = List.init repeats (fun _ -> spawn_child ~workload ~seed ~seconds ~trace:traced) in
  let untraced = runs false in
  if not trace then summarize workload ~units:end_to_end ~extra:[] untraced
  else
    let traced = runs true in
    let wall rs = Stats.median (List.filter_map (fun (r : run) -> List.assoc_opt pass_wall r.values) rs) in
    let overhead = Stats.ratio (wall traced) (wall untraced) -. 1.0 in
    let s = summarize workload ~units:Layers.units ~extra:[ (Layers.overhead_frac, overhead) ] traced in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 untraced in
    {
      s with
      attempted = s.attempted + sum (fun (r : run) -> r.attempted);
      failed = s.failed + sum (fun (r : run) -> r.failed);
    }

let correct s = Outcome.exit_code ~failed:s.failed ~profile_errors:s.profile_errors = 0
let failed_frac s = Stats.ratio (float_of_int s.failed) (float_of_int s.attempted)

(* One schema-2 report per workload run: seconds-valued metrics as
   spans (timing, so [cbq_mc report trend] shows them without gating
   on them by default), the rest and the job tallies as counters. *)
let store_report ~seed ~trace s =
  Obs.reset ();
  List.iter
    (fun (k, v) -> Obs.meta k v)
    [
      ("tool", "perf"); ("model", s.workload); ("engine", "perf");
      ("verdict", if correct s then "ok" else "failed");
      ("seed", string_of_int seed); ("trace", if trace then "1" else "0");
    ];
  let spans, counters =
    List.partition (fun (_, unit, _, _) -> unit = "s") s.metrics
  in
  let counters =
    [
      ("perf.attempted", Obs.Json.Int s.attempted);
      ("perf.failed", Obs.Json.Int s.failed);
    ]
    @ List.map (fun (name, _, v, _) -> (name, Obs.Json.Float v)) counters
  in
  let spans =
    List.map
      (fun (name, _, v, xs) ->
        (name, Obs.Json.(Obj [ ("count", Int (List.length xs)); ("seconds", Float v) ])))
      spans
  in
  match Obs.report () with
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map
         (function
           | "counters", _ -> ("counters", Obs.Json.Obj counters)
           | "spans", _ -> ("spans", Obs.Json.Obj spans)
           | "histograms", _ -> ("histograms", Obs.Json.Obj [])
           | field -> field)
         fields)
  | other -> other

let summary_json ~prefix s =
  List.map
    (fun (name, unit, v, _) ->
      (prefix ^ name, Obs.Json.(Obj [ ("value", Float v); ("unit", String unit) ])))
    s.metrics

let detail_json s =
  Obs.Json.(
    Obj
      [
        ("attempted", Int s.attempted);
        ("failed", Int s.failed);
        ("profile_errors", Int s.profile_errors);
        ( "metrics",
          Obj
            (List.map
               (fun (name, unit, v, xs) ->
                 ( name,
                   Obj
                     [
                       ("value", Float v); ("unit", String unit);
                       ("samples", List (List.map (fun x -> Float x) xs));
                     ] ))
               s.metrics) );
      ])

(* ---------- command line ---------- *)

let () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 25.0 and repeats = ref 1 in
  let trace = ref 0 and json = ref None and store = ref None and is_child = ref false in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> workloads := w :: !workloads),
        "W  run workload W (repeatable; default all): " ^ String.concat ", " Workloads.names );
      ("--seed", Arg.Set_int seed, "N  seed for the job order and the serve-mix draw (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  measure whole passes while the next fits in S seconds, at least one (default 25)" );
      ("--repeats", Arg.Set_int repeats, "R  child processes per workload (default 1)");
      ("--trace", Arg.Set_int trace, "0|1  1 reports the per-layer metrics of a traced run");
      ("--json", Arg.String (fun f -> json := Some f), "FILE  also write every sample to FILE");
      ("--store", Arg.String (fun d -> store := Some d), "DIR  append one report per workload to an Obs store");
      ("--child", Arg.Set is_child, " (internal) run one measured child");
    ]
  in
  let usage = "perf [--workload W]... [--seed N] [--seconds S] [--repeats R] [--trace 0|1] [--json FILE] [--store DIR]" in
  let usage_error msg =
    prerr_endline ("perf: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> usage_error ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> prerr_string msg; exit 2
  | Arg.Help msg -> print_string msg; exit 0);
  let names = if !workloads = [] then Workloads.names else List.rev !workloads in
  let find name = match Workloads.find name with Some w -> w | None -> usage_error ("unknown workload " ^ name) in
  let ws = List.map find names in
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if !repeats < 1 || !seconds <= 0.0 then usage_error "--repeats and --seconds must be positive";
  List.iter
    (fun (signal, code) -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> stop_child_and_exit code)))
    [ (Sys.sigint, 2); (Sys.sigterm, 15) ];
  if !is_child then begin
    print_endline
      (Obs.Json.to_string (child (List.hd ws) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)));
    exit 0
  end;
  let summaries =
    try
      List.map
        (fun (w : Workloads.t) ->
          let s = measure_workload ~seed:!seed ~seconds:!seconds ~repeats:!repeats ~trace:(!trace = 1) w.name in
          List.iter (fun (name, unit, v, _) -> Printf.printf "%s %s %.9g %s\n%!" s.workload name v unit) s.metrics;
          Printf.printf "%s failed_frac %.9g ratio\n%!" s.workload (failed_frac s);
          s)
        ws
    with Child_failed msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2
  in
  Option.iter
    (fun dir ->
      let st = Obs.Store.open_ dir in
      List.iter (fun s -> ignore (Obs.Store.append st (store_report ~seed:!seed ~trace:(!trace = 1) s))) summaries;
      Obs.Store.flush st)
    !store;
  Option.iter
    (fun file ->
      Util.Fs.ensure_parent file;
      Out_channel.with_open_text file (fun oc ->
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("seed", Obs.Json.Int !seed); ("seconds", Obs.Json.Float !seconds);
                    ("repeats", Obs.Json.Int !repeats); ("trace", Obs.Json.Int !trace);
                    ("workloads", Obs.Json.Obj (List.map (fun s -> (s.workload, detail_json s)) summaries));
                  ]));
          output_char oc '\n'))
    !json;
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
  let code =
    Outcome.exit_code ~failed:(sum (fun s -> s.failed)) ~profile_errors:(sum (fun s -> s.profile_errors))
  in
  let prefix s = match summaries with [ _ ] -> "" | _ -> s.workload ^ "." in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (code = 0));
            ("attempted", Obs.Json.Int (sum (fun s -> s.attempted)));
            ("failed", Obs.Json.Int (sum (fun s -> s.failed)));
            ("metrics", Obs.Json.Obj (List.concat_map (fun s -> summary_json ~prefix:(prefix s) s) summaries));
          ]));
  exit code
