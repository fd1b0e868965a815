(* Set-up and one pass of a workload.

   Engine workloads run one job at a time on the calling domain, a
   closed loop with one client: each job thaws a fresh clone of its
   frozen model and runs under a fresh governor. serve-mix drives an
   in-process daemon with two worker domains over a Unix socket, one
   connection keeping [outstanding] jobs in flight. *)

let job_timeout = 60.0
let outstanding = 4
let serve_workers = 2

type payload = Frozen of Par.Clone.frozen | Aiger of string

type prepared = {
  job : Workloads.job;
  status : Circuits.Registry.status;
  model_name : string;
  payload : payload;
  engine : Baselines.Suite.engine;
}

type daemon = { dir : string; server : Serve.Server.t; client : Serve.Client.t }
type setup = { jobs : prepared array; build_s : float; freeze_s : float; daemon : daemon option }

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The socket and the store live in a fresh directory under the current
   one: a relative socket path stays within the Unix path-length limit
   wherever the checkout is. *)
let start_daemon () =
  let dir = Filename.temp_dir ~temp_dir:Filename.current_dir_name ".perf-" "" in
  at_exit (fun () -> if Sys.file_exists dir then rm_rf dir);
  let store = Obs.Store.open_ (Filename.concat dir "store") in
  let server =
    Serve.Server.start ~jobs:serve_workers ~store
      (Serve.Protocol.Unix_path (Filename.concat dir "s.sock"))
  in
  let client = Serve.Client.connect (Serve.Server.address server) in
  Serve.Client.ping client;
  { dir; server; client }

let teardown s =
  Option.iter
    (fun d ->
      Serve.Client.close d.client;
      Serve.Server.stop d.server;
      Serve.Server.wait d.server;
      if Sys.file_exists d.dir then rm_rf d.dir)
    s.daemon

let setup (w : Workloads.t) =
  let build_s = ref 0.0 and freeze_s = ref 0.0 in
  let timed acc f =
    let x, dt = Util.Stopwatch.time f in
    acc := !acc +. dt;
    x
  in
  let prepare (job : Workloads.job) =
    let model, status = timed build_s (fun () -> Circuits.Registry.build job.model (Some job.param)) in
    let payload =
      timed freeze_s (fun () ->
          match w.kind with
          | Workloads.Engine -> Frozen (Par.Clone.freeze model)
          | Workloads.Serve -> Aiger (Netlist.Aiger.write model))
    in
    let engine =
      match Baselines.Suite.find job.engine with
      | Some e -> e
      | None -> failwith ("unknown engine " ^ job.engine)
    in
    { job; status; model_name = Netlist.Model.name model; payload; engine }
  in
  let jobs = Array.of_list (List.map prepare (Workloads.distinct_jobs w)) in
  let daemon = match w.kind with Workloads.Engine -> None | Workloads.Serve -> Some (start_daemon ()) in
  { jobs; build_s = !build_s; freeze_s = !freeze_s; daemon }

(* ---------- one pass ---------- *)

(* Client-seen serve timings, one entry per finished job. *)
type serve_times = {
  queue_wait : float list;  (** Accepted → Started *)
  run : float list;  (** Started → Done *)
  engine_s : float list;  (** the job's own [seconds] from Done *)
  overhead : float list;  (** latency − queue wait − engine seconds *)
}

type pass = {
  wall : float;
  seconds : float list;  (** per job: time to verdict, or submit → Done latency *)
  outcomes : Outcome.t list;
  profile : Profile.t;  (** empty unless tracing *)
  dropped : int;
  engine_time : (string * (float * float)) list;
      (** engine name → (bench.engine total, self) seconds, traced runs *)
  bad_sums : int;  (** jobs whose phase self times miss their bench.engine span *)
  serve : serve_times;
}

let no_serve = { queue_wait = []; run = []; engine_s = []; overhead = [] }
let trace_limit = 1 lsl 24
let tracing () = !Obs.Trace_events.enabled

let describe (p : prepared) = Printf.sprintf "%s %s %d" p.job.engine p.job.model p.job.param

(* One engine job: thaw, run, verdict. Only thaw and the engine run are
   timed; the counterexample replay on a second thaw is not. *)
let run_engine_job (p : prepared) =
  let frozen = match p.payload with Frozen f -> f | Aiger _ -> invalid_arg "run_engine_job" in
  Obs.Trace_events.begin_ "bench.job";
  let watch = Util.Stopwatch.start () in
  Obs.Trace_events.begin_ "bench.thaw";
  let model = Par.Clone.thaw frozen in
  Obs.Trace_events.end_ "bench.thaw";
  let limits = Util.Limits.create ~timeout:job_timeout () in
  Obs.Trace_events.begin_ "bench.engine";
  let answer = try Ok (p.engine.run ~limits model) with e -> Error (Printexc.to_string e) in
  Obs.Trace_events.end_ "bench.engine";
  let seconds = Util.Stopwatch.elapsed watch in
  Obs.Trace_events.end_ "bench.job";
  let outcome =
    match answer with
    | Error msg -> Outcome.Failed ("crashed: " ^ msg)
    | Ok (verdict, trace) ->
      let trace_ok =
        Option.map
          (fun tr -> try Cbq.Trace.check (Par.Clone.thaw frozen) tr with _ -> false)
          trace
      in
      Outcome.classify ~status:p.status ~verdict ~exhausted:(Util.Limits.exhausted limits)
        ~trace_ok
  in
  (seconds, outcome)

let report_failure (p : prepared) = function
  | Outcome.Failed why -> Printf.eprintf "perf: FAIL %s: %s\n%!" (describe p) why
  | Outcome.Decided | Outcome.Bounded -> ()

(* Traced engine passes reset the ring before every job, so one job's
   events never push another's out, and profile each job on its own
   before folding it in. *)
let engine_pass (s : setup) order =
  let profile = Profile.create () in
  let dropped = ref 0 and bad_sums = ref 0 in
  let engine_time = Hashtbl.create 8 in
  let lane = (Domain.self () :> int) in
  let run idx =
    let p = s.jobs.(idx) in
    (* every job starts from the same collected heap, whatever ran
       before it in this pass's order *)
    Gc.full_major ();
    if tracing () then Obs.Trace_events.reset ();
    let seconds, outcome = run_engine_job p in
    report_failure p outcome;
    if tracing () then begin
      let job = Profile.create () in
      Profile.add job (Obs.Trace_events.events ());
      dropped := !dropped + Obs.Trace_events.dropped ();
      let total = Profile.total_s ~tid:lane job "bench.engine" in
      let inside = Profile.lane_self_s job ~tid:lane ~excluded:[ "bench.job"; "bench.thaw" ] in
      if Float.abs (inside -. total) > 0.01 *. total then begin
        incr bad_sums;
        Printf.eprintf "perf: %s: phase self times sum to %.6fs, bench.engine is %.6fs\n%!"
          (describe p) inside total
      end;
      let t0, s0 = Option.value (Hashtbl.find_opt engine_time p.job.engine) ~default:(0.0, 0.0) in
      Hashtbl.replace engine_time p.job.engine
        (t0 +. total, s0 +. Profile.self_s ~tid:lane job "bench.engine");
      Profile.merge ~into:profile job
    end;
    (seconds, outcome)
  in
  let results = Array.to_list (Array.map run order) in
  {
    wall = List.fold_left (fun acc (dt, _) -> acc +. dt) 0.0 results;
    seconds = List.map fst results;
    outcomes = List.map snd results;
    profile;
    dropped = !dropped;
    engine_time = List.of_seq (Hashtbl.to_seq engine_time);
    bad_sums = !bad_sums;
    serve = no_serve;
  }

(* serve-mix: every job must come back Done with its oracle verdict. *)
let serve_pass (s : setup) order =
  let d = match s.daemon with Some d -> d | None -> invalid_arg "serve_pass" in
  let n = Array.length order in
  let submitted = Array.make n 0.0 and accepted = Array.make n 0.0 and started = Array.make n 0.0 in
  let outcomes = Array.make n (Outcome.Failed "no reply") in
  let latency = Array.make n 0.0 and engine_s = Array.make n 0.0 in
  let index_of_id = Hashtbl.create 64 in
  let next = ref 0 and finished = ref 0 in
  if tracing () then Obs.Trace_events.reset ();
  let submit () =
    let i = !next in
    incr next;
    let p = s.jobs.(order.(i)) in
    let aig = match p.payload with Aiger a -> a | Frozen _ -> invalid_arg "serve_pass" in
    submitted.(i) <- Util.Stopwatch.now ();
    Serve.Client.send d.client
      (Serve.Protocol.Submit
         {
           tag = string_of_int i;
           model_name = p.model_name;
           aig;
           engine = p.job.engine;
           budget = { Serve.Protocol.no_budget with timeout = Some job_timeout };
           quantify_backend = None;
         })
  in
  let settle i outcome =
    outcomes.(i) <- outcome;
    latency.(i) <- Util.Stopwatch.now () -. submitted.(i);
    report_failure s.jobs.(order.(i)) outcome;
    incr finished;
    if !next < n then submit ()
  in
  let index id = Hashtbl.find index_of_id id in
  let t0 = Util.Stopwatch.now () in
  while !next < min outstanding n do
    submit ()
  done;
  while !finished < n do
    match Serve.Client.recv d.client with
    | None -> failwith "serve connection closed mid-pass"
    | Some (Serve.Protocol.Accepted { tag; id }) ->
      let i = int_of_string tag in
      Hashtbl.replace index_of_id id i;
      accepted.(i) <- Util.Stopwatch.now ()
    | Some (Serve.Protocol.Started { id }) -> started.(index id) <- Util.Stopwatch.now ()
    | Some (Serve.Protocol.Done { id; verdict; seconds; _ }) ->
      let i = index id in
      engine_s.(i) <- seconds;
      let outcome =
        match
          Outcome.classify ~status:s.jobs.(order.(i)).status ~verdict ~exhausted:None
            ~trace_ok:None
        with
        | Outcome.Bounded ->
          Outcome.Failed (Format.asprintf "undecided: %a" Baselines.Verdict.pp verdict)
        | o -> o
      in
      settle i outcome
    | Some (Serve.Protocol.Failed { id; message }) -> settle (index id) (Outcome.Failed message)
    | Some (Serve.Protocol.Rejected { tag; reason }) ->
      settle (int_of_string tag) (Outcome.Failed ("refused: " ^ reason))
    | Some _ -> ()
  done;
  let wall = Util.Stopwatch.now () -. t0 in
  let profile = Profile.create () in
  let dropped =
    if tracing () then begin
      Profile.add profile (Obs.Trace_events.events ());
      Obs.Trace_events.dropped ()
    end
    else 0
  in
  let per_job f = List.init n f in
  let queue_wait i = started.(i) -. accepted.(i) in
  {
    wall;
    seconds = Array.to_list latency;
    outcomes = Array.to_list outcomes;
    profile;
    dropped;
    engine_time = [];
    bad_sums = 0;
    serve =
      {
        queue_wait = per_job queue_wait;
        run = per_job (fun i -> submitted.(i) +. latency.(i) -. started.(i));
        engine_s = Array.to_list engine_s;
        overhead = per_job (fun i -> latency.(i) -. queue_wait i -. engine_s.(i));
      };
  }

let pass (s : setup) (w : Workloads.t) order =
  match w.kind with Workloads.Engine -> engine_pass s order | Workloads.Serve -> serve_pass s order
