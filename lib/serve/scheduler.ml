(* Job scheduler on a worker-domain pool.

   A fixed pool of worker domains drains one FIFO queue of jobs. Each
   job carries the model [submit] parsed from its AIGER text; the
   queue's mutex hands it to exactly one worker, so no manager is shared
   between domains. A job gets a fresh cancellable [Util.Limits]
   governor built from its server-capped budget, and streams its
   lifecycle through the [emit] callback the owner (a server
   connection) provided. Workers never die: a crashing engine is
   caught, reported as [Failed], and the domain moves to the next job.

   Cancellation is cooperative, in the [Par.Race] style: cancelling a
   queued job marks it (the worker that eventually pops it replies
   "cancelled" without running anything), cancelling a running job
   trips its governor ([Util.Limits.cancel]) and the engine returns its
   anytime verdict at the next checkpoint.

   Completed runs persist a small schema-v2 report into the shared
   [Obs.Store] (when the scheduler owns one). The store's [lockf]
   locking serializes against other processes; appends from the worker
   domains of THIS process are funnelled through [store_mutex], since
   fcntl locks do not exclude threads of one process.

   Per-frame progress rides on [Obs.Progress.with_listener]: the worker
   binds the job's listener on its own domain for the length of the
   engine run, so a frame reaches the client of the job that emitted
   it without any shared table. *)

let obs_submitted = Obs.counter "serve.jobs.submitted"
let obs_rejected = Obs.counter "serve.jobs.rejected"
let obs_completed = Obs.counter "serve.jobs.completed"
let obs_cancelled = Obs.counter "serve.jobs.cancelled"
let obs_failed = Obs.counter "serve.jobs.failed"
let obs_frames = Obs.counter "serve.frames"
let obs_span = Obs.span "serve.job"

type job = {
  id : int;
  model_name : string;
  model : Netlist.Model.t; (* owned by the one worker that pops the job *)
  engine : Baselines.Suite.engine;
  budget : Protocol.budget; (* already capped by the server ceiling *)
  emit : Protocol.event -> unit; (* must never raise; may block on the socket *)
  mutable cancel_requested : bool;
  mutable limits : Util.Limits.t option; (* set while running *)
  mutable frames : int; (* progress frames seen, for the stored report *)
}

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  jobs : (int, job) Hashtbl.t; (* id -> job, until its terminal event *)
  mutable next_id : int;
  mutable running : int;
  mutable completed : int;
  mutable stopping : bool;
  store : Obs.Store.t option;
  store_mutex : Mutex.t;
  ceiling : Protocol.budget;
  config : Baselines.Suite.config;
  mutable workers : unit Domain.t list;
}

let workers t = List.length t.workers

(* ---------- per-job reports ---------- *)

(* A self-contained schema-v2 report (the daemon cannot use the global
   registry snapshot: concurrent jobs would bleed into each other's
   counters). [serve.job.frames] is deterministic for a given model and
   engine, so stored serve runs stay trend-gateable. *)
let job_report job ~verdict ~seconds ~exhausted =
  let meta =
    [
      ("tool", Obs.Json.String "cbq-mc-serve");
      ("model", Obs.Json.String job.model_name);
      ("engine", Obs.Json.String job.engine.Baselines.Suite.name);
      ("verdict", Obs.Json.String (Baselines.Verdict.to_meta verdict));
      ("seconds", Obs.Json.String (Printf.sprintf "%.6f" seconds));
      ("job", Obs.Json.String (string_of_int job.id));
    ]
    @ match exhausted with
      | Some r -> [ ("exhausted", Obs.Json.String (Util.Limits.resource_name r)) ]
      | None -> []
  in
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int 2);
      ("meta", Obs.Json.Obj meta);
      ( "counters",
        Obs.Json.Obj
          [
            ("serve.job.frames", Obs.Json.Int job.frames);
            ( "serve.job.cancelled",
              Obs.Json.Int (if job.cancel_requested then 1 else 0) );
          ] );
      ("spans", Obs.Json.Obj []);
      ("histograms", Obs.Json.Obj []);
    ]

let store_report t job ~verdict ~seconds ~exhausted =
  match t.store with
  | None -> None
  | Some store -> (
    let report = job_report job ~verdict ~seconds ~exhausted in
    try
      Some
        (Mutex.protect t.store_mutex (fun () -> (Obs.Store.append store report).Obs.Store.id))
    with _ -> None (* a full disk must not kill the job's verdict *))

(* ---------- the worker loop ---------- *)

let finish t job =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.remove t.jobs job.id;
      t.completed <- t.completed + 1)

let run_job t job =
  let limits = Obs.Limits.arm (Util.Limits.of_budget job.budget) in
  Mutex.protect t.mutex (fun () ->
      job.limits <- Some limits;
      (* a cancel that arrived while the job sat in the queue already
         set the flag; trip the fresh governor so the engine returns
         immediately at its first checkpoint *)
      if job.cancel_requested then Util.Limits.cancel limits;
      t.running <- t.running + 1);
  job.emit (Protocol.Started { id = job.id });
  let on_frame ~index ~nodes =
    job.frames <- job.frames + 1;
    Obs.incr obs_frames;
    job.emit (Protocol.Progress { id = job.id; frame = index; nodes })
  in
  let watch = Util.Stopwatch.start () in
  let outcome =
    try
      Ok
        (Obs.Progress.with_listener on_frame (fun () ->
             job.engine.Baselines.Suite.run ~limits job.model))
    with exn -> Error (Printexc.to_string exn)
  in
  let seconds = Util.Stopwatch.elapsed watch in
  Obs.add_seconds obs_span seconds;
  Mutex.protect t.mutex (fun () -> t.running <- t.running - 1);
  (match outcome with
  | Ok (verdict, _trace) ->
    let report =
      store_report t job ~verdict ~seconds ~exhausted:(Util.Limits.exhausted limits)
    in
    (match verdict with
    | Baselines.Verdict.Undecided _ when job.cancel_requested -> Obs.incr obs_cancelled
    | _ -> Obs.incr obs_completed);
    job.emit (Protocol.Done { id = job.id; verdict; seconds; report })
  | Error message ->
    Obs.incr obs_failed;
    job.emit (Protocol.Failed { id = job.id; message }));
  finish t job

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* stopping: drain done, exit *)
  else begin
    let job = Queue.pop t.queue in
    if job.cancel_requested then begin
      Mutex.unlock t.mutex;
      Obs.incr obs_cancelled;
      job.emit
        (Protocol.Done
           {
             id = job.id;
             verdict = Baselines.Verdict.Undecided "cancelled";
             seconds = 0.0;
             report = None;
           });
      finish t job
    end
    else begin
      Mutex.unlock t.mutex;
      run_job t job
    end;
    worker_loop t
  end

(* ---------- the public surface ---------- *)

let create ?(jobs = Par.Pool.default_jobs ()) ?(ceiling = Protocol.no_budget) ?store () =
  let jobs = max 1 jobs in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 64;
      next_id = 0;
      running = 0;
      completed = 0;
      stopping = false;
      store;
      store_mutex = Mutex.create ();
      ceiling;
      config =
        {
          Baselines.Suite.default_config with
          cbq = { Cbq.Reachability.default with make_trace = false };
        };
      workers = [];
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t ~tag:_ ~model_name ~aig ~engine ~budget ~emit =
  match Baselines.Suite.find ~config:t.config engine with
  | None ->
    Obs.incr obs_rejected;
    Error (Printf.sprintf "unknown engine %S (expected one of: %s)" engine
             (String.concat ", " Baselines.Suite.names))
  | Some engine -> (
    (* parse up front: a malformed model is the submitter's fault and
       must be rejected now, not burn a worker later *)
    match Netlist.Aiger.read ~name:model_name aig with
    | exception Netlist.Aiger.Parse_error { line; reason; _ } ->
      Obs.incr obs_rejected;
      Error (Printf.sprintf "bad AIGER (line %d: %s)" line reason)
    | exception exn ->
      Obs.incr obs_rejected;
      Error (Printf.sprintf "bad AIGER (%s)" (Printexc.to_string exn))
    | model ->
      let budget = Protocol.cap ~ceiling:t.ceiling budget in
      Mutex.protect t.mutex (fun () ->
          if t.stopping then begin
            Obs.incr obs_rejected;
            Error "server is shutting down"
          end
          else begin
            t.next_id <- t.next_id + 1;
            let job =
              {
                id = t.next_id;
                model_name;
                model;
                engine;
                budget;
                emit;
                cancel_requested = false;
                limits = None;
                frames = 0;
              }
            in
            Hashtbl.replace t.jobs job.id job;
            Queue.push job t.queue;
            Obs.incr obs_submitted;
            Condition.signal t.nonempty;
            Ok job.id
          end))

let cancel t id =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> false (* unknown or already terminal *)
      | Some job ->
        if not job.cancel_requested then begin
          job.cancel_requested <- true;
          match job.limits with Some l -> Util.Limits.cancel l | None -> ()
        end;
        true)

type stats = { queued : int; running : int; completed : int; workers : int }

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        queued = Queue.length t.queue;
        running = t.running;
        completed = t.completed;
        workers = workers t;
      })

(* Stop accepting, let the workers drain the queue, join them, then
   flush the store's index so the next reader opens without a tail
   scan. Idempotent. *)
let shutdown t =
  let already =
    Mutex.protect t.mutex (fun () ->
        let was = t.stopping in
        t.stopping <- true;
        Condition.broadcast t.nonempty;
        was)
  in
  if not already then begin
    List.iter Domain.join t.workers;
    match t.store with
    | Some store -> ( try Mutex.protect t.store_mutex (fun () -> Obs.Store.flush store) with _ -> ())
    | None -> ()
  end
