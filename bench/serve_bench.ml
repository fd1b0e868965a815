(* Serve-layer load harness: thousands of queued small jobs through a
   live daemon over its real socket protocol.

   Usage:
     dune exec bench/serve_bench.exe
     dune exec bench/serve_bench.exe -- --quick
     dune exec bench/serve_bench.exe -- --jobs=4 --count=2000
     dune exec bench/serve_bench.exe -- --stats-dir=DIR
                  -- writes DIR/BENCH_serve.json, gateable by
                     cbq-bench-regress --only=counters.servebench.
                     against bench/baseline-serve

   Three rows:

   - throughput: a single connection batch-submits [count] jobs (a
     seeded mix of falsifiable, provable and deliberately budget-capped
     models) against a daemon with a shared run-report store. Every job
     must come back with a verdict — falsified/proved exactly as the
     oracle says, or UNDECIDED for the jobs submitted with a 1-conflict
     budget (the governed graceful-degradation path under load). The
     verdict tallies are deterministic by construction, so they gate;
     the jobs/sec figure lives in spans.

   - cancellation: fill the worker pool with jobs that cannot finish
     (counter(12) needs 4095 backward frames), queue more behind them,
     cancel everything, and require every job to come back UNDECIDED
     promptly. The latency ceiling is generous (30s vs the ~0.2s frame
     checkpoint) because it guards the contract, not the speed; the
     measured worst case lands in a span.

   - store append cost: the daemon's store counters after the batch,
     plus a direct 1200-append microbench. N appends may serialize at
     most O(N) index entries in total (doubling schedule) — the exact
     counter is gated, so an accidental return to
     write-the-whole-index-every-append (the O(N^2) shape this bench
     exists to pin down) fails CI even on a fast runner.

   Exits non-zero on any correctness failure: a lost job, a wrong
   verdict, a cancellation that did not land, or a superlinear index. *)

let quick = ref false
let stats_dir : string option ref = ref None
let jobs = ref 4
let count = ref 1000
let count_set = ref false
let failed = ref false

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--quick" -> quick := true
        | s when String.length s > 12 && String.sub s 0 12 = "--stats-dir=" ->
          stats_dir := Some (String.sub s 12 (String.length s - 12))
        | s when String.length s > 7 && String.sub s 0 7 = "--jobs=" ->
          jobs := int_of_string (String.sub s 7 (String.length s - 7))
        | s when String.length s > 8 && String.sub s 0 8 = "--count=" ->
          count := int_of_string (String.sub s 8 (String.length s - 8));
          count_set := true
        | s ->
          Printf.eprintf "serve_bench: unknown argument %S\n" s;
          exit 2)
    Sys.argv

let () = if !quick && not !count_set then count := 200
let line fmt = Format.printf fmt

let fail fmt =
  failed := true;
  Format.kasprintf (fun s -> Format.eprintf "serve_bench: FAIL: %s@." s) fmt

let c name = Obs.counter ("servebench." ^ name)
let span name dt = Obs.add_seconds (Obs.span ("servebench." ^ name)) dt

let with_dir f =
  let dir = Filename.temp_file "cbq_serve_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let frozen name param =
  let model, _ = Circuits.Registry.build name (Some param) in
  (Netlist.Model.name model, Netlist.Aiger.write model)

(* ---------------- throughput row ---------------- *)

(* the seeded job mix, by index: 1 in 10 provable, 1 in 10 deliberately
   starved under a 1-conflict budget, the rest falsifiable in
   milliseconds *)
type kind = Falsifiable | Provable | Starved

let kind_of i = if i mod 10 = 3 then Provable else if i mod 10 = 7 then Starved else Falsifiable

let run_throughput () =
  line "=== scheduler throughput: %d jobs over one connection (%d workers) ===@." !count !jobs;
  with_dir @@ fun dir ->
  let store = Obs.Store.open_ dir in
  let falsifiable = frozen "counter" 2 in
  let provable = frozen "gray" 3 in
  let starved = frozen "counter" 6 in
  let server =
    Serve.Server.start ~jobs:!jobs ~store
      (Serve.Protocol.Unix_path (Filename.concat dir "s.sock"))
  in
  let specs =
    List.init !count (fun i ->
        let (model_name, aig), engine, budget =
          match kind_of i with
          | Falsifiable -> (falsifiable, "bmc", Serve.Protocol.no_budget)
          | Provable -> (provable, "cbq-bwd", Serve.Protocol.no_budget)
          | Starved ->
            (starved, "bmc", { Serve.Protocol.no_budget with max_conflicts = Some 1 })
        in
        { Serve.Client.tag = Printf.sprintf "j%d" i; model_name; aig; engine; budget })
  in
  let client = Serve.Client.connect (Serve.Server.address server) in
  let outcomes, dt = Util.Stopwatch.time (fun () -> Serve.Client.run_batch client specs) in
  Serve.Client.close client;
  Serve.Server.stop server;
  Serve.Server.wait server;
  let finished = ref 0 and falsified = ref 0 and proved = ref 0 and capped = ref 0 in
  List.iteri
    (fun i outcome ->
      match (kind_of i, outcome) with
      | Falsifiable, Serve.Client.Finished { verdict = Baselines.Verdict.Falsified 3; _ } ->
        incr finished;
        incr falsified
      | Provable, Serve.Client.Finished { verdict = Baselines.Verdict.Proved; _ } ->
        incr finished;
        incr proved
      | Starved, Serve.Client.Finished { verdict = Baselines.Verdict.Undecided _; _ } ->
        incr finished;
        incr capped
      | _, Serve.Client.Finished { verdict; _ } ->
        incr finished;
        fail "job %d: wrong verdict %s" i (Format.asprintf "%a" Baselines.Verdict.pp verdict)
      | _, Serve.Client.Crashed { message; _ } -> fail "job %d crashed: %s" i message
      | _, Serve.Client.Refused { reason } -> fail "job %d refused: %s" i reason)
    outcomes;
  line "%d jobs in %.3fs (%.0f jobs/s): %d falsified, %d proved, %d budget-capped@." !count dt
    (float_of_int !count /. dt)
    !falsified !proved !capped;
  Obs.add (c "jobs.total") !count;
  Obs.add (c "jobs.finished") !finished;
  Obs.add (c "jobs.falsified") !falsified;
  Obs.add (c "jobs.proved") !proved;
  Obs.add (c "jobs.capped") !capped;
  span "throughput.time" dt;
  if !finished <> !count then fail "%d of %d jobs never finished" (!count - !finished) !count;
  (* the daemon's shared store took exactly one append per finished job,
     at O(1) amortized index cost (gated below via the store counters) *)
  let stored = List.length (Obs.Store.entries (Obs.Store.open_ dir)) in
  if stored <> !count then fail "store has %d runs for %d finished jobs" stored !count;
  line "store: %d runs, %d index writes, %d index entries serialized@."
    stored
    (Obs.value_of "store.index.writes")
    (Obs.value_of "store.index.entries")

(* ---------------- cancellation row ---------------- *)

let run_cancel () =
  let k = if !quick then 8 else 24 in
  line "@.=== cancellation: %d unfinishable jobs (%d running, rest queued) ===@." k !jobs;
  with_dir @@ fun dir ->
  let model_name, aig = frozen "counter" 12 in
  let server =
    Serve.Server.start ~jobs:!jobs (Serve.Protocol.Unix_path (Filename.concat dir "s.sock"))
  in
  let client = Serve.Client.connect (Serve.Server.address server) in
  (* submit via raw sends so cancels can race the runs *)
  for i = 1 to k do
    Serve.Client.send client
      (Serve.Protocol.submit ~tag:(Printf.sprintf "c%d" i) ~model_name ~aig ~engine:"cbq-bwd"
         ~budget:Serve.Protocol.no_budget)
  done;
  let ids = ref [] in
  let started = ref 0 in
  while List.length !ids < k do
    match Serve.Client.recv client with
    | Some (Serve.Protocol.Accepted { id; _ }) -> ids := id :: !ids
    | Some (Serve.Protocol.Started _) -> incr started
    | Some _ -> ()
    | None -> fail "connection closed during submits"; raise Exit
  done;
  (* let the pool actually start chewing before cancelling *)
  let spin = Util.Stopwatch.start () in
  while !started < min k !jobs && Util.Stopwatch.elapsed spin < 10.0 do
    match Serve.Client.recv client with
    | Some (Serve.Protocol.Started _) -> incr started
    | Some _ -> ()
    | None -> fail "connection closed while waiting for starts"; raise Exit
  done;
  let watch = Util.Stopwatch.start () in
  List.iter (fun id -> Serve.Client.send client (Serve.Protocol.Cancel { id })) !ids;
  let done_ = ref 0 and decided = ref 0 in
  while !done_ < k do
    match Serve.Client.recv client with
    | Some (Serve.Protocol.Done { verdict; _ }) ->
      incr done_;
      (match verdict with
      | Baselines.Verdict.Undecided _ -> ()
      | _ -> incr decided)
    | Some (Serve.Protocol.Failed { message; _ }) ->
      incr done_;
      fail "cancelled job failed instead: %s" message
    | Some _ -> ()
    | None -> fail "connection closed while cancelling"; raise Exit
  done;
  let latency = Util.Stopwatch.elapsed watch in
  Serve.Client.close client;
  Serve.Server.stop server;
  Serve.Server.wait server;
  line "%d jobs cancelled in %.3fs (worst case over the whole wave)@." k latency;
  Obs.add (c "cancel.count") k;
  span "cancel.latency" latency;
  if !decided > 0 then fail "%d unfinishable jobs decided before their cancel" !decided
  else if latency > 30.0 then fail "cancellation wave took %.1fs (> 30s)" latency
  else Obs.incr (c "cancel.ok")

(* ---------------- store append-cost row ---------------- *)

let tiny_report i =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int 2);
      ( "meta",
        Obs.Json.Obj
          [
            ("model", Obs.Json.String "bench");
            ("engine", Obs.Json.String "none");
            ("verdict", Obs.Json.String "undecided");
          ] );
      ("counters", Obs.Json.Obj [ ("i", Obs.Json.Int i) ]);
      ("spans", Obs.Json.Obj []);
      ("histograms", Obs.Json.Obj []);
    ]

let run_store () =
  let n = 1200 in
  line "@.=== store append cost: %d direct appends ===@." n;
  with_dir @@ fun dir ->
  let writes0 = Obs.value_of "store.index.writes" in
  let entries0 = Obs.value_of "store.index.entries" in
  let store = Obs.Store.open_ dir in
  let half = n / 2 in
  let (), dt1 =
    Util.Stopwatch.time (fun () ->
        for i = 1 to half do
          ignore (Obs.Store.append store (tiny_report i))
        done)
  in
  let (), dt2 =
    Util.Stopwatch.time (fun () ->
        for i = half + 1 to n do
          ignore (Obs.Store.append store (tiny_report i))
        done)
  in
  let writes = Obs.value_of "store.index.writes" - writes0 in
  let serialized = Obs.value_of "store.index.entries" - entries0 in
  line "halves: %.4fs then %.4fs (%.1f then %.1f us/append)@." dt1 dt2
    (1e6 *. dt1 /. float_of_int half)
    (1e6 *. dt2 /. float_of_int (n - half));
  line "index: %d rewrites, %d entries serialized for %d appends@." writes serialized n;
  Obs.add (c "store.appends") n;
  Obs.add (c "store.index_writes") writes;
  Obs.add (c "store.index_entries") serialized;
  span "store.first_half.time" dt1;
  span "store.second_half.time" dt2;
  (* the O(N^2) detector: the old behaviour serialized n(n+1)/2 =
     720600 entries here; the doubling schedule stays under 2n *)
  if serialized >= 2 * n then fail "index serialization is superlinear (%d >= %d)" serialized (2 * n)
  else if writes > 14 then fail "index rewrites are not logarithmic (%d)" writes
  else Obs.incr (c "store.linear")

let () =
  Obs.reset ();
  Obs.set_enabled true;
  line "=== serve layer load bench%s (jobs=%d, count=%d) ===@."
    (if !quick then " (quick)" else "")
    !jobs !count;
  (try
     run_throughput ();
     run_cancel ();
     run_store ()
   with Exit -> ());
  if not !failed then Obs.incr (c "ok");
  (match !stats_dir with
  | None -> ()
  | Some dir ->
    Util.Fs.mkdirs dir;
    Obs.meta "tool" "serve_bench";
    Obs.meta "experiment" (if !quick then "serve-quick" else "serve");
    Obs.write_report (Filename.concat dir "BENCH_serve.json");
    line "report: %s@." (Filename.concat dir "BENCH_serve.json"));
  Obs.set_enabled false;
  if !failed then exit 1
