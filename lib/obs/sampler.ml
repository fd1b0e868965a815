(* Resource time-series sampler: a background domain that periodically
   snapshots counter values, GC heap statistics and the governor's
   remaining budgets while a run executes. [stop] joins the domain,
   installs the collected series as the run report's "timeseries"
   section, and replays the points into the trace ring as Chrome
   counter ('C') rows so resource curves render on the same timeline
   as the phase spans.

   Domain discipline: the sampler domain only ever touches safely
   shared state — atomic counter cells, [Gc.quick_stat], the governor's
   atomics and its own point buffer (handed back through the
   happens-before edge of [Domain.join]). It never touches the trace
   ring; the replay happens on the domain that calls [stop], with the
   explicit timestamps captured at sample time.

   GC caveat (documented in docs/OBSERVABILITY.md): [heap_words] and
   the collection counts from [Gc.quick_stat] describe the shared major
   heap, but allocation totals are domain-local, so the sampler reports
   only the global fields. *)

type point = {
  p_t : float; (* seconds since sampler start, non-decreasing *)
  p_trace_us : float; (* microseconds on the trace-epoch timeline *)
  p_heap_words : int;
  p_minor_collections : int;
  p_major_collections : int;
  p_counters : (string * int) list; (* same order as the watch list *)
  p_time_left : float option;
  p_conflicts_left : int option;
  p_bdd_left : int option;
  p_aig_headroom : int option;
}

type t = {
  interval : float;
  watch : (string * Registry.counter) list;
  limits : Util.Limits.t option;
  clock : Util.Stopwatch.t;
  stop_flag : bool Atomic.t;
  points : point list ref; (* reversed; sampler-domain-owned until join *)
  mutable worker : unit Domain.t option;
  mutable stopped : bool;
}

let default_interval = 0.05

(* the counters worth a curve: solver pressure, fixed-point progress,
   and quantification abort pressure (the curve that shows the
   quantifier giving up mid-traversal) *)
let counters =
  [
    "sat.solve_calls";
    "sat.conflicts";
    "sweep.runs";
    "reach.iterations";
    "quantify.vars.aborted";
  ]

let take_sample t =
  let stat = Gc.quick_stat () in
  let point =
    {
      p_t = Util.Stopwatch.elapsed t.clock;
      p_trace_us = Trace_events.timestamp_us ();
      p_heap_words = stat.Gc.heap_words;
      p_minor_collections = stat.Gc.minor_collections;
      p_major_collections = stat.Gc.major_collections;
      p_counters = List.map (fun (name, c) -> (name, Registry.value c)) t.watch;
      p_time_left = Option.bind t.limits Util.Limits.remaining_time;
      p_conflicts_left = Option.bind t.limits Util.Limits.conflict_budget;
      p_bdd_left = Option.bind t.limits Util.Limits.bdd_budget;
      p_aig_headroom = Option.bind t.limits Util.Limits.aig_headroom;
    }
  in
  t.points := point :: !(t.points)

(* sleep in <=10ms slices so [stop] never waits a full interval *)
let rec interruptible_sleep t remaining =
  if remaining > 0.0 && not (Atomic.get t.stop_flag) then begin
    let slice = Float.min remaining 0.01 in
    (try Unix.sleepf slice with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    interruptible_sleep t (remaining -. slice)
  end

let run t =
  while not (Atomic.get t.stop_flag) do
    interruptible_sleep t t.interval;
    if not (Atomic.get t.stop_flag) then take_sample t
  done

let start ?(interval = default_interval) ?limits () =
  if not (interval > 0.0) then invalid_arg "Sampler.start: interval must be positive";
  let t =
    {
      interval;
      watch = List.map (fun name -> (name, Registry.counter name)) counters;
      limits;
      clock = Util.Stopwatch.start ();
      stop_flag = Atomic.make false;
      points = ref [];
      worker = None;
      stopped = false;
    }
  in
  (* the t=0 point is taken here on the caller's domain, so even a run
     shorter than one interval yields a two-point series *)
  take_sample t;
  t.worker <- Some (Domain.spawn (fun () -> run t));
  t

let point_json p =
  let counters = List.map (fun (name, v) -> (name, Json.Int v)) p.p_counters in
  let budget =
    List.filter_map
      (fun x -> x)
      [
        Option.map (fun s -> ("time_left_s", Json.Float s)) p.p_time_left;
        Option.map (fun n -> ("conflicts_left", Json.Int n)) p.p_conflicts_left;
        Option.map (fun n -> ("bdd_nodes_left", Json.Int n)) p.p_bdd_left;
        Option.map (fun n -> ("aig_headroom", Json.Int n)) p.p_aig_headroom;
      ]
  in
  let base =
    [
      ("t", Json.Float p.p_t);
      ("heap_words", Json.Int p.p_heap_words);
      ("minor_collections", Json.Int p.p_minor_collections);
      ("major_collections", Json.Int p.p_major_collections);
      ("counters", Json.Obj counters);
    ]
  in
  Json.Obj (if budget = [] then base else base @ [ ("budget", Json.Obj budget) ])

let to_json t points =
  Json.Obj
    [
      ("interval", Json.Float t.interval);
      ("samples", Json.Int (List.length points));
      ("points", Json.List (List.map point_json points));
    ]

let replay_trace points =
  List.iter
    (fun p ->
      let emit name v = Trace_events.sample_at p.p_trace_us ("sampler." ^ name) v in
      emit "heap_words" p.p_heap_words;
      emit "minor_collections" p.p_minor_collections;
      emit "major_collections" p.p_major_collections;
      List.iter (fun (name, v) -> emit name v) p.p_counters;
      Option.iter (fun s -> emit "time_left_ms" (int_of_float (s *. 1000.0))) p.p_time_left;
      Option.iter (emit "conflicts_left") p.p_conflicts_left;
      Option.iter (emit "bdd_nodes_left") p.p_bdd_left;
      Option.iter (emit "aig_headroom") p.p_aig_headroom)
    points

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop_flag true;
    Option.iter Domain.join t.worker;
    t.worker <- None;
    (* a closing point on the caller's domain: the series always covers
       the full run, even when the last interval never elapsed *)
    take_sample t;
    let points = List.rev !(t.points) in
    Registry.set_timeseries (Some (to_json t points));
    replay_trace points
  end
