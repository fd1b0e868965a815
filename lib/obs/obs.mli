(** Unified observability: hierarchical named counters, monotonic spans
    and histogram accumulators behind one global registry with a
    machine-readable JSON run report, plus structured timeline tracing
    ({!Trace_events}), a live progress reporter ({!Progress}) and a
    run-report regression differ ({!Regress}).

    Every subsystem registers its metrics once (at module initialisation)
    under dotted hierarchical names — ["sweep.merge.bdd"],
    ["sat.solve_calls"] — and updates them through handles. Collection is
    {e disabled by default} and guarded by a single flat [enabled] flag:
    the disabled path of {!incr}/{!add}/{!observe} is one boolean load and
    a branch, with no allocation, so instrumentation may sit on hot paths
    (the AIG strash front-end, SAT propagation accounting).

    {!with_span} does allocate its closure at the call site even when
    disabled; use it at coarse granularity only (an iteration, a solve
    call) and prefer {!add_seconds} with an existing measurement where a
    stopwatch is already running.

    {b Domain safety.} The registry is safe under OCaml 5 domains:
    counters are atomics (concurrent {!incr}/{!add} lose no update and
    {!report} reads exact totals), spans and histograms serialize their
    multi-field updates through a per-handle mutex, and registration,
    metadata and report assembly go through one registry mutex. The
    disabled guard stays a single unsynchronized load — flipping
    {!enabled} while other domains record is a benign race. The
    timeline trace ({!Trace_events}) records from any domain: the ring
    serializes on one mutex and stamps every event with the emitting
    domain's id, so each domain renders as its own Chrome-trace lane
    ([tid]) instead of interleaving into one broken nest.
    {!Trace_events.reset} and the export calls remain owner-domain
    operations — quiesce worker domains first.

    The report schema is documented in [docs/OBSERVABILITY.md]; this
    module is its single source of truth. *)

(** {1 JSON}

    Zero-dependency JSON values, serializer and parser — enough to write
    run reports and trace files and read them back in tests and table
    generators. *)

module Json : sig
  type t = Json.t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (** Compact single-line serialization. Non-finite floats are clamped to
      [0] (JSON has no [inf]/[nan]). *)
  val to_string : t -> string

  (** Pretty serialization, two-space indent. *)
  val pp : Format.formatter -> t -> unit

  (** Strict parser for the subset {!to_string} emits (standard JSON minus
      exotic escapes). [Error msg] carries a byte offset. *)
  val of_string : string -> (t, string) result

  (** Read and parse a whole file. *)
  val of_file : string -> (t, string) result

  (** [member key json] is the value under [key] of an object. *)
  val member : string -> t -> t option
end

(** {1 Collection switch} *)

(** The flat guard every update checks. Exposed as a [ref] so the check
    compiles to one load; prefer {!set_enabled} for writing. *)
val enabled : bool ref

val set_enabled : bool -> unit

(** Zero every registered metric and drop all run metadata. Registration
    itself (names, handles) is permanent for the process. *)
val reset : unit -> unit

(** {1 Counters} *)

type counter

(** [counter name] registers (or retrieves — names are unique) a counter.
    Dots in [name] express hierarchy: ["sweep.merge.sat"]. *)
val counter : string -> counter

(** One boolean load and an in-place add when enabled; no-op otherwise. *)
val incr : counter -> unit

val add : counter -> int -> unit
val value : counter -> int

(** [value_of name] is the current value of the counter registered under
    [name], or [0] when no such counter exists. For tests and table
    generators; prefer handles elsewhere. *)
val value_of : string -> int

(** {1 Spans}

    A span accumulates wall-clock time over repeated executions of one
    region: call count, total seconds, and the longest single execution. *)

type span

val span : string -> span

(** [with_span s f] times [f ()] (via [Util.Stopwatch]) and accumulates
    into [s]; when collection is disabled it runs [f ()] directly. The
    measurement is recorded even when [f] raises. *)
val with_span : span -> (unit -> 'a) -> 'a

(** Record an externally measured duration (for regions that already keep
    a stopwatch, or recursive loops where nesting would double-count). *)
val add_seconds : span -> float -> unit

val span_count : span -> int
val span_seconds : span -> float

(** {1 Histograms}

    Power-of-two bucketed accumulators over non-negative integers (sizes,
    conflict counts): bucket 0 holds the value 0, bucket [i ≥ 1] the
    values in [[2{^i-1}, 2{^i})]. Count, sum, min and max are exact;
    only the distribution is bucketed. *)

type histogram

val histogram : string -> histogram

(** Negative values are clamped to 0. *)
val observe : histogram -> int -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> int

(** {1 Run reports} *)

(** [meta key value] attaches a run-level string pair ([model], [engine],
    [verdict], …) to the next report; replaces on equal [key]. Metadata
    ignores the [enabled] guard — stamping a report after a disabled run
    is legitimate. *)
val meta : string -> string -> unit

(** The full report as JSON — see [docs/OBSERVABILITY.md] for the schema.
    Metric maps are flat objects keyed by the dotted names, sorted. Every
    registered counter appears, including zero-valued ones (consumers diff
    reports across runs); spans and histograms never recorded into since
    the last {!reset} are omitted. *)
val report : unit -> Json.t

(** {!report} pretty-printed to a file. Missing parent directories of the
    path are created. *)
val write_report : string -> unit

(** Human-readable roll-up of every non-zero metric, grouped by the first
    name segment. *)
val pp_summary : Format.formatter -> unit -> unit

(** {1 Timeline tracing}

    Structured begin/end phase events, instant events and counter samples
    in a growable ring buffer, exported as Chrome [trace_event] JSON
    loadable by [chrome://tracing] and Perfetto. Guarded by its own flat
    [enabled] flag with the same disabled-path contract as the metric
    updates above: one load, one branch, no allocation. The trace-event
    model and phase names are documented in [docs/OBSERVABILITY.md]. *)

module Trace_events : sig
  (** The recording guard; independent from the metric registry's. *)
  val enabled : bool ref

  (** Enabling (re)starts the trace clock. *)
  val set_enabled : bool -> unit

  (** Drop every recorded event and restart the clock. [?limit] also
      changes the ring size (events retained before the oldest are
      overwritten; default 65536, must be ≥ 2). *)
  val reset : ?limit:int -> unit -> unit

  val limit : unit -> int

  (** Events recorded since the last reset, including overwritten ones. *)
  val recorded : unit -> int

  (** Events lost to ring wraparound ([recorded () - limit ()], min 0). *)
  val dropped : unit -> int

  (** Open / close a duration phase. The [_args] variants attach one
      integer argument ([key], [value]) without allocating on the
      disabled path. Phases nest; unbalanced pairs caused by ring
      wraparound are repaired at export time. *)
  val begin_ : string -> unit

  val begin_args : string -> string -> int -> unit
  val end_ : string -> unit
  val end_args : string -> string -> int -> unit

  (** A point-in-time marker (Chrome phase ['i']). *)
  val instant : string -> unit

  val instant_args : string -> string -> int -> unit

  (** A counter sample (Chrome phase ['C']): the timeline view of a value
      over the run, e.g. the frontier size per frame. *)
  val sample : string -> int -> unit

  (** Microseconds on the trace-epoch timeline right now, without
      recording anything. Safe to call from any domain (it only reads
      the monotonic clock); pair with {!sample_at}. *)
  val timestamp_us : unit -> float

  (** [sample_at ts name v] records a counter sample at an explicit
      timestamp (from {!timestamp_us}) — how the resource sampler
      replays points captured on another domain after the fact (the
      export re-sorts them into place). *)
  val sample_at : float -> string -> int -> unit

  (** [with_phase name f] wraps [f ()] in a begin/end pair (closed on
      exceptions too). Allocates its closure even when disabled — prefer
      explicit {!begin_}/{!end_} on hot paths. *)
  val with_phase : string -> (unit -> 'a) -> 'a

  type event = Trace_events.event = {
    ev_name : string;
    ev_ph : char;  (** ['B'] begin, ['E'] end, ['i'] instant, ['C'] counter *)
    ev_ts : float;
        (** microseconds since the trace epoch; non-decreasing in recording
            order except for {!sample_at} replays, which carry their
            capture-time timestamps (the export re-sorts) *)
    ev_tid : int;
        (** id of the emitting domain, exported as the Chrome [tid] — each
            domain of a portfolio race or sweep pool gets its own lane *)
    ev_arg_key : string;  (** [""] when the event carries no argument *)
    ev_arg_value : int;
  }

  (** Recording-order snapshot of the ring (oldest surviving event
      first), raw (no balance repair, no re-sorting). *)
  val events : unit -> event list

  (** The Chrome trace: [{"traceEvents": [...], "displayTimeUnit": "ms",
      "otherData": {...}}], every event carrying [name]/[cat]/[ph]/[ts]/
      [pid]/[tid], stably sorted by timestamp (replayed sampler rows merge
      into place). Begin/end balance is repaired (orphaned ends dropped,
      unclosed begins closed at the final timestamp). *)
  val to_json : unit -> Json.t

  (** {!to_json} pretty-printed to a file; parent directories are
      created. *)
  val write : string -> unit
end

(** {1 Live progress}

    One stderr line per traversal frame — frame index, frontier AIG node
    count, merges by provenance, elapsed time — rewritten in place on a
    TTY. Reads the merge counters from the registry, so metric collection
    must be enabled for the provenance columns to move. *)

module Progress : sig
  (** Arm the reporter (records the start time, detects whether
      [channel] — default [stderr] — is a TTY; [?tty] overrides the
      detection, for tests capturing output through a pipe). *)
  val start : ?channel:out_channel -> ?tty:bool -> unit -> unit

  (** Traversal-engine notification at run entry: restarts the elapsed
      clock (and terminates any in-place line), so back-to-back runs in
      one process never report stale elapsed times. A no-op unless
      armed. *)
  val begin_run : unit -> unit

  (** Notification from the traversal engines; a no-op unless armed.
      Independently of the stderr reporter, an installed {!set_listener}
      hook receives every notification. *)
  val frame : index:int -> nodes:int -> unit

  (** Install (or clear) a cross-domain frame listener: called on every
      {!frame} notification with the emitting domain's id, whether or
      not the stderr reporter is armed. The serve scheduler uses this to
      stream per-frame progress events to the client that owns the job
      running on that domain. The hook itself must be domain-safe — it
      is invoked from whichever domain runs the traversal. *)
  val set_listener : (domain:int -> index:int -> nodes:int -> unit) option -> unit

  (** Terminate the in-place line and disarm. *)
  val finish : unit -> unit
end

(** {1 Resource-governor bridge}

    [Util.Limits] lives below this library, so it cannot emit metrics
    itself; {!Limits.arm} installs its notify hook. The counters are
    [limits.exhausted] (total fatal trips) and
    [limits.exhausted.{deadline,conflicts,aig_nodes,bdd_nodes}], plus a
    [limits.exhausted] trace instant whose [resource] argument encodes
    the tripped resource (0 deadline, 1 conflicts, 2 aig, 3 bdd). *)

module Limits : sig
  (** Install the metric-emitting notify hook on a governor and return
      it. The traversal engines arm every governor they receive, so
      explicit arming is only needed for governors used outside an
      engine run. *)
  val arm : Util.Limits.t -> Util.Limits.t
end

(** {1 Resource time-series sampling}

    A background domain that periodically snapshots counter values, GC
    heap statistics and the governor's remaining budgets while a run
    executes. {!Sampler.stop} installs the series as the run report's
    ["timeseries"] section (see [docs/OBSERVABILITY.md] for the point
    schema) and replays it into the trace as Chrome counter rows under
    [sampler.*] names, so resource curves render on the phase
    timeline. The CLI wires this to [--sample-interval]. *)

module Sampler : sig
  type t

  (** 0.05 s. *)
  val default_interval : float

  (** The counters sampled when [?counters] is omitted: SAT pressure
      and fixed-point progress. *)
  val default_counters : string list

  (** Take the [t = 0] sample and spawn the sampling domain. [interval]
      is seconds between samples (default {!default_interval}, must be
      positive); [counters] names the registry counters to record;
      [limits] adds the governor's remaining budgets (deadline seconds,
      conflict pool, BDD pool, AIG headroom) to every point. *)
  val start :
    ?interval:float -> ?counters:string list -> ?limits:Util.Limits.t -> unit -> t

  (** Join the sampling domain, take the closing sample (every series
      has ≥ 2 points), install the ["timeseries"] report section and
      replay the trace rows. Call from the domain that owns the trace;
      idempotent. *)
  val stop : t -> unit
end

(** {1 Run-report store}

    Append-only on-disk store of run reports: one directory holding
    [runs.jsonl] (a compact report per line) and [index.json], a
    derived meta index that makes listing cheap. The data file is the
    source of truth — a missing or stale index is rebuilt by scanning
    it, and a torn tail (crash mid-append) is cut back to the last
    line that parses. The [cbq_mc report] subcommands are the
    command-line front-end. *)

module Store : sig
  type t

  type entry = Store.entry = {
    id : int;  (** 1-based position in the data file *)
    offset : int;
    length : int;
    stored_at : string;  (** UTC, stamped into the report meta at append *)
    model : string;
    engine : string;
    verdict : string;
  }

  (** Open (creating the directory if needed): the indexed prefix is
      adopted from [index.json], the unindexed tail of the data file is
      scanned, and a missing or inconsistent index triggers a full
      rebuild — all under the store's inter-process lock. *)
  val open_ : string -> t

  val dir : t -> string

  (** All indexed runs, oldest first. *)
  val entries : t -> entry list

  (** Append a report (stamping [stored_at] into its meta first). The
      data line is written immediately; the meta index is rewritten on
      a doubling schedule (O(1) amortized per append — N appends
      serialize O(N) index entries in total), so it may lag the data
      file until {!flush} or the next rewrite point. Appends take an
      exclusive [Unix.lockf] lock on the store directory and re-sync
      against the file first, so concurrent processes sharing one store
      (a serve daemon plus CLI runs) interleave safely with unique
      ids. *)
  val append : t -> Json.t -> entry

  (** Write the index now if it lags the data file. Call at daemon
      shutdown or after a batch of appends; opening a store with a
      lagging index is still correct (the unindexed tail is scanned),
      just marginally slower. *)
  val flush : t -> unit

  (** Load one stored report by id. *)
  val load : t -> int -> (entry * Json.t, string) result

  (** The last [?last] runs matching the meta filters, oldest first. *)
  val select : ?model:string -> ?engine:string -> ?last:int -> t -> entry list
end

(** {1 Bench regression detection}

    Diff two trees of JSON run reports (as written by
    [bench --stats-dir=DIR]) and gate per-metric relative deltas, so CI
    can fail a change that blows up a cost metric. Reports are paired by
    file name; deterministic integer metrics (counters, span call counts,
    histogram count/sum) gate on [threshold], wall-clock span seconds
    only on an explicit [time_threshold]. The [cbq_bench_regress]
    executable in [bench/] is the command-line front-end. *)

module Regress : sig
  type delta = Regress.delta = {
    metric : string;
        (** flattened name: ["counters.sweep.merge.sat"],
            ["spans.sat.solve.seconds"], … *)
    old_value : float;
    new_value : float;
    rel : float;  (** |new − old| / |old|; [infinity] when old = 0 *)
    timing : bool;  (** span seconds: gated by [time_threshold] only *)
  }

  type pair = Regress.pair = {
    experiment : string;
    deltas : delta list;
    metrics : string list;  (** every comparable metric of either side, sorted *)
    meta_diff : (string * string * string) list;
        (** provenance keys whose values disagree: (key, old, new) *)
  }

  type outcome = Regress.outcome = {
    pairs : pair list;
    only_old : string list;
    only_new : string list;
  }

  (** Structural validation: [Ok] for a JSON object with a supported
      [schema_version] (1 or 2 — v2 only added sections) and a
      [counters] object; [Error] names the defect in one line. Every
      report entering {!diff_dirs} or {!trend} passes through this. *)
  val validate_report : Json.t -> (Json.t, string) result

  (** Provenance keys ([schema_version], [ocaml_version], [word_size],
      [hostname], [git_commit]) present on both sides with different
      values, as (key, old, new). Printed by {!pp_outcome} as a diff
      header. *)
  val meta_mismatches : Json.t -> Json.t -> (string * string * string) list

  (** Changed metrics between two parsed reports (a metric present on one
      side only compares against 0). Sorted by metric name. *)
  val compare_reports : Json.t -> Json.t -> delta list

  (** Pair the [*.json] files of two directories by name and diff each
      pair. *)
  val diff_dirs : old_dir:string -> new_dir:string -> outcome

  val exceeds : threshold:float -> time_threshold:float option -> delta -> bool

  (** Every gated delta, tagged with its experiment. *)
  val regressions :
    threshold:float -> time_threshold:float option -> outcome -> (string * delta) list

  (** [true] iff nothing gates and no experiment vanished from the old
      tree (reports only present in the new tree are fine — coverage
      grew). *)
  val passes : threshold:float -> time_threshold:float option -> outcome -> bool

  type trend_step = Regress.trend_step = {
    from_label : string;
    to_label : string;
    step_deltas : delta list;
    step_meta_diff : (string * string * string) list;
  }

  (** Diff each consecutive pair of a labeled report sequence (oldest
      first), attributing drift to the step where it appeared. [Error]
      when any report fails {!validate_report}. *)
  val trend : (string * Json.t) list -> (trend_step list, string) result

  val pp_delta : Format.formatter -> delta -> unit

  (** Human-readable listing of every changed metric, gated ones marked
      with [!]. *)
  val pp_outcome :
    threshold:float -> time_threshold:float option -> Format.formatter -> outcome -> unit

  (** The [cbq-bench-regress] command line, in-process: diff the two
      trees named by [argv] and return the exit status — 0 within
      thresholds, 1 on a regression, 2 on a usage error, an unreadable
      directory or an old tree with no report. [--only=PREFIX]
      (repeatable) narrows the diff to flattened metric names under the
      given prefixes, for benches that mix deterministic row counters
      with scheduling-dependent library counters; prefixes that match
      no metric of any report pair exit 2. The delta listing and verdict
      go to [out] (default stdout); usage and diagnostics go to [err]
      (default stderr). *)
  val main : ?out:Format.formatter -> ?err:Format.formatter -> string array -> int
end
