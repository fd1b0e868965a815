(* What every suite of bench/main.exe shares: the four flags (set by
   main.ml's parser before any suite runs, so suites read them when they
   run, never at module initialisation), the table printers, the per-row
   report writer and the failure count. *)

let quick = ref false
let stats_dir : string option ref = ref None
let store_dir : string option ref = ref None
let row_timeout : float option ref = ref None

(* correctness failures of every suite run so far; any one makes the
   harness exit 1 once all selected suites have run *)
let failures = ref 0

let fail suite fmt =
  incr failures;
  Format.kasprintf (fun s -> Format.eprintf "%s: FAIL: %s@." suite s) fmt

let header id title = Format.printf "@.=== %s: %s ===@." id title
let line fmt = Format.printf fmt

(* With --row-timeout=SEC every engine invocation of the comparison
   tables runs under its own fresh wall-clock governor, so a single
   blown-up row degrades to UNDECIDED instead of stalling the whole
   harness. Each call gets a new governor: exhaustion is sticky and must
   not leak across rows. *)
let row_limits () =
  match !row_timeout with
  | None -> Util.Limits.unlimited
  | Some sec -> Util.Limits.create ~timeout:sec ()

(* the comparison tables time verdicts, not counterexample extraction *)
let no_trace = { Cbq.Reachability.default with make_trace = false }

(* --store=DIR additionally appends every row's report to a run-report
   store, so `cbq_mc report trend` can track a row across bench
   invocations; the store handle is opened once, on first use *)
let store_handle = ref None

let store () =
  match !store_dir with
  | None -> None
  | Some dir ->
    (match !store_handle with
    | Some _ -> ()
    | None -> store_handle := Some (Obs.Store.open_ dir));
    !store_handle

(* With --stats-dir, each row runs under a fresh telemetry window and
   leaves DIR/<label>.json (schema: docs/OBSERVABILITY.md). The file name
   depends on the label alone, so trees from different id selections
   pair row by row. Without --stats-dir or --store, [f] runs untouched:
   collection stays disabled and the tables time the uninstrumented fast
   path. *)
let with_report label f =
  match (!stats_dir, !store_dir) with
  | None, None -> f ()
  | _ ->
    let file =
      String.map
        (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c | _ -> '-')
        label
      ^ ".json"
    in
    Option.iter Util.Fs.mkdirs !stats_dir;
    Obs.reset ();
    Obs.set_enabled true;
    (* disarm even if the row raises, so one broken experiment cannot
       leak its telemetry into the next row's report *)
    let result = Fun.protect ~finally:(fun () -> Obs.set_enabled false) f in
    Obs.meta "tool" "bench";
    Obs.meta "experiment" label;
    Option.iter (fun dir -> Obs.write_report (Filename.concat dir file)) !stats_dir;
    Option.iter (fun st -> ignore (Obs.Store.append st (Obs.report ()))) (store ());
    Obs.reset ();
    result
