(* Bench regression detection: diff two trees of JSON run reports (as
   written by `bench/main.exe --stats-dir=DIR`, one <label>.json report
   per row) and gate the deltas on a relative threshold, so CI can fail
   a change that blows up a cost metric.

   Reports are paired by file name. Per pair, the comparable metrics
   are the counters, span call counts and histogram count/sum — the
   deterministic integers of a seeded run — plus span seconds, which
   are wall-clock noise and therefore only gated when an explicit time
   threshold is given. The gate is symmetric (a 10x drop in SAT calls
   deserves a look as much as a 10x rise); regenerate the baseline to
   acknowledge an intended change. *)

type delta = {
  metric : string; (* e.g. "counters.sweep.merge.sat", "spans.sat.solve.seconds" *)
  old_value : float;
  new_value : float;
  rel : float; (* |new - old| / old; infinity when old = 0 and new <> 0 *)
  timing : bool; (* true for span seconds: gated by the time threshold *)
}

type pair = {
  experiment : string;
  deltas : delta list;
  metrics : string list; (* every comparable metric of either side *)
  meta_diff : (string * string * string) list; (* key, old, new *)
}

type outcome = {
  pairs : pair list;
  only_old : string list; (* experiments present only in the old tree *)
  only_new : string list; (* experiments present only in the new tree *)
}

(* Schema window: v2 added provenance meta and the timeseries section
   without touching any v1 section, so both diff cleanly — CI compares
   checked-in v1 baselines against fresh v2 reports across the bump.
   Anything else (missing version, other versions, missing counters) is
   a malformed report and must fail structurally, not with a trace. *)
let supported_schemas = [ 1; 2 ]

let validate_report json =
  match json with
  | Json.Obj _ -> (
    match Json.member "schema_version" json with
    | Some (Json.Int v) when List.mem v supported_schemas -> (
      match Json.member "counters" json with
      | Some (Json.Obj _) -> Ok json
      | Some _ -> Error "\"counters\" is not an object"
      | None -> Error "missing \"counters\" section")
    | Some (Json.Int v) -> Error (Printf.sprintf "unsupported schema_version %d (supported: 1-2)" v)
    | Some _ -> Error "\"schema_version\" is not an integer"
    | None -> Error "missing \"schema_version\"")
  | _ -> Error "report is not a JSON object"

(* The provenance header: keys whose disagreement makes a diff
   suspect (different machine, different compiler, different schema).
   Only keys present on both sides count — pre-v2 reports carry no
   provenance and should not drown the diff in noise. *)
let provenance_keys = [ "schema_version"; "ocaml_version"; "word_size"; "hostname"; "git_commit" ]

let header_value json = function
  | "schema_version" -> (
    match Json.member "schema_version" json with
    | Some (Json.Int i) -> Some (string_of_int i)
    | _ -> None)
  | key -> (
    match Option.bind (Json.member "meta" json) (Json.member key) with
    | Some (Json.String s) -> Some s
    | _ -> None)

let meta_mismatches old_json new_json =
  List.filter_map
    (fun key ->
      match (header_value old_json key, header_value new_json key) with
      | Some o, Some n when o <> n -> Some (key, o, n)
      | _ -> None)
    provenance_keys

let rel_delta o n =
  if o = n then 0.0
  else if o = 0.0 then infinity
  else Float.abs (n -. o) /. Float.abs o

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

(* flatten one report into (metric, value, timing) triples *)
let metrics_of_report json =
  let acc = ref [] in
  let push metric v timing = acc := (metric, v, timing) :: !acc in
  let obj key = match Json.member key json with Some (Json.Obj fields) -> fields | _ -> [] in
  List.iter
    (fun (name, v) ->
      match number v with Some f -> push ("counters." ^ name) f false | None -> ())
    (obj "counters");
  List.iter
    (fun (name, v) ->
      (match Option.bind (Json.member "count" v) number with
      | Some f -> push ("spans." ^ name ^ ".count") f false
      | None -> ());
      match Option.bind (Json.member "seconds" v) number with
      | Some f -> push ("spans." ^ name ^ ".seconds") f true
      | None -> ())
    (obj "spans");
  List.iter
    (fun (name, v) ->
      (match Option.bind (Json.member "count" v) number with
      | Some f -> push ("histograms." ^ name ^ ".count") f false
      | None -> ());
      match Option.bind (Json.member "sum" v) number with
      | Some f -> push ("histograms." ^ name ^ ".sum") f false
      | None -> ())
    (obj "histograms");
  List.rev !acc

(* Deltas between two reports, changed metrics only. A metric present on
   one side only compares against 0 — spans and histograms are omitted
   from a report when never recorded into. *)
let compare_reports old_json new_json =
  let old_metrics = metrics_of_report old_json in
  let new_metrics = metrics_of_report new_json in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (m, v, timing) -> Hashtbl.replace tbl m (v, 0.0, timing))
    old_metrics;
  List.iter
    (fun (m, v, timing) ->
      match Hashtbl.find_opt tbl m with
      | Some (o, _, t) -> Hashtbl.replace tbl m (o, v, t || timing)
      | None -> Hashtbl.replace tbl m (0.0, v, timing))
    new_metrics;
  Hashtbl.fold
    (fun metric (o, n, timing) acc ->
      if o = n then acc
      else { metric; old_value = o; new_value = n; rel = rel_delta o n; timing } :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.metric b.metric)

let json_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare

let diff_dirs ~old_dir ~new_dir =
  let old_files = json_files old_dir and new_files = json_files new_dir in
  let load dir f =
    match Json.of_file (Filename.concat dir f) with
    | Ok json -> (
      match validate_report json with
      | Ok json -> json
      | Error msg -> raise (Sys_error (Printf.sprintf "%s/%s: invalid report: %s" dir f msg)))
    | Error msg -> raise (Sys_error (Printf.sprintf "%s/%s: unparsable report: %s" dir f msg))
  in
  let pairs =
    List.filter_map
      (fun f ->
        if List.mem f new_files then begin
          let o = load old_dir f and n = load new_dir f in
          let names json = List.map (fun (m, _, _) -> m) (metrics_of_report json) in
          Some
            {
              experiment = Filename.remove_extension f;
              deltas = compare_reports o n;
              metrics = List.sort_uniq compare (names o @ names n);
              meta_diff = meta_mismatches o n;
            }
        end
        else None)
      old_files
  in
  {
    pairs;
    only_old =
      List.filter_map
        (fun f -> if List.mem f new_files then None else Some (Filename.remove_extension f))
        old_files;
    only_new =
      List.filter_map
        (fun f -> if List.mem f old_files then None else Some (Filename.remove_extension f))
        new_files;
  }

(* the gate: timing metrics use [time_threshold] (None = never gated),
   everything else uses [threshold] *)
let exceeds ~threshold ~time_threshold d =
  if d.timing then match time_threshold with None -> false | Some t -> d.rel > t
  else d.rel > threshold

let regressions ~threshold ~time_threshold outcome =
  List.concat_map
    (fun p ->
      List.filter_map
        (fun d ->
          if exceeds ~threshold ~time_threshold d then Some (p.experiment, d) else None)
        p.deltas)
    outcome.pairs

(* pass = no gated delta and no experiment lost from the old tree;
   reports only present in the new tree are fine (coverage grew) *)
let passes ~threshold ~time_threshold outcome =
  outcome.only_old = [] && regressions ~threshold ~time_threshold outcome = []

let pp_delta ppf d =
  let pct = if Float.is_integer (d.rel *. 100.0) then "%.0f%%" else "%.1f%%" in
  Format.fprintf ppf "%-44s %14g -> %-14g %s" d.metric d.old_value d.new_value
    (if d.rel = infinity then "(new)" else Printf.sprintf (Scanf.format_from_string pct "%f") (d.rel *. 100.0))

let pp_outcome ~threshold ~time_threshold ppf outcome =
  (* provenance header: runs from different machines/compilers still
     diff, but the reader should know the ground shifted *)
  List.iter
    (fun (key, o, n) -> Format.fprintf ppf "meta: %s differs: %s -> %s@." key o n)
    (List.sort_uniq compare (List.concat_map (fun p -> p.meta_diff) outcome.pairs));
  List.iter
    (fun p ->
      match p.deltas with
      | [] -> ()
      | ds ->
        Format.fprintf ppf "%s:@." p.experiment;
        List.iter
          (fun d ->
            Format.fprintf ppf "  %s%a@."
              (if exceeds ~threshold ~time_threshold d then "! " else "  ")
              pp_delta d)
          ds)
    outcome.pairs;
  List.iter (Format.fprintf ppf "missing from new tree: %s@.") outcome.only_old;
  List.iter (Format.fprintf ppf "only in new tree: %s@.") outcome.only_new

(* ---------- cross-run trend ----------

   The store's `report trend` walks the last N runs of one
   model/engine family and diffs each consecutive pair, so a slowdown
   that crept in three runs ago is attributed to the step where it
   appeared rather than to the whole window. *)

type trend_step = {
  from_label : string;
  to_label : string;
  step_deltas : delta list;
  step_meta_diff : (string * string * string) list;
}

let trend labeled =
  let invalid =
    List.find_map
      (fun (label, json) ->
        match validate_report json with
        | Ok _ -> None
        | Error msg -> Some (Printf.sprintf "%s: invalid report: %s" label msg))
      labeled
  in
  match invalid with
  | Some msg -> Error msg
  | None ->
    let rec steps = function
      | (l1, j1) :: ((l2, j2) :: _ as rest) ->
        {
          from_label = l1;
          to_label = l2;
          step_deltas = compare_reports j1 j2;
          step_meta_diff = meta_mismatches j1 j2;
        }
        :: steps rest
      | _ -> []
    in
    Ok (steps labeled)

(* ---------- the cbq-bench-regress entry point ----------

   In-process and formatter-parametric so the exit-code contract (0
   within thresholds / 1 regression / 2 usage error, unreadable
   directory, empty old tree or an --only that matches no metric) and
   the stdout/stderr split are unit-testable; the bench/regress.ml
   executable is one line on top of this. *)

let main ?(out = Format.std_formatter) ?(err = Format.err_formatter) argv =
  let exception Quit of int in
  let usage () =
    Format.fprintf err
      "usage: cbq-bench-regress OLD_DIR NEW_DIR [--threshold=REL] [--time-threshold=REL] \
       [--only=PREFIX]@.";
    raise (Quit 2)
  in
  try
    let dirs = ref [] in
    let threshold = ref 0.1 in
    let time_threshold = ref None in
    let only : string list ref = ref [] in
    let float_arg name s =
      match float_of_string_opt s with
      | Some f when f >= 0.0 -> f
      | Some _ | None ->
        Format.fprintf err "cbq-bench-regress: %s expects a non-negative number, got %S@." name s;
        raise (Quit 2)
    in
    Array.iteri
      (fun i arg ->
        if i > 0 then
          match String.index_opt arg '=' with
          | Some eq when String.length arg > 2 && String.sub arg 0 2 = "--" ->
            let key = String.sub arg 0 eq in
            let value = String.sub arg (eq + 1) (String.length arg - eq - 1) in
            (match key with
            | "--threshold" -> threshold := float_arg key value
            | "--time-threshold" -> time_threshold := Some (float_arg key value)
            | "--only" -> only := value :: !only
            | _ -> usage ())
          | _ -> (
            match arg with
            | "--help" | "-h" -> usage ()
            | _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
            | _ -> dirs := arg :: !dirs))
      argv;
    let old_dir, new_dir = match List.rev !dirs with [ o; n ] -> (o, n) | _ -> usage () in
    List.iter
      (fun dir ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Format.fprintf err "cbq-bench-regress: %s is not a directory@." dir;
          raise (Quit 2)
        end)
      [ old_dir; new_dir ];
    (* an empty baseline pairs nothing, so a pass would gate nothing *)
    if json_files old_dir = [] then begin
      Format.fprintf err "cbq-bench-regress: %s holds no .json report to compare against@." old_dir;
      raise (Quit 2)
    end;
    let outcome =
      try diff_dirs ~old_dir ~new_dir
      with Sys_error msg ->
        Format.fprintf err "cbq-bench-regress: %s@." msg;
        raise (Quit 2)
    in
    (* --only narrows the diff to metrics under the given prefixes, so a
       bench mixing deterministic row counters with scheduling-dependent
       library counters (e.g. how far a cancelled racer got) can gate
       just the former *)
    let outcome =
      match !only with
      | [] -> outcome
      | prefixes ->
        let keep metric = List.exists (fun p -> String.starts_with ~prefix:p metric) prefixes in
        (* a prefix that names no metric gates nothing, like an empty
           baseline: most likely a typo *)
        if not (List.exists (fun p -> List.exists keep p.metrics) outcome.pairs) then begin
          Format.fprintf err "cbq-bench-regress: no metric of either tree starts with %s@."
            (String.concat " or " (List.rev_map (fun p -> "--only=" ^ p) prefixes));
          raise (Quit 2)
        end;
        let narrow p = { p with deltas = List.filter (fun d -> keep d.metric) p.deltas } in
        { outcome with pairs = List.map narrow outcome.pairs }
    in
    let threshold = !threshold and time_threshold = !time_threshold in
    Format.fprintf out "%a" (pp_outcome ~threshold ~time_threshold) outcome;
    let gated = regressions ~threshold ~time_threshold outcome in
    let compared = List.length outcome.pairs in
    if passes ~threshold ~time_threshold outcome then begin
      Format.fprintf out "OK: %d report pair%s within %.0f%%%s@." compared
        (if compared = 1 then "" else "s")
        (threshold *. 100.0)
        (match time_threshold with
        | None -> " (timings not gated)"
        | Some t -> Printf.sprintf " (timings within %.0f%%)" (t *. 100.0));
      0
    end
    else begin
      Format.fprintf out "REGRESSION: %d gated delta%s, %d report%s missing from the new tree@."
        (List.length gated)
        (if List.length gated = 1 then "" else "s")
        (List.length outcome.only_old)
        (if List.length outcome.only_old = 1 then "" else "s");
      1
    end
  with Quit n -> n
