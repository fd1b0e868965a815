(* Timeline tracing: the disabled-path contract, ring wraparound
   semantics, begin/end balance repair at export, the Chrome trace_event
   schema of the JSON output, and an end-to-end traced traversal. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* Every test toggles the global tracer; reset on entry, disarm on exit
   so later suites run uninstrumented. *)
let with_trace ?limit enabled f =
  (* reset without ~limit keeps the current ring size, so restore the
     entry size on exit — a small-ring test must not shrink later ones *)
  let saved_limit = Obs.Trace_events.limit () in
  Obs.Trace_events.reset ?limit ();
  Obs.Trace_events.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace_events.set_enabled false;
      Obs.Trace_events.reset ~limit:saved_limit ())
    f

(* ---------- recording ---------- *)

let test_disabled_records_nothing () =
  with_trace false @@ fun () ->
  Obs.Trace_events.begin_ "t.phase";
  Obs.Trace_events.begin_args "t.phase" "k" 1;
  Obs.Trace_events.end_ "t.phase";
  Obs.Trace_events.end_args "t.phase" "k" 1;
  Obs.Trace_events.instant "t.mark";
  Obs.Trace_events.instant_args "t.mark" "k" 1;
  Obs.Trace_events.sample "t.gauge" 42;
  check int "nothing recorded" 0 (Obs.Trace_events.recorded ());
  check (Alcotest.list string) "no events" []
    (List.map (fun e -> e.Obs.Trace_events.ev_name) (Obs.Trace_events.events ()))

let test_event_fields () =
  with_trace true @@ fun () ->
  Obs.Trace_events.begin_args "t.phase" "frame" 3;
  Obs.Trace_events.end_args "t.phase" "size" 99;
  Obs.Trace_events.instant "t.mark";
  Obs.Trace_events.sample "t.gauge" 42;
  match Obs.Trace_events.events () with
  | [ b; e; i; c ] ->
    check string "begin name" "t.phase" b.Obs.Trace_events.ev_name;
    check Alcotest.char "begin phase" 'B' b.Obs.Trace_events.ev_ph;
    check string "begin arg key" "frame" b.Obs.Trace_events.ev_arg_key;
    check int "begin arg value" 3 b.Obs.Trace_events.ev_arg_value;
    check Alcotest.char "end phase" 'E' e.Obs.Trace_events.ev_ph;
    check string "end arg key" "size" e.Obs.Trace_events.ev_arg_key;
    check Alcotest.char "instant phase" 'i' i.Obs.Trace_events.ev_ph;
    check string "instant carries no arg" "" i.Obs.Trace_events.ev_arg_key;
    check Alcotest.char "sample phase" 'C' c.Obs.Trace_events.ev_ph;
    check int "sample value" 42 c.Obs.Trace_events.ev_arg_value;
    check bool "timestamps non-decreasing" true
      (b.Obs.Trace_events.ev_ts <= e.Obs.Trace_events.ev_ts
      && e.Obs.Trace_events.ev_ts <= i.Obs.Trace_events.ev_ts
      && i.Obs.Trace_events.ev_ts <= c.Obs.Trace_events.ev_ts)
  | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs)

let test_with_phase () =
  with_trace true @@ fun () ->
  let r = Obs.Trace_events.with_phase "t.wrapped" (fun () -> 17) in
  check int "returns f's result" 17 r;
  (try Obs.Trace_events.with_phase "t.raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  let phs = List.map (fun e -> e.Obs.Trace_events.ev_ph) (Obs.Trace_events.events ()) in
  check (Alcotest.list Alcotest.char) "closed on return and on raise" [ 'B'; 'E'; 'B'; 'E' ] phs

(* ---------- ring wraparound ---------- *)

let test_wraparound_keeps_newest () =
  with_trace ~limit:8 true @@ fun () ->
  for i = 1 to 20 do
    Obs.Trace_events.instant_args "t.tick" "i" i
  done;
  check int "limit honoured" 8 (Obs.Trace_events.limit ());
  check int "all recordings counted" 20 (Obs.Trace_events.recorded ());
  check int "overwritten ones reported dropped" 12 (Obs.Trace_events.dropped ());
  let kept = List.map (fun e -> e.Obs.Trace_events.ev_arg_value) (Obs.Trace_events.events ()) in
  check (Alcotest.list int) "newest events survive, oldest-first" [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    kept

let test_reset_clears () =
  with_trace ~limit:8 true @@ fun () ->
  Obs.Trace_events.instant "t.old";
  Obs.Trace_events.reset ();
  Obs.Trace_events.set_enabled true;
  check int "recorded cleared" 0 (Obs.Trace_events.recorded ());
  Obs.Trace_events.instant "t.new";
  match Obs.Trace_events.events () with
  | [ e ] -> check string "only the new event" "t.new" e.Obs.Trace_events.ev_name
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ---------- export ---------- *)

let trace_event_list json =
  match Obs.Json.member "traceEvents" json with
  | Some (Obs.Json.List evs) -> evs
  | _ -> Alcotest.fail "no traceEvents array"

let test_json_chrome_schema () =
  with_trace true @@ fun () ->
  Obs.Trace_events.begin_args "t.phase" "frame" 1;
  Obs.Trace_events.instant "t.mark";
  Obs.Trace_events.end_ "t.phase";
  Obs.Trace_events.sample "t.gauge" 7;
  let json = Obs.Trace_events.to_json () in
  (* the serialized export must parse with the in-repo parser (exact
     structural equality is not required — floats serialize at 9
     significant digits) *)
  (match Obs.Json.of_string (Obs.Json.to_string json) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "export does not parse: %s" msg);
  check bool "displayTimeUnit present" true
    (Obs.Json.member "displayTimeUnit" json = Some (Obs.Json.String "ms"));
  let evs = trace_event_list json in
  check int "all events exported" 4 (List.length evs);
  (* chrome://tracing / Perfetto required keys on every event *)
  List.iter
    (fun ev ->
      List.iter
        (fun key ->
          check bool (Printf.sprintf "event has %S" key) true
            (Obs.Json.member key ev <> None))
        [ "name"; "ph"; "ts"; "pid"; "tid" ])
    evs;
  (* counter samples must carry their value in args *)
  let counter =
    List.find (fun ev -> Obs.Json.member "ph" ev = Some (Obs.Json.String "C")) evs
  in
  (match Obs.Json.member "args" counter with
  | Some args -> check bool "counter value in args" true (Obs.Json.member "value" args <> None)
  | None -> Alcotest.fail "counter sample without args")

let phases_of evs =
  List.filter_map
    (fun ev ->
      match (Obs.Json.member "name" ev, Obs.Json.member "ph" ev) with
      | Some (Obs.Json.String n), Some (Obs.Json.String p) -> Some (n, p)
      | _ -> None)
    evs

let test_export_balances_unclosed_begin () =
  with_trace true @@ fun () ->
  Obs.Trace_events.begin_ "t.outer";
  Obs.Trace_events.begin_ "t.inner";
  Obs.Trace_events.end_ "t.inner";
  (* t.outer never ends — the process stopped mid-phase *)
  let evs = trace_event_list (Obs.Trace_events.to_json ()) in
  let opens = List.filter (fun (_, p) -> p = "B") (phases_of evs) in
  let closes = List.filter (fun (_, p) -> p = "E") (phases_of evs) in
  check int "every begin gets an end" (List.length opens) (List.length closes);
  check bool "synthesized close for the unclosed begin" true
    (List.mem ("t.outer", "E") (phases_of evs))

let test_export_drops_orphaned_end () =
  (* wraparound ate the begin: the export must not ship a bare E, which
     corrupts the viewer's stack *)
  with_trace ~limit:2 true @@ fun () ->
  Obs.Trace_events.begin_ "t.lost";
  Obs.Trace_events.instant "t.fill1";
  Obs.Trace_events.instant "t.fill2";
  (* ring now holds fill1,fill2 — the begin is gone *)
  Obs.Trace_events.end_ "t.lost";
  let evs = trace_event_list (Obs.Trace_events.to_json ()) in
  check bool "orphaned end dropped" false (List.mem ("t.lost", "E") (phases_of evs))

let test_write_creates_parents () =
  with_trace true @@ fun () ->
  Obs.Trace_events.instant "t.mark";
  let dir = Filename.temp_file "cbq_trace" "" in
  Sys.remove dir;
  let path = Filename.concat (Filename.concat dir "deep") "trace.json" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (Filename.dirname path) then Sys.rmdir (Filename.dirname path);
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      Obs.Trace_events.write path;
      match Obs.Json.of_file path with
      | Ok json -> check int "one event on disk" 1 (List.length (trace_event_list json))
      | Error msg -> Alcotest.failf "written file does not parse: %s" msg)

(* ---------- end to end ---------- *)

let test_traced_traversal () =
  with_trace true @@ fun () ->
  let model, _ = Circuits.Registry.build "counter" (Some 3) in
  let config = { Cbq.Reachability.default with make_trace = false } in
  ignore (Cbq.Reachability.run ~config model);
  let names =
    List.sort_uniq compare
      (List.map (fun e -> e.Obs.Trace_events.ev_name) (Obs.Trace_events.events ()))
  in
  List.iter
    (fun expected ->
      check bool (Printf.sprintf "traversal emitted %S" expected) true
        (List.mem expected names))
    [ "reach.frame"; "preimage.compute"; "quantify.var"; "sweep.run"; "sat.solve" ];
  (* a BDD run whose node quota blows inside a frame must close that frame *)
  let frames_begun () =
    List.length
      (List.filter
         (fun e -> e.Obs.Trace_events.ev_name = "reach.frame" && e.Obs.Trace_events.ev_ph = 'B')
         (Obs.Trace_events.events ()))
  in
  let cbq_frames = frames_begun () in
  let model, _ = Circuits.Registry.build "counter" (Some 4) in
  let r = Baselines.Bdd_mc.backward ~node_limit:100 model in
  check bool "bdd-bwd stopped by its quota" true
    (r.reach.Cbq.Reachability.verdict = Cbq.Verdict.Undecided "node limit");
  check bool "inside a frame" true
    (frames_begun () - cbq_frames > List.length r.reach.Cbq.Reachability.iterations);
  (* per-name begin/end balance: the engines close every phase they open *)
  let tally = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let d =
        match e.Obs.Trace_events.ev_ph with 'B' -> 1 | 'E' -> -1 | _ -> 0
      in
      let name = e.Obs.Trace_events.ev_name in
      Hashtbl.replace tally name (d + Option.value (Hashtbl.find_opt tally name) ~default:0))
    (Obs.Trace_events.events ());
  Hashtbl.iter
    (fun name d -> check int (Printf.sprintf "%s begins = ends" name) 0 d)
    tally;
  check int "no events lost on the default ring" 0 (Obs.Trace_events.dropped ())

let () =
  Alcotest.run "trace"
    [
      ( "recording",
        [
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "event fields" `Quick test_event_fields;
          Alcotest.test_case "with_phase closes on raise" `Quick test_with_phase;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound keeps newest" `Quick test_wraparound_keeps_newest;
          Alcotest.test_case "reset clears" `Quick test_reset_clears;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace_event schema" `Quick test_json_chrome_schema;
          Alcotest.test_case "unclosed begin gets an end" `Quick
            test_export_balances_unclosed_begin;
          Alcotest.test_case "orphaned end is dropped" `Quick test_export_drops_orphaned_end;
          Alcotest.test_case "write creates parent dirs" `Quick test_write_creates_parents;
        ] );
      ( "integration",
        [ Alcotest.test_case "traced traversal" `Quick test_traced_traversal ] );
    ]
