(* The job daemon end to end, in process: protocol codec totality,
   malformed-frame and wrong-typed-field rejection without connection
   loss, concurrent batch verdicts agreeing with sequential runs,
   cooperative cancellation (explicit and by client disconnect), the
   server budget ceiling, and the shared run-report store after a
   batch. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

let with_dir f =
  let dir = Filename.temp_file "cbq_serve" "" in
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

(* a served model: registry circuit frozen to ASCII AIGER bytes *)
let frozen name param =
  let model, _ = Circuits.Registry.build name (Some param) in
  (Netlist.Model.name model, Netlist.Aiger.write model)

let spec ?(engine = "cbq-bwd") ?(budget = Serve.Protocol.no_budget) ~tag name param =
  let model_name, aig = frozen name param in
  { Serve.Client.tag; model_name; aig; engine; budget }

let with_server ?jobs ?ceiling ?store f =
  with_dir @@ fun dir ->
  let server =
    Serve.Server.start ?jobs ?ceiling ?store
      (Serve.Protocol.Unix_path (Filename.concat dir "s.sock"))
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server)
    (fun () -> f server (Serve.Server.address server))

let connect address = Serve.Client.connect address

(* ---------- protocol codec ---------- *)

let requests_roundtrip () =
  let budget =
    {
      Serve.Protocol.timeout = Some 1.5;
      max_conflicts = Some 100;
      max_aig_nodes = None;
      max_bdd_nodes = Some 7;
    }
  in
  let reqs =
    [
      Serve.Protocol.Submit
        {
          tag = "t1";
          model_name = "m";
          aig = "aag 0 0 0 1 0\n1\n";
          engine = "bmc";
          budget;
          quantify_backend = None;
        };
      Serve.Protocol.Submit
        {
          tag = "t2";
          model_name = "m2";
          aig = "x";
          engine = "cbq-bwd";
          budget = Serve.Protocol.no_budget;
          quantify_backend = Some "circuit";
        };
      Serve.Protocol.Cancel { id = 42 };
      Serve.Protocol.Ping;
      Serve.Protocol.Stats;
      Serve.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      let line = Serve.Protocol.request_to_line r in
      check bool "one line" false (String.contains line '\n');
      match Serve.Protocol.request_of_line line with
      | Ok r' -> check bool "request round-trips" true (r = r')
      | Error msg -> Alcotest.fail msg)
    reqs

let events_roundtrip () =
  let events =
    [
      Serve.Protocol.Accepted { tag = "t"; id = 1 };
      Serve.Protocol.Rejected { tag = "t"; reason = "no \"such\" engine" };
      Serve.Protocol.Started { id = 3 };
      Serve.Protocol.Progress { id = 3; frame = 7; nodes = 140 };
      Serve.Protocol.Done
        { id = 3; verdict = Baselines.Verdict.Proved; seconds = 0.25; report = Some 9 };
      Serve.Protocol.Done
        { id = 4; verdict = Baselines.Verdict.Falsified 15; seconds = 1.0; report = None };
      Serve.Protocol.Done
        {
          id = 5;
          verdict = Baselines.Verdict.Undecided "deadline";
          seconds = 2.0;
          report = None;
        };
      Serve.Protocol.Failed { id = 6; message = "stack overflow" };
      Serve.Protocol.Pong;
      Serve.Protocol.Stats_reply { queued = 1; running = 2; completed = 3; workers = 4 };
      Serve.Protocol.Bye;
      Serve.Protocol.Protocol_error { message = "bad frame" };
    ]
  in
  List.iter
    (fun e ->
      let line = Serve.Protocol.event_to_line e in
      check bool "one line" false (String.contains line '\n');
      match Serve.Protocol.event_of_line line with
      | Ok e' -> check bool "event round-trips" true (e = e')
      | Error msg -> Alcotest.fail msg)
    events

let malformed_frames () =
  let bad l =
    match Serve.Protocol.request_of_line l with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted malformed frame %S" l)
  in
  bad "not json";
  bad "[1,2]";
  bad "{\"no\":\"type\"}";
  bad "{\"type\":\"warp\"}";
  bad "{\"type\":\"submit\",\"tag\":\"t\"}";
  (* missing model/engine/aig *)
  bad "{\"type\":\"cancel\"}";
  (* missing id *)
  bad (String.make 1_000_000 '[')
  (* nested past the JSON parser's depth cap *)

(* a counter(2) submit frame with [extra] spliced in verbatim, so a test
   can spell a field's JSON type exactly *)
let submit_frame ?(extra = "") tag =
  let model_name, aig = frozen "counter" 2 in
  let line =
    Serve.Protocol.request_to_line
      (Serve.Protocol.submit ~tag ~model_name ~aig ~engine:"cbq-bwd"
         ~budget:Serve.Protocol.no_budget)
  in
  String.sub line 0 (String.length line - 1) ^ extra ^ "}"

(* present-but-wrong optional fields: each must be a decode error that
   names the field, never a silent default *)
let bad_fields =
  [
    (",\"max_conflicts\":\"5\"", "max_conflicts");
    (",\"max_conflicts\":5.0", "max_conflicts");
    (",\"timeout\":\"1\"", "timeout");
    (",\"quantify_backend\":5", "quantify_backend");
    (",\"quantify_backend\":\"pqe\"", "quantify_backend");
    (",\"quantify_backend\":\"auto\"", "quantify_backend");
  ]

let contains s sub =
  let n = String.length sub in
  let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

let names_field field message = contains message (Printf.sprintf "%S" field)

let wrong_typed_fields () =
  List.iter
    (fun (extra, field) ->
      match Serve.Protocol.request_of_line (submit_frame ~extra "t") with
      | Error message ->
        check bool (Printf.sprintf "%s: %S names the field" extra message) true
          (names_field field message)
      | Ok _ -> Alcotest.failf "decoded a submit with %s" extra)
    bad_fields;
  (match
     Serve.Protocol.request_of_line (submit_frame ~extra:",\"quantify_backend\":\"pqe\"" "t")
   with
  | Error message -> check bool "names the only backend" true (contains message "\"circuit\"")
  | Ok _ -> Alcotest.fail "pqe is not a backend");
  (match Serve.Protocol.request_of_line (submit_frame ~extra:",\"max_conflicts\":5" "t") with
  | Ok (Serve.Protocol.Submit { budget; _ }) ->
    check bool "an integer limit decodes" true (budget.Serve.Protocol.max_conflicts = Some 5)
  | _ -> Alcotest.fail "a well-typed limit must decode");
  List.iter
    (fun extra ->
      match Serve.Protocol.request_of_line (submit_frame ~extra "t") with
      | Ok (Serve.Protocol.Submit _) -> ()
      | _ -> Alcotest.failf "submit with %S must decode" extra)
    [ ""; ",\"quantify_backend\":\"circuit\"" ]

(* no raw-line entry point on the client, so the wire tests speak the
   protocol directly *)
let raw_connect = function
  | Serve.Protocol.Unix_path p ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX p);
    fd
  | Serve.Protocol.Tcp _ -> Alcotest.fail "test uses unix sockets"

(* a malformed line over the wire draws a protocol error and leaves the
   connection usable; so does a submit with a wrong-typed field, whose
   error names the field *)
let malformed_over_the_wire () =
  with_server ~jobs:1 @@ fun _server address ->
  (* garbage, then a valid ping *)
  let sock = raw_connect address in
  let outc = Unix.out_channel_of_descr sock in
  let inc = Unix.in_channel_of_descr sock in
  output_string outc "this is { not json\n";
  List.iter (fun (extra, _) -> output_string outc (submit_frame ~extra "bad" ^ "\n")) bad_fields;
  output_string outc "{\"type\":\"ping\"}\n";
  flush outc;
  List.iter
    (fun field ->
      match Serve.Protocol.event_of_line (input_line inc) with
      | Ok (Serve.Protocol.Protocol_error { message }) ->
        check bool (Printf.sprintf "%S names %s" message field) true
          (field = "" || names_field field message)
      | Ok e ->
        Alcotest.fail
          (Printf.sprintf "expected a protocol error, got %s" (Serve.Protocol.event_to_line e))
      | Error msg -> Alcotest.fail msg)
    ("" :: List.map snd bad_fields);
  (match Serve.Protocol.event_of_line (input_line inc) with
  | Ok Serve.Protocol.Pong -> ()
  | Ok e ->
    Alcotest.fail
      (Printf.sprintf "connection should survive garbage, got %s"
         (Serve.Protocol.event_to_line e))
  | Error msg -> Alcotest.fail msg);
  Unix.close sock

(* everything the server sends until it closes the connection, or [None]
   when it has not closed within [timeout] seconds *)
let read_to_eof sock ~timeout =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let watch = Util.Stopwatch.start () in
  let rec go () =
    let left = timeout -. Util.Stopwatch.elapsed watch in
    if left <= 0.0 then None
    else
      match Unix.select [ sock ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> Some (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ())
  in
  go ()

(* a frame one byte over the cap with no newline draws one protocol
   error naming the limit, then the server hangs up *)
let oversized_frame () =
  with_server ~jobs:1 @@ fun _server address ->
  let sock = raw_connect address in
  Fun.protect ~finally:(fun () -> Unix.close sock) @@ fun () ->
  let limit = Serve.Server.max_frame_bytes in
  let outc = Unix.out_channel_of_descr sock in
  output_string outc (String.make (limit + 1) 'x');
  flush outc;
  match read_to_eof sock ~timeout:20.0 with
  | None -> Alcotest.fail "no error and no hang-up within 20s"
  | Some reply -> (
    match String.split_on_char '\n' reply with
    | [ line; "" ] -> (
      match Serve.Protocol.event_of_line line with
      | Ok (Serve.Protocol.Protocol_error { message }) ->
        check bool (Printf.sprintf "%S names the limit" message) true
          (contains message (string_of_int limit))
      | Ok e -> Alcotest.failf "expected a protocol error, got %s" (Serve.Protocol.event_to_line e)
      | Error msg -> Alcotest.fail msg)
    | _ -> Alcotest.failf "expected one event, then EOF; got %S" reply)

(* ---------- verdict parity: concurrent batch vs sequential ---------- *)

let batch_matches_sequential () =
  let cases =
    [ ("counter", 2); ("counter", 3); ("counter-even", 4); ("gray", 3); ("twin-shift", 4) ]
  in
  (* sequential ground truth straight from the suite, and the frame
     count of the same traversal: one progress event per frame *)
  let expected =
    List.map
      (fun (name, param) ->
        let model, _ = Circuits.Registry.build name (Some param) in
        let engine = Option.get (Baselines.Suite.find "cbq-bwd") in
        let verdict, _ = engine.Baselines.Suite.run ~limits:(Util.Limits.create ()) model in
        (verdict, List.length (Cbq.Reachability.run model).Cbq.Reachability.iterations))
      cases
  in
  with_server ~jobs:4 @@ fun _server address ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let specs =
    List.mapi (fun i (name, param) -> spec ~tag:(Printf.sprintf "job%d" i) name param) cases
  in
  let outcomes = Serve.Client.run_batch c specs in
  List.iteri
    (fun i ((exp, frames), got) ->
      match got with
      | Serve.Client.Finished { verdict; progress; _ } ->
        check bool
          (Printf.sprintf "job %d agrees with the sequential verdict" i)
          true (verdict = exp);
        check int (Printf.sprintf "job %d streams one progress event per frame" i) frames progress
      | Serve.Client.Crashed { message; _ } -> Alcotest.fail message
      | Serve.Client.Refused { reason } -> Alcotest.fail reason)
    (List.combine expected outcomes)

(* rejections: unknown engine and unparsable model, without burning a
   worker or the connection *)
let submit_rejections () =
  with_server ~jobs:1 @@ fun _server address ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (match Serve.Client.submit_wait c (spec ~engine:"warp-drive" ~tag:"a" "counter" 2) with
  | Serve.Client.Refused { reason } ->
    check bool "reason names the engine" true
      (String.length reason > 0
      && String.lowercase_ascii reason |> fun s ->
         String.length s >= 7 && String.sub s 0 7 = "unknown")
  | _ -> Alcotest.fail "unknown engine must be refused");
  (match
     Serve.Client.submit_wait c
       { Serve.Client.tag = "b"; model_name = "junk"; aig = "aag junk"; engine = "bmc";
         budget = Serve.Protocol.no_budget }
   with
  | Serve.Client.Refused _ -> ()
  | _ -> Alcotest.fail "unparsable AIGER must be refused");
  (* a backend other than "circuit" does not decode *)
  let model_name, aig = frozen "counter" 2 in
  let submit tag quantify_backend =
    Serve.Client.send c
      (Serve.Protocol.Submit
         {
           tag;
           model_name;
           aig;
           engine = "cbq-bwd";
           budget = Serve.Protocol.no_budget;
           quantify_backend;
         })
  in
  submit "q" (Some "pqe");
  (match Serve.Client.recv c with
  | Some (Serve.Protocol.Protocol_error { message }) ->
    check bool "reason names the only backend" true (contains message "\"circuit\"")
  | _ -> Alcotest.fail "the pqe backend must be refused");
  (* the same connection still works, naming the one backend included *)
  submit "c" (Some "circuit");
  let rec verdict () =
    match Serve.Client.recv c with
    | Some (Serve.Protocol.Done { verdict; _ }) -> verdict
    | Some (Serve.Protocol.Rejected { reason; _ }) -> Alcotest.fail reason
    | Some _ -> verdict ()
    | None -> Alcotest.fail "connection closed"
  in
  check bool "valid submit after rejections still runs" true
    (verdict () = Baselines.Verdict.Falsified 3)

(* ---------- cancellation ---------- *)

(* a job that cannot finish soon: falsifying counter(12) needs 4095
   backward frames *)
let slow_spec ~tag = spec ~tag "counter" 12

(* submit [s] and return the id the daemon accepted it under, passing
   over the events of jobs already running *)
let submit_accepted c (s : Serve.Client.job_spec) =
  Serve.Client.send c
    (Serve.Protocol.submit ~tag:s.tag ~model_name:s.model_name ~aig:s.aig ~engine:s.engine
       ~budget:s.budget);
  let rec accepted () =
    match Serve.Client.recv c with
    | Some (Serve.Protocol.Accepted { tag; id }) when tag = s.tag -> id
    | Some (Serve.Protocol.Progress _) -> accepted ()
    | Some e -> Alcotest.failf "expected accept, got %s" (Serve.Protocol.event_to_line e)
    | None -> Alcotest.fail "expected accept, got EOF"
  in
  accepted ()

(* a running job and one queued behind it on the only worker, both
   cancelled: the queued one ends without ever starting *)
let explicit_cancel () =
  with_server ~jobs:1 @@ fun _server address ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let id = submit_accepted c (slow_spec ~tag:"slow") in
  (* the accept precedes every worker event for the job; wait for the
     run to actually start, then cancel it *)
  (match Serve.Client.recv c with
  | Some (Serve.Protocol.Started { id = i }) -> check int "started id" id i
  | _ -> Alcotest.fail "expected started");
  let queued = submit_accepted c (slow_spec ~tag:"queued") in
  Serve.Client.send c (Serve.Protocol.Cancel { id = queued });
  Serve.Client.send c (Serve.Protocol.Cancel { id });
  let watch = Util.Stopwatch.start () in
  let rec await pending =
    if pending <> [] then
      match Serve.Client.recv c with
      | Some (Serve.Protocol.Started { id = i }) when i = queued ->
        Alcotest.fail "a job cancelled in the queue must not start"
      | Some (Serve.Protocol.Done { id = i; verdict; _ }) when List.mem i pending ->
        (match verdict with
        | Baselines.Verdict.Undecided why ->
          if i = queued then check string "queued job's reason" "cancelled" why
        | _ -> Alcotest.fail "a cancelled job cannot decide");
        await (List.filter (( <> ) i) pending)
      | Some _ -> await pending
      | None -> Alcotest.fail "connection closed before the cancel verdicts"
  in
  await [ id; queued ];
  check bool "cancellation is prompt" true (Util.Stopwatch.elapsed watch < 2.0)

let disconnect_cancels () =
  with_dir @@ fun dir ->
  let store = Obs.Store.open_ dir in
  with_server ~jobs:1 ~store @@ fun server address ->
  let c = connect address in
  let s = slow_spec ~tag:"orphan" in
  Serve.Client.send c
    (Serve.Protocol.Submit
       {
         tag = s.Serve.Client.tag;
         model_name = s.Serve.Client.model_name;
         aig = s.Serve.Client.aig;
         engine = s.Serve.Client.engine;
         budget = s.Serve.Client.budget;
         quantify_backend = None;
       });
  (match Serve.Client.recv c with
  | Some (Serve.Protocol.Accepted _) -> ()
  | _ -> Alcotest.fail "expected accept");
  (match Serve.Client.recv c with
  | Some (Serve.Protocol.Started _) -> ()
  | _ -> Alcotest.fail "expected started");
  (* vanish mid-job: the daemon must cancel the orphan, not run it for
     4095 frames *)
  Serve.Client.close c;
  let scheduler = Serve.Server.scheduler server in
  let deadline = Util.Stopwatch.start () in
  let rec wait () =
    let stats = Serve.Scheduler.stats scheduler in
    if stats.Serve.Scheduler.completed >= 1 then ()
    else if Util.Stopwatch.elapsed deadline > 60.0 then
      Alcotest.fail "orphaned job still running 60s after its client disconnected"
    else begin
      Unix.sleepf 0.05;
      wait ()
    end
  in
  wait ();
  (* the stored report records the cancellation *)
  Obs.Store.flush store;
  match Obs.Store.entries store with
  | [ entry ] -> (
    match Obs.Store.load store entry.Obs.Store.id with
    | Error msg -> Alcotest.fail msg
    | Ok (_, report) -> (
      match
        Option.bind (Obs.Json.member "counters" report) (Obs.Json.member "serve.job.cancelled")
      with
      | Some (Obs.Json.Int 1) -> ()
      | _ -> Alcotest.fail "stored report must mark the job cancelled"))
  | entries ->
    Alcotest.fail (Printf.sprintf "expected exactly one stored run, found %d" (List.length entries))

(* ---------- a connection flood ---------- *)

(* the first line the server sends on [sock], or [None] when it sends
   none within [timeout] seconds *)
let line_within sock ~timeout =
  let line = Buffer.create 64 and byte = Bytes.create 1 in
  let watch = Util.Stopwatch.start () in
  let rec go () =
    let left = timeout -. Util.Stopwatch.elapsed watch in
    if left <= 0.0 then None
    else
      match Unix.select [ sock ] [] [] left with
      | [], _, _ -> None
      | _ -> (
        match Unix.read sock byte 0 1 with
        | 0 -> None
        | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents line)
        | _ ->
          Buffer.add_bytes line byte;
          go ())
  in
  try go () with Unix.Unix_error _ -> None

(* the server's answer to a ping, within 5 s *)
let ping_reply sock =
  let ping = "{\"type\":\"ping\"}\n" in
  (* a refused connection may already be closed: its answer is queued *)
  (try ignore (Unix.write_substring sock ping 0 (String.length ping))
   with Unix.Unix_error _ -> ());
  match line_within sock ~timeout:5.0 with
  | None -> None
  | Some line -> Some (Serve.Protocol.event_of_line line)

(* more connections than the daemon serves at once: the one past the cap
   is refused with a protocol error, and the daemon goes on serving *)
let connection_flood () =
  with_server ~jobs:1 @@ fun _server address ->
  let opened = ref [] in
  let close_all () =
    List.iter Unix.close !opened;
    opened := []
  in
  Fun.protect ~finally:close_all @@ fun () ->
  let rec flood n =
    if n > 130 then Alcotest.fail "130 connections and none refused";
    let sock = raw_connect address in
    opened := sock :: !opened;
    match ping_reply sock with
    | Some (Ok Serve.Protocol.Pong) -> flood (n + 1)
    | Some (Ok (Serve.Protocol.Protocol_error { message })) -> (n, message)
    | Some (Ok e) -> Alcotest.failf "connection %d: got %s" n (Serve.Protocol.event_to_line e)
    | Some (Error msg) -> Alcotest.failf "connection %d: %s" n msg
    | None -> Alcotest.failf "connection %d: no answer within 5s" n
  in
  let n, message = flood 1 in
  let cap = Serve.Server.max_connections in
  check int "the first connection past the cap is refused" (cap + 1) n;
  check bool (Printf.sprintf "%S names the cap" message) true
    (contains message (string_of_int cap));
  close_all ();
  (* the closed connections' handlers wind down on their own: a fresh
     connection is served once they have *)
  let rec fresh attempt =
    let sock = raw_connect address in
    let reply = ping_reply sock in
    Unix.close sock;
    match reply with
    | Some (Ok Serve.Protocol.Pong) -> ()
    | Some (Ok (Serve.Protocol.Protocol_error _)) when attempt < 50 ->
      Unix.sleepf 0.1;
      fresh (attempt + 1)
    | _ -> Alcotest.fail "no fresh connection served after the flood"
  in
  fresh 1

(* ---------- the budget ceiling ---------- *)

let ceiling_caps_budget () =
  let ceiling = { Serve.Protocol.no_budget with max_conflicts = Some 1 } in
  with_server ~jobs:1 ~ceiling @@ fun _server address ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (* the client asks for an unlimited run of a model whose bmc refutation
     needs real SAT work; the server's 1-conflict pool must starve it *)
  match Serve.Client.submit_wait c (spec ~engine:"bmc" ~tag:"greedy" "counter" 6) with
  | Serve.Client.Finished { verdict = Baselines.Verdict.Undecided _; seconds; _ } ->
    check bool "budget-capped promptly" true (seconds < 2.0)
  | Serve.Client.Finished { verdict; _ } ->
    Alcotest.fail
      (Printf.sprintf "1-conflict ceiling cannot decide counter(6), got %s"
         (match verdict with
         | Baselines.Verdict.Proved -> "proved"
         | Baselines.Verdict.Falsified d -> Printf.sprintf "falsified:%d" d
         | Baselines.Verdict.Undecided _ -> "undecided"))
  | Serve.Client.Crashed { message; _ } -> Alcotest.fail message
  | Serve.Client.Refused { reason } -> Alcotest.fail reason

(* ---------- store contents after a batch ---------- *)

let store_after_batch () =
  with_dir @@ fun dir ->
  let store = Obs.Store.open_ dir in
  (with_server ~jobs:3 ~store @@ fun _server address ->
   let c = connect address in
   Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
   let specs =
     List.init 6 (fun i -> spec ~tag:(Printf.sprintf "b%d" i) ~engine:"bmc" "counter" 2)
   in
   let outcomes = Serve.Client.run_batch c specs in
   List.iter
     (function
       | Serve.Client.Finished { report = Some _; _ } -> ()
       | Serve.Client.Finished { report = None; _ } ->
         Alcotest.fail "every completed job must be stored"
       | Serve.Client.Crashed { message; _ } -> Alcotest.fail message
       | Serve.Client.Refused { reason } -> Alcotest.fail reason)
     outcomes);
  (* reopen cold: the daemon flushed its index at shutdown *)
  let reopened = Obs.Store.open_ dir in
  let entries = Obs.Store.entries reopened in
  check int "one stored run per job" 6 (List.length entries);
  List.iter
    (fun e ->
      check string "engine column" "bmc" e.Obs.Store.engine;
      check string "model column" "counter2" e.Obs.Store.model;
      match Obs.Store.load reopened e.Obs.Store.id with
      | Ok (_, report) -> (
        match
          Option.bind (Obs.Json.member "meta" report) (Obs.Json.member "tool")
        with
        | Some (Obs.Json.String "cbq-mc-serve") -> ()
        | _ -> Alcotest.fail "stored report must name the serving tool")
      | Error msg -> Alcotest.fail msg)
    entries

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "requests round-trip" `Quick requests_roundtrip;
          Alcotest.test_case "events round-trip" `Quick events_roundtrip;
          Alcotest.test_case "malformed frames are rejected" `Quick malformed_frames;
          Alcotest.test_case "wrong-typed fields name the field" `Quick wrong_typed_fields;
          Alcotest.test_case "garbage on the wire is survivable" `Quick malformed_over_the_wire;
          Alcotest.test_case "an oversized frame closes the connection" `Quick oversized_frame;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "batch verdicts match sequential" `Quick batch_matches_sequential;
          Alcotest.test_case "bad submits are refused" `Quick submit_rejections;
          Alcotest.test_case "explicit cancel" `Quick explicit_cancel;
          Alcotest.test_case "client disconnect cancels its job" `Quick disconnect_cancels;
          Alcotest.test_case "a connection flood is refused, then served" `Quick
            connection_flood;
          Alcotest.test_case "server ceiling caps the client budget" `Quick ceiling_caps_budget;
          Alcotest.test_case "batch lands in the shared store" `Quick store_after_batch;
        ] );
    ]
