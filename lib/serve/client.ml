(* Client side of the NDJSON protocol, for the [cbq_mc submit|batch|ctl]
   subcommands and the tests/bench.

   The one non-obvious piece is {!run_batch}: submitting thousands of
   jobs and reading their events over one socket can deadlock a naive
   client — if it writes all submits first, the server may fill the
   client-bound socket buffer with events, block its workers on the
   write, and leave nobody reading while the client in turn blocks on a
   full server-bound buffer. So the batch client writes from a separate
   domain while the calling domain only reads, and correlates replies
   back to specs via the submit tags. *)

type t = {
  fd : Unix.file_descr;
  inc : in_channel;
  outc : out_channel;
  wmutex : Mutex.t; (* run_batch writes from a second domain *)
}

let connect address =
  let fd, sockaddr =
    match address with
    | Protocol.Unix_path path ->
      (Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Protocol.Tcp (host, port) ->
      let inet =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback
      in
      (Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (inet, port))
  in
  Unix.connect fd sockaddr;
  { fd; inc = Unix.in_channel_of_descr fd; outc = Unix.out_channel_of_descr fd; wmutex = Mutex.create () }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t request =
  Mutex.protect t.wmutex (fun () ->
      output_string t.outc (Protocol.request_to_line request);
      output_char t.outc '\n';
      flush t.outc)

(* Blocking read of the next well-formed event; skips frames that fail
   to decode (a server bug, not a reason to wedge the client). *)
let rec recv t =
  match input_line t.inc with
  | exception End_of_file -> None
  | line -> ( match Protocol.event_of_line line with Ok e -> Some e | Error _ -> recv t)

exception Server_closed of string

let recv_exn t what =
  match recv t with
  | Some e -> e
  | None -> raise (Server_closed (Printf.sprintf "connection closed while waiting for %s" what))

(* ---------- one-shot helpers ---------- *)

let ping t =
  send t Protocol.Ping;
  match recv_exn t "pong" with
  | Protocol.Pong -> ()
  | _ -> raise (Server_closed "unexpected reply to ping")

let stats t =
  send t Protocol.Stats;
  let rec wait () =
    match recv_exn t "stats" with
    | Protocol.Stats_reply { queued; running; completed; workers } ->
      (queued, running, completed, workers)
    | _ -> wait ()
  in
  wait ()

let shutdown_server t =
  send t Protocol.Shutdown;
  let rec wait () =
    match recv t with None -> () | Some Protocol.Bye -> () | Some _ -> wait ()
  in
  wait ()

type job_spec = {
  tag : string;
  model_name : string;
  aig : string;
  engine : string;
  budget : Protocol.budget;
}

type outcome =
  | Finished of {
      id : int;
      verdict : Baselines.Verdict.t;
      seconds : float;
      report : int option;
      progress : int; (* progress frames observed *)
    }
  | Crashed of { id : int; message : string }
  | Refused of { reason : string }

let submit_request spec =
  Protocol.submit ~tag:spec.tag ~model_name:spec.model_name ~aig:spec.aig ~engine:spec.engine
    ~budget:spec.budget

(* ---------- submit one job, waiting inline ---------- *)

let submit_wait ?(on_event = fun (_ : Protocol.event) -> ()) t spec =
  send t (submit_request spec);
  let progress = ref 0 in
  let rec await_accept () =
    match recv_exn t "accept" with
    | Protocol.Accepted { tag; id } when tag = spec.tag -> Ok id
    | Protocol.Rejected { tag; reason } when tag = spec.tag -> Error reason
    | e ->
      on_event e;
      await_accept ()
  in
  match await_accept () with
  | Error reason -> Refused { reason }
  | Ok id ->
    let rec await_done () =
      match recv_exn t "verdict" with
      | Protocol.Progress { id = i; _ } as e when i = id ->
        incr progress;
        on_event e;
        await_done ()
      | Protocol.Done { id = i; verdict; seconds; report } when i = id ->
        Finished { id; verdict; seconds; report; progress = !progress }
      | Protocol.Failed { id = i; message } when i = id -> Crashed { id; message }
      | e ->
        on_event e;
        await_done ()
    in
    await_done ()

(* ---------- batch: pipelined submits, interleaved events ---------- *)

let run_batch ?(on_event = fun (_ : Protocol.event) -> ()) t specs =
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let index_of_tag = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i spec ->
      if Hashtbl.mem index_of_tag spec.tag then
        invalid_arg (Printf.sprintf "Client.run_batch: duplicate tag %S" spec.tag);
      Hashtbl.replace index_of_tag spec.tag i)
    specs;
  let outcomes : outcome option array = Array.make n None in
  let progress = Array.make n 0 in
  let index_of_id = Hashtbl.create (2 * n) in
  let writer =
    Domain.spawn (fun () ->
        try
          Array.iter
            (fun spec ->
              send t (submit_request spec))
            specs
        with Sys_error _ | Unix.Unix_error _ -> () (* reader will see the close *))
  in
  let remaining = ref n in
  let rec loop () =
    if !remaining > 0 then
      match recv t with
      | None -> () (* connection closed: remaining outcomes stay None *)
      | Some e ->
        (match e with
        | Protocol.Accepted { tag; id } -> (
          match Hashtbl.find_opt index_of_tag tag with
          | Some i -> Hashtbl.replace index_of_id id i
          | None -> ())
        | Protocol.Rejected { tag; reason } -> (
          match Hashtbl.find_opt index_of_tag tag with
          | Some i ->
            if outcomes.(i) = None then begin
              outcomes.(i) <- Some (Refused { reason });
              decr remaining
            end
          | None -> ())
        | Protocol.Progress { id; _ } -> (
          match Hashtbl.find_opt index_of_id id with
          | Some i -> progress.(i) <- progress.(i) + 1
          | None -> ())
        | Protocol.Done { id; verdict; seconds; report } -> (
          match Hashtbl.find_opt index_of_id id with
          | Some i ->
            if outcomes.(i) = None then begin
              outcomes.(i) <-
                Some (Finished { id; verdict; seconds; report; progress = progress.(i) });
              decr remaining
            end
          | None -> ())
        | Protocol.Failed { id; message } -> (
          match Hashtbl.find_opt index_of_id id with
          | Some i ->
            if outcomes.(i) = None then begin
              outcomes.(i) <- Some (Crashed { id; message });
              decr remaining
            end
          | None -> ())
        | _ -> ());
        on_event e;
        loop ()
  in
  loop ();
  Domain.join writer;
  Array.to_list
    (Array.map
       (function
         | Some o -> o
         | None -> Refused { reason = "connection closed before a verdict arrived" })
       outcomes)
