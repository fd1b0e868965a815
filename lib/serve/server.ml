(* The daemon: accept loop + per-connection handler domains over the
   shared {!Scheduler}.

   Each connection gets its own handler domain reading NDJSON request
   frames; events stream back under a per-connection write mutex, and
   the [Accepted] reply to a [Submit] is written while that mutex is
   still held across the scheduler enqueue — so a client always sees
   [Accepted {tag; id}] before any [Started]/[Progress]/[Done] for that
   id, even though workers emit from other domains.

   Disconnect handling is the reason the daemon ignores SIGPIPE: a
   client that vanishes mid-job must cost the pool nothing beyond the
   next cancellation checkpoint. The default SIGPIPE disposition would
   instead kill the whole server on the first write to the dead socket.
   With the signal ignored, writes fail with [EPIPE]; the first failed
   write (or EOF on the read side) marks the connection dead, drops
   further events on the floor, and cancels every still-unfinished job
   the connection submitted. *)

let obs_connections = Obs.counter "serve.connections"
let obs_disconnect_cancels = Obs.counter "serve.disconnect_cancels"
let obs_protocol_errors = Obs.counter "serve.protocol_errors"

(* Idempotent: first [start] in the process flips SIGPIPE to ignore.
   Not available on Windows, but neither are Unix-domain sockets; the
   repo's CI targets are POSIX. *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

type conn = {
  fd : Unix.file_descr;
  outc : out_channel;
  wmutex : Mutex.t;
  mutable dead : bool;
  mutable jobs : int list; (* ids this connection submitted, newest first *)
  jmutex : Mutex.t;
}

(* a connection's handler domain; its socket is closed only once the
   domain is joined, so no fd number here can have been reused *)
type handler = { hfd : Unix.file_descr; domain : unit Domain.t; finished : bool Atomic.t }

type t = {
  scheduler : Scheduler.t;
  address : Protocol.address; (* actual bound address (TCP port resolved) *)
  listen_fd : Unix.file_descr;
  unix_path : string option; (* to unlink at teardown *)
  stop : bool Atomic.t;
  mutable handlers : handler list; (* the accept domain's, then [wait]'s once it is joined *)
  accept_domain : unit Domain.t option Atomic.t;
  store : Obs.Store.t option;
}

let address t = t.address
let scheduler t = t.scheduler

let remember_job conn id =
  Mutex.protect conn.jmutex (fun () -> conn.jobs <- id :: conn.jobs)

let forget_job conn id =
  Mutex.protect conn.jmutex (fun () -> conn.jobs <- List.filter (fun j -> j <> id) conn.jobs)

let cancel_conn_jobs t conn =
  let ids = Mutex.protect conn.jmutex (fun () -> conn.jobs) in
  List.iter
    (fun id ->
      if Scheduler.cancel t.scheduler id then Obs.incr obs_disconnect_cancels)
    ids

(* Must never raise: called from worker domains deep inside job
   completion. A write failure (EPIPE with SIGPIPE ignored, or a closed
   channel) kills the connection instead. *)
let send t conn event =
  let became_dead =
    Mutex.protect conn.wmutex (fun () ->
        if conn.dead then false
        else
          try
            output_string conn.outc (Protocol.event_to_line event);
            output_char conn.outc '\n';
            flush conn.outc;
            false
          with Sys_error _ | Unix.Unix_error _ ->
            conn.dead <- true;
            true)
  in
  if became_dead then cancel_conn_jobs t conn

let handle_request t conn line =
  match Protocol.request_of_line line with
  | Error message ->
    Obs.incr obs_protocol_errors;
    send t conn (Protocol.Protocol_error { message });
    `Continue
  | Ok (Protocol.Submit { tag; model_name; aig; engine; budget; _ }) ->
    (* Hold the write mutex across enqueue + Accepted so no worker
       event for this id can be written first. The emit closure routes
       every later event through [send] (which re-takes the mutex from
       its own domain). *)
    Mutex.protect conn.wmutex (fun () ->
        let result =
          Scheduler.submit t.scheduler ~tag ~model_name ~aig ~engine ~budget
            ~emit:(fun event ->
              (match event with
              | Protocol.Done { id; _ } | Protocol.Failed { id; _ } -> forget_job conn id
              | _ -> ());
              send t conn event)
        in
        (match result with
        | Ok id -> remember_job conn id
        | Error _ -> ());
        if not conn.dead then begin
          try
            let reply =
              match result with
              | Ok id -> Protocol.Accepted { tag; id }
              | Error reason -> Protocol.Rejected { tag; reason }
            in
            output_string conn.outc (Protocol.event_to_line reply);
            output_char conn.outc '\n';
            flush conn.outc
          with Sys_error _ | Unix.Unix_error _ -> conn.dead <- true
        end);
    if conn.dead then cancel_conn_jobs t conn;
    `Continue
  | Ok (Protocol.Cancel { id }) ->
    ignore (Scheduler.cancel t.scheduler id);
    `Continue
  | Ok Protocol.Ping ->
    send t conn Protocol.Pong;
    `Continue
  | Ok Protocol.Stats ->
    let s = Scheduler.stats t.scheduler in
    send t conn
      (Protocol.Stats_reply
         {
           queued = s.Scheduler.queued;
           running = s.Scheduler.running;
           completed = s.Scheduler.completed;
           workers = s.Scheduler.workers;
         });
    `Continue
  | Ok Protocol.Shutdown ->
    send t conn Protocol.Bye;
    Atomic.set t.stop true;
    (* wake the accept loop out of its blocking [accept] *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
    `Stop

(* Request frames are read through a fixed chunk instead of [input_line],
   which buffers until it sees a newline: a client that never sends one
   would hold the handler domain and unbounded memory. mult-cmp 16 is
   27 245 bytes of AIGER, far below the cap. *)
let max_frame_bytes = 16 * 1024 * 1024

type reader = {
  inc : in_channel;
  chunk : Bytes.t;
  mutable pos : int; (* next unread byte of [chunk] *)
  mutable len : int; (* bytes of [chunk] the last read filled *)
  frame : Buffer.t;
}

let take_frame r =
  let line = Buffer.contents r.frame in
  Buffer.reset r.frame;
  `Frame line

(* The next frame without its newline; like [input_line], an unterminated
   last frame still counts. *)
let rec read_frame r =
  if r.pos = r.len then begin
    r.pos <- 0;
    r.len <- input r.inc r.chunk 0 (Bytes.length r.chunk)
  end;
  if r.len = 0 then if Buffer.length r.frame = 0 then `Eof else take_frame r
  else begin
    let rec newline i = if i = r.len || Bytes.get r.chunk i = '\n' then i else newline (i + 1) in
    let stop = newline r.pos in
    if Buffer.length r.frame + (stop - r.pos) > max_frame_bytes then `Too_long
    else begin
      Buffer.add_subbytes r.frame r.chunk r.pos (stop - r.pos);
      if stop < r.len then begin
        r.pos <- stop + 1;
        take_frame r
      end
      else begin
        r.pos <- r.len;
        read_frame r
      end
    end
  end

let handler t fd finished =
  Obs.incr obs_connections;
  let conn =
    {
      fd;
      outc = Unix.out_channel_of_descr fd;
      wmutex = Mutex.create ();
      dead = false;
      jobs = [];
      jmutex = Mutex.create ();
    }
  in
  let reader =
    {
      inc = Unix.in_channel_of_descr fd;
      chunk = Bytes.create 65536;
      pos = 0;
      len = 0;
      frame = Buffer.create 1024;
    }
  in
  let rec loop () =
    match read_frame reader with
    | exception (Sys_error _ | Unix.Unix_error _) -> ()
    | `Eof -> ()
    | `Too_long ->
      (* the rest of the frame is never read: answer once and hang up *)
      Obs.incr obs_protocol_errors;
      send t conn
        (Protocol.Protocol_error
           { message = Printf.sprintf "request frame longer than %d bytes" max_frame_bytes })
    | `Frame line -> ( match handle_request t conn line with `Continue -> loop () | `Stop -> ())
  in
  loop ();
  (* EOF or stop: whatever this client still has in flight is orphaned *)
  Mutex.protect conn.wmutex (fun () -> conn.dead <- true);
  cancel_conn_jobs t conn;
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Atomic.set finished true

(* OCaml 5 runs at most 128 domains at once, and every connection's
   handler is one: past this many live handlers a connection is refused,
   which leaves the rest for the workers and the racers they spawn *)
let max_connections = 64

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* join the handlers whose connection has ended, and close their sockets *)
let reap t =
  let finished, live = List.partition (fun h -> Atomic.get h.finished) t.handlers in
  List.iter
    (fun h ->
      Domain.join h.domain;
      close_quietly h.hfd)
    finished;
  t.handlers <- live

(* a connection no handler takes: one protocol error, then hang up *)
let refuse fd reason =
  Obs.incr obs_protocol_errors;
  let line =
    Protocol.event_to_line (Protocol.Protocol_error { message = "connection refused: " ^ reason })
    ^ "\n"
  in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  close_quietly fd

let rec accept_loop t =
  if not (Atomic.get t.stop) then begin
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
    | exception Unix.Unix_error _ -> () (* listener shut down *)
    | fd, _peer ->
      reap t;
      (if List.length t.handlers >= max_connections then
         refuse fd (Printf.sprintf "the daemon serves at most %d connections" max_connections)
       else
         let finished = Atomic.make false in
         match Domain.spawn (fun () -> handler t fd finished) with
         | domain -> t.handlers <- { hfd = fd; domain; finished } :: t.handlers
         | exception Failure reason -> refuse fd reason);
      accept_loop t
  end

let bind_listener address =
  match address with
  | Protocol.Unix_path path ->
    (* a stale socket file from a crashed daemon would make bind fail *)
    (try if (Unix.lstat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
     with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Protocol.Unix_path path, Some path)
  | Protocol.Tcp (host, port) ->
    let inet =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> Protocol.Tcp (host, p) (* port 0 resolved *)
      | _ -> Protocol.Tcp (host, port)
    in
    (fd, bound, None)

let start ?jobs ?ceiling ?store address =
  Lazy.force ignore_sigpipe;
  let listen_fd, bound, unix_path = bind_listener address in
  let scheduler = Scheduler.create ?jobs ?ceiling ?store () in
  let t =
    {
      scheduler;
      address = bound;
      listen_fd;
      unix_path;
      stop = Atomic.make false;
      handlers = [];
      accept_domain = Atomic.make None;
      store;
    }
  in
  Atomic.set t.accept_domain (Some (Domain.spawn (fun () -> accept_loop t)));
  t

let stop t =
  Atomic.set t.stop true;
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())

let wait t =
  (match Atomic.get t.accept_domain with
  | Some d ->
    Domain.join d;
    Atomic.set t.accept_domain None
  | None -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* drain first: queued jobs from still-connected clients complete and
     stream their terminal events before their sockets go away *)
  Scheduler.shutdown t.scheduler;
  (* connections still reading would block their handler joins forever;
     shutting the sockets down unblocks their reads with EOF *)
  List.iter
    (fun h -> try Unix.shutdown h.hfd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.handlers;
  List.iter
    (fun h ->
      Domain.join h.domain;
      close_quietly h.hfd)
    t.handlers;
  t.handlers <- [];
  (match t.store with Some s -> (try Obs.Store.flush s with _ -> ()) | None -> ());
  match t.unix_path with
  | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | None -> ()
