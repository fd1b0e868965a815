(** The job daemon: an accept loop plus one handler domain per
    connection, all feeding the shared {!Scheduler}.

    Lifecycle guarantees the clients rely on:
    {ul
    {- the [Accepted]/[Rejected] reply to a [Submit] is always written
       before any worker event for that job — the handler holds the
       connection's write mutex across the enqueue;}
    {- SIGPIPE is ignored process-wide on [start]; a client that
       disconnects mid-job costs nothing beyond the next cancellation
       checkpoint — the first failed write (or read EOF) marks the
       connection dead and cancels its unfinished jobs;}
    {- a [Shutdown] request (or {!stop}) stops accepting, drains the
       queue so in-flight jobs still stream their terminal events, then
       tears the connections down;}
    {- a request frame longer than {!max_frame_bytes} draws one
       [Protocol_error] naming the limit, counted in
       [serve.protocol_errors], and the connection is closed;}
    {- so does a connection beyond {!max_connections}, or one whose
       handler domain cannot be spawned; the accept loop goes on.}} *)

type t

(** The longest request frame the daemon reads, newline excluded:
    16 MiB. *)
val max_frame_bytes : int

(** The most connections served at once: 64, half the domains an OCaml 5
    process may run, since each connection's handler is a domain. *)
val max_connections : int

(** Bind, spawn the scheduler's worker pool and the accept domain, and
    return immediately. [ceiling] caps every client budget; [store]
    receives one schema-v2 report per completed job. A stale Unix
    socket file left by a crashed daemon is replaced; TCP port 0 is
    resolved to the actual port (see {!address}). *)
val start :
  ?jobs:int ->
  ?ceiling:Protocol.budget ->
  ?store:Obs.Store.t ->
  Protocol.address ->
  t

(** The actual bound address. *)
val address : t -> Protocol.address

val scheduler : t -> Scheduler.t

(** Ask the accept loop to exit; pair with {!wait}. *)
val stop : t -> unit

(** Block until the accept loop exits (a [Shutdown] request or {!stop}),
    then drain the scheduler, join every handler, flush the store and
    remove the Unix socket file. *)
val wait : t -> unit
