(** Client side of the daemon protocol, used by the
    [cbq_mc submit|batch|ctl] subcommands, the tests and the load
    bench. *)

type t

val connect : Protocol.address -> t
val close : t -> unit

(** Raised when the server closes the connection mid-exchange. *)
exception Server_closed of string

val send : t -> Protocol.request -> unit

(** Next well-formed event, or [None] at EOF. Undecodable frames are
    skipped. *)
val recv : t -> Protocol.event option

val ping : t -> unit

(** [(queued, running, completed, workers)]. *)
val stats : t -> int * int * int * int

(** Request shutdown and wait for [Bye] (or EOF). *)
val shutdown_server : t -> unit

type job_spec = {
  tag : string;  (** must be unique within one {!run_batch} call *)
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
      progress : int;  (** progress frames observed for this job *)
    }
  | Crashed of { id : int; message : string }
  | Refused of { reason : string }

(** Submit one job and block until its terminal event; other events
    arriving meanwhile go to [on_event]. *)
val submit_wait : ?on_event:(Protocol.event -> unit) -> t -> job_spec -> outcome

(** Submit every spec and collect every outcome, in spec order. The
    submits are written from a separate domain while the calling domain
    reads events, so arbitrarily large batches cannot deadlock on full
    socket buffers. *)
val run_batch :
  ?on_event:(Protocol.event -> unit) -> t -> job_spec list -> outcome list
