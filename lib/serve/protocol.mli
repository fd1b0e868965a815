(** Wire protocol of the job daemon: newline-delimited JSON, one
    request or event per line over a Unix or TCP stream socket.

    A client submits jobs (ASCII AIGER bytes + engine name + optional
    budget) tagged with a correlation key, and receives the job
    lifecycle back as events: [Accepted {tag; id}] binds the tag to the
    server-assigned id, then [Started], zero or more [Progress] frames
    (one per traversal frame of the running engine) and exactly one
    terminal [Done] or [Failed] per accepted job. The full frame
    schema is documented in [docs/SERVE.md]. *)

(** Per-job resource bounds, each [None] = unlimited. The server caps
    every submitted budget against its own ceiling with {!cap}. *)
type budget = Util.Limits.budget = {
  timeout : float option;
  max_conflicts : int option;
  max_aig_nodes : int option;
  max_bdd_nodes : int option;
}

val no_budget : budget

(** [cap ~ceiling b] bounds every resource of [b] by [ceiling]: a
    client may ask for less than the ceiling, never more, and a
    resource the client left unlimited inherits the ceiling bound. *)
val cap : ceiling:budget -> budget -> budget

(** Where the daemon listens: a Unix-domain socket path or a TCP
    host/port. *)
type address = Unix_path of string | Tcp of string * int

val pp_address : Format.formatter -> address -> unit

type request =
  | Submit of {
      tag : string;  (** client-chosen correlation key for the [Accepted] reply *)
      model_name : string;
      aig : string;  (** ASCII AIGER bytes *)
      engine : string;  (** a [Baselines.Suite] engine name *)
      budget : budget;
      quantify_backend : string option;
          (** accepted only when absent or ["circuit"], the one
              quantification backend; {!request_of_line} refuses any
              other value *)
    }
  | Cancel of { id : int }
  | Ping
  | Stats
  | Shutdown  (** stop accepting, drain the queue, exit *)

(** A [Submit] as this build's clients send it: no [quantify_backend]. *)
val submit :
  tag:string -> model_name:string -> aig:string -> engine:string -> budget:budget -> request

type event =
  | Accepted of { tag : string; id : int }
  | Rejected of { tag : string; reason : string }
  | Started of { id : int }
  | Progress of { id : int; frame : int; nodes : int }
  | Done of {
      id : int;
      verdict : Baselines.Verdict.t;
      seconds : float;
      report : int option;  (** id in the server's run-report store, when stored *)
    }
  | Failed of { id : int; message : string }  (** the job crashed; the server survives *)
  | Pong
  | Stats_reply of { queued : int; running : int; completed : int; workers : int }
  | Bye
  | Protocol_error of { message : string }  (** reply to a malformed request frame *)

(** One-line (newline-free) JSON encodings. *)
val request_to_line : request -> string

val event_to_line : event -> string

(** Total decoders: [Error] names the defect (not JSON, missing field,
    a field of the wrong JSON type, unknown type) instead of raising, so
    a malformed peer frame can be rejected without killing the
    connection. An optional field that is present must have its type:
    ["max_conflicts": "5"] is an error, not "no conflict limit". *)
val request_of_line : string -> (request, string) result

val event_of_line : string -> (event, string) result
