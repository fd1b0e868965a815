(** Job scheduler on a worker-domain pool.

    A fixed pool of worker domains drains one FIFO queue of
    model-checking jobs. Each job carries the model {!submit} parsed;
    the queue hands it to exactly one worker, so no manager is shared
    between domains. A job runs under a fresh cancellable
    {!Util.Limits} governor built from its server-capped budget, and
    streams its lifecycle through the [emit] callback its owner
    provided: [Started], zero or more [Progress] frames, then exactly
    one [Done] or [Failed]. Workers survive crashing engines — the
    exception becomes a [Failed] event and the domain moves on.

    Completed runs persist schema-v2 reports into the shared
    {!Obs.Store} (when one was given), readable afterwards with the
    [report list|show|diff|trend] commands. *)

type t

(** [create ()] spawns the worker domains immediately.
    [jobs] defaults to {!Par.Pool.default_jobs}; [ceiling] caps every
    submitted budget ({!Protocol.cap}); [store] receives one report per
    completed job. *)
val create :
  ?jobs:int -> ?ceiling:Protocol.budget -> ?store:Obs.Store.t -> unit -> t

(** Validate the engine name, parse the AIGER text (once: the job keeps
    the model), cap the budget, and enqueue. [emit] is called from
    worker domains and must not raise. Returns the job id, or a
    rejection reason. *)
val submit :
  t ->
  tag:string ->
  model_name:string ->
  aig:string ->
  engine:string ->
  budget:Protocol.budget ->
  emit:(Protocol.event -> unit) ->
  (int, string) result

(** Cooperative cancel: a queued job completes immediately as
    [Undecided "cancelled"]; a running job's governor is tripped and
    the engine returns its anytime verdict at the next checkpoint.
    [false] when the id is unknown or already terminal. *)
val cancel : t -> int -> bool

type stats = { queued : int; running : int; completed : int; workers : int }

val stats : t -> stats

(** Stop accepting, drain the queue, join the workers, flush the
    store index. Idempotent. *)
val shutdown : t -> unit
