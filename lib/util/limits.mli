(** Unified per-run resource governor.

    Every bounded-effort knob in the stack — the SAT conflict budget,
    the BDD sweeping node limit, the quantification growth budget — is
    local; this module adds the {e global} coordination: one object per
    run carrying a monotonic wall-clock deadline, a shared SAT-conflict
    pool, an AIG node ceiling and a BDD node pool, threaded through the
    solver, the checker, the sweeper and every traversal engine.

    Exhaustion is {e graceful}, never an exception: once a fatal
    resource trips, the governor turns sticky-exhausted, queries start
    answering [Maybe]/[Unknown], the quantifier keeps the variables it
    has not eliminated yet, and the engines return an anytime verdict
    naming the tripped resource and the deepest frame reached. Verdicts
    produced under any limit configuration are sound: a degraded run
    may answer Unknown, never a wrong Safe/Unsafe.

    The BDD node pool is the one non-fatal resource: draining it only
    disables further BDD sweeping (the engines whose {e primary}
    representation is BDD promote it to a fatal trip themselves via
    {!trip}).

    Checks are cheap: {!exhausted} is an atomic load; {!check} adds one
    monotonic clock read.

    {b Domain safety.} The governor is safe to share across OCaml 5
    domains: the conflict and BDD pools are atomics drained with
    fetch-and-add, the sticky trip is a compare-and-set whose winner
    fires the notify hook exactly once, and budget reads clamp at 0 (a
    pool drained concurrently may go transiently negative inside the
    atomic). {!set_notify} is the one exception — install the hook
    before the governor is shared with other domains. *)

type resource = Deadline | Conflicts | Aig_nodes | Bdd_nodes | Cancelled

type t

(** A shared governor that never trips; charging it is a no-op. *)
val unlimited : t

(** [create ()] starts the deadline clock immediately. [timeout] is in
    seconds from now; [max_conflicts] is the total SAT-conflict pool
    for the whole run; [max_aig_nodes] bounds [Aig.num_nodes] of the
    working manager; [max_bdd_nodes] is the cumulative BDD node pool
    across all sweeping managers. Omitted resources are unlimited. *)
val create :
  ?timeout:float ->
  ?max_conflicts:int ->
  ?max_aig_nodes:int ->
  ?max_bdd_nodes:int ->
  unit ->
  t

(** A governor's bounds as one value, each [None] = unlimited: what the
    CLI flags, the serve protocol and the fuzz oracle carry. *)
type budget = {
  timeout : float option;
  max_conflicts : int option;
  max_aig_nodes : int option;
  max_bdd_nodes : int option;
}

val no_budget : budget

(** [of_budget b] is {!create} with [b]'s bounds: always a fresh
    governor, so its owner may {!cancel} it, even for {!no_budget}. *)
val of_budget : budget -> t

(** [true] when at least one resource has a bound. *)
val is_limited : t -> bool

(** The sticky fatal state: the first resource that tripped, without
    polling the clock. *)
val exhausted : t -> resource option

(** Poll the deadline (tripping [Deadline] when past due), then return
    the sticky state. The per-frame / per-variable checkpoint. *)
val check : t -> resource option

(** [check_aig_nodes t n] additionally trips [Aig_nodes] when the
    manager's node count [n] exceeds the ceiling. *)
val check_aig_nodes : t -> int -> resource option

(** Externally mark a resource exhausted (e.g. a BDD baseline engine
    hitting the governor's node cap). First trip wins; later calls are
    no-ops. *)
val trip : t -> resource -> unit

(** [cancel t] trips [Cancelled]: the cooperative cross-domain stop
    signal. Safe to call from any domain at any time — the portfolio
    scheduler cancels every losing engine's governor the moment a
    winner returns, and the running engine notices at its next
    checkpoint (the SAT solver polls every 1024 search steps even on
    otherwise-unbudgeted governors, so a racing solve returns
    [Unknown] promptly). Like every fatal trip it is sticky and
    idempotent. Raises [Invalid_argument] on {!unlimited} — the shared
    constant must never be poisoned. *)
val cancel : t -> unit

(** {2 The SAT-conflict pool} *)

(** Remaining conflicts usable by the next query ([None] = unlimited).
    [Some 0] once the pool is dry. *)
val conflict_budget : t -> int option

(** Draw [n] conflicts from the pool; trips [Conflicts] when it runs
    dry. No-op when the pool is unlimited. *)
val charge_conflicts : t -> int -> unit

(** {2 The BDD node pool (non-fatal)} *)

val bdd_budget : t -> int option
val charge_bdd_nodes : t -> int -> unit

(** {2 Introspection} *)

(** Seconds left before the deadline ([None] = no deadline); never
    negative. *)
val remaining_time : t -> float option

(** Nodes left under the AIG ceiling ([None] = no ceiling), measured
    against the largest node count any {!check_aig_nodes} call has
    reported so far; never negative. The resource sampler reads this to
    plot headroom without reaching into the AIG manager. *)
val aig_headroom : t -> int option

(** Seconds since [create]. *)
val elapsed : t -> float

val resource_name : resource -> string

(** Why a query under this governor answered [Maybe]: the tripped
    resource's name, or the conflict pool's when the pool is dry but has
    not tripped yet (a dry pool trips only once a query draws from it). *)
val maybe_reason : t -> string

(** [set_notify t f] installs a callback fired exactly once per
    governor, on the first fatal trip ({!Bdd_nodes} included when
    promoted via {!trip}). The observability layer uses it to emit
    [limits.*] counters and the [limits.exhausted] trace instant
    without this module depending on it. Install before sharing the
    governor across domains: the hook cell itself is plain mutable
    state. *)
val set_notify : t -> (resource -> unit) -> unit
