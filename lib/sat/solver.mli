(** Arena-based conflict-driven clause-learning SAT solver.

    The paper implements its SAT-merge routine "on top of ZChaff",
    loading one clause database and factorizing many equivalence checks
    into a single run. This solver provides that capability set as a
    modern CDCL core: long clauses live in a flat int arena addressed
    by integer clause references, binary clauses in a dedicated
    implication-list layer, propagation uses blocker-literal two-watched
    schemes, learning is first-UIP with clause minimization, and the
    learnt database is reduced LBD-first with an arena garbage collector
    that compacts storage and remaps watches and reasons.

    Crucially for the merge engine the solver is {e incremental}:
    clauses may be added between calls to {!solve}, each call may carry
    {e assumptions} (temporary unit decisions, how activation literals
    implement retractable queries on a shared database), and the
    assumption prefix of the trail is reused verbatim across calls that
    share it. See [docs/SAT.md] for the memory layout, the watch
    invariants and the incremental-use contract. *)

type t

type result = Sat | Unsat | Unknown

val create : unit -> t

(** Allocate a fresh variable, returning its index. *)
val new_var : t -> int

val num_vars : t -> int

(** [add_clause t lits] adds a clause. Returns [false] when the clause
    database became unsatisfiable at level 0 (further solving is
    futile; {!solve} will keep answering [Unsat]). Clauses may be added
    at any point between [solve] calls; doing so discards the reusable
    assumption trail of the previous call but never its learnt
    clauses. *)
val add_clause : t -> Lit.t list -> bool

(** [solve t ~assumptions] decides satisfiability of the clause
    database under the given temporary assumptions. [conflict_limit]
    (number of conflicts) makes the call budgeted: exceeding it yields
    [Unknown]. [limits] binds the call to a run-wide resource governor:
    conflicts consumed count against its shared pool (further
    tightening any explicit [conflict_limit]), the deadline is polled
    periodically during search, and a call entered after the governor
    has tripped answers [Unknown] immediately. [Unsat] under non-empty
    assumptions means "unsatisfiable together with these assumptions",
    not global unsatisfiability.

    Between calls the solver keeps the assignment prefix forced by the
    previous call's assumptions; a following call sharing a prefix of
    those assumptions (in order) resumes from it instead of replaying
    propagation. *)
val solve :
  ?assumptions:Lit.t list -> ?conflict_limit:int -> ?limits:Util.Limits.t -> t -> result

(** Override the learnt-clause budget that triggers database reduction
    (testing/tuning hook: a tiny budget forces reductions and arena GC
    on small instances). *)
val set_learnt_budget : t -> int -> unit

(** Model access after a [Sat] answer; [None] for variables the model
    left unconstrained. *)
val value : t -> int -> bool option

(** After an [Unsat] answer from a {!solve} call with assumptions: a
    subset of those assumptions that is already jointly inconsistent
    with the clause database (an assumption-level unsat core; empty
    when the database is unsatisfiable on its own). *)
val failed_assumptions : t -> Lit.t list

(** [lit_true t l] is [true] when the current model satisfies [l]. *)
val lit_true : t -> Lit.t -> bool

(** [false] once the database is unsatisfiable without assumptions. *)
val ok : t -> bool

(** Cumulative search statistics. [clauses]/[binaries]/[learnt] count
    {e live} long problem clauses, binary clauses and learnt long
    clauses; the rest are monotone counters over the solver's
    lifetime. *)
type stats = {
  decisions : int;
  propagations : int;
  binary_propagations : int;  (** implications served by the binary layer *)
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  minimized_literals : int;
  max_learnt : int;  (** current learnt-DB budget *)
  clauses : int;
  binaries : int;
  learnt : int;
  gc_runs : int;  (** arena compactions *)
  db_reductions : int;  (** learnt-DB reduction passes *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
