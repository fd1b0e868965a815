(** SAT-backed Boolean queries on AIG literals over one shared clause
    database.

    All queries are expressed with solver {e assumptions} over the
    permanently-encoded Tseitin clauses, so nothing ever needs retracting
    and the learned clauses from one check speed up the next — the paper's
    factorized "SAT-merge" discipline. A conflict budget turns every query
    into a three-valued answer so callers can degrade gracefully (partial
    quantification aborts, sweeping skips hard pairs). *)

type t

(** Three-valued query answer. *)
type answer = Yes | No | Maybe

val create : Aig.t -> t
val aig : t -> Aig.t

(** [set_conflict_limit t n] bounds every subsequent query ([None] removes
    the bound). *)
val set_conflict_limit : t -> int option -> unit

(** [set_limits t l] binds every subsequent query to a run-wide resource
    governor ({!Util.Limits}): conflicts drain its shared pool, its
    deadline is polled during search, and once it has tripped queries
    answer [Maybe] without touching the solver. Defaults to
    [Util.Limits.unlimited]. Orthogonal to {!set_conflict_limit}, which
    bounds each query individually. *)
val set_limits : t -> Util.Limits.t -> unit

(** The governor currently bound by {!set_limits}. Layers above the
    checker (sweeping, quantification) read it here so one binding at
    engine entry governs the whole stack. *)
val limits : t -> Util.Limits.t

(** [satisfiable t lits] — is the conjunction of [lits] satisfiable?
    After [Yes], {!model_var} reads the witness. *)
val satisfiable : t -> Aig.lit list -> answer

(** [valid t l] — is [l] a tautology? *)
val valid : t -> Aig.lit -> answer

(** [equal t a b] — do [a] and [b] denote the same function? *)
val equal : t -> Aig.lit -> Aig.lit -> answer

(** [equal_under t ~care a b] — are [a] and [b] equal on the onset of
    [care]? (Outside it they may differ: [care]'s offset is the don't-care
    set.) *)
val equal_under : t -> care:Aig.lit -> Aig.lit -> Aig.lit -> answer

(** [implies t a b] — does [a] entail [b]? *)
val implies : t -> Aig.lit -> Aig.lit -> answer

(** Witness access after a [Yes] from {!satisfiable} (or a [No] from the
    universal queries, whose refutation is a satisfying counterexample):
    [None] when the variable has no encoded leaf or was left unassigned by
    the solver — the witness does not constrain it. *)
val model_var_opt : t -> Aig.var -> bool option

(** [model_var_opt] with unknowns {e explicitly} defaulted to [false] —
    sound for replaying the witness (any total extension still satisfies),
    but not a value the solver chose. Code persisting witnesses must use
    {!model_var_opt} / {!assigned_model} instead. *)
val model_var : t -> Aig.var -> bool

(** The last witness restricted to the given variables, as a (var, value)
    list, with unknowns defaulted to [false] as in {!model_var}. *)
val model : t -> Aig.var list -> (Aig.var * bool) list

(** The last witness restricted to the given variables, keeping only
    variables the solver actually assigned. *)
val assigned_model : t -> Aig.var list -> (Aig.var * bool) list

(** Number of queries answered so far, and of those cut off by the budget. *)
val queries : t -> int

val budget_cutoffs : t -> int
val solver_stats : t -> Sat.Solver.stats
