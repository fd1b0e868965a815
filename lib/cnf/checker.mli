(** SAT-backed Boolean queries on AIG literals over one shared clause
    database.

    All queries are expressed with solver {e assumptions} over the
    permanently-encoded Tseitin clauses, so nothing ever needs retracting
    and the learned clauses from one check speed up the next — the paper's
    factorized "SAT-merge" discipline.

    {b The query contract.} A query carries its own budget: one that
    passes [~conflict_limit] may answer [Maybe] when that many conflicts
    do not settle it (sweeping skips the hard pair, the don't-care pass
    drops the candidate). A query without one is {e exact}: only the
    run-wide governor fixed at {!create} can leave it [Maybe], and a
    caller must then degrade to an undecided verdict, never read the
    answer as [No]. Nothing a query does changes how the next one is
    budgeted. *)

type t

(** Three-valued query answer. *)
type answer = Yes | No | Maybe

(** [create ?limits aig] binds every query of the checker to the
    run-wide resource governor [limits] ({!Util.Limits}, default
    [Util.Limits.unlimited]): conflicts drain its shared pool, and its
    deadline is polled before every query ({!Util.Limits.check}, one
    clock read) and during search. Once it has tripped, a query answers
    [Maybe] without touching the solver, so a step that asks many small
    queries notices a passed deadline at its next one. *)
val create : ?limits:Util.Limits.t -> Aig.t -> t

val aig : t -> Aig.t

(** The governor bound at {!create}. Layers above the checker
    (sweeping, quantification) read it here so one binding at engine
    entry governs the whole stack. *)
val limits : t -> Util.Limits.t

(** [satisfiable ?conflict_limit t lits] — is the conjunction of [lits]
    satisfiable? [conflict_limit] bounds this one solver call. After
    [Yes], {!model_var} reads the witness. *)
val satisfiable : ?conflict_limit:int -> t -> Aig.lit list -> answer

(** [equal ?conflict_limit t a b] — do [a] and [b] denote the same
    function? Each of its (at most two) solver calls gets
    [conflict_limit]. *)
val equal : ?conflict_limit:int -> t -> Aig.lit -> Aig.lit -> answer

(** [equal_under ?conflict_limit t ~care a b] — are [a] and [b] equal on
    the onset of [care]? (Outside it they may differ: [care]'s offset is
    the don't-care set.) *)
val equal_under : ?conflict_limit:int -> t -> care:Aig.lit -> Aig.lit -> Aig.lit -> answer

(** Witness access after a [Yes] from {!satisfiable} (or a [No] from the
    equivalence queries, whose refutation is a satisfying counterexample):
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

(** Number of queries answered so far. *)
val queries : t -> int

val solver_stats : t -> Sat.Solver.stats
