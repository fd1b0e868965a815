(** Circuit-based existential quantification — the paper's contribution.

    [∃v. F] is computed as [F|v=0 ∨ F|v=1], with the Shannon expansion's
    size doubling fought in two phases:

    + {b merge} — equivalence-detected sub-circuit sharing between the two
      cofactors (structural hashing, simulation candidates, BDD sweeping,
      factorized SAT checks; {!Sweep.Sweeper});
    + {b optimize} — synthesis transformations on the disjunction
      (redundancy removal and cross-cofactor don't-care simplification with
      ODC validation; {!Synth.Dontcare}). Off by default: cofactoring and
      sweeping map each cone node to at most one node, so the merged
      disjunction of an [|F|]-node function has at most [2|F|+1] nodes and
      always fits the default growth budget [2|F|+32]. The phase then
      cannot save a variable from abort, and its SAT work changes no
      outcome. Configs with a tighter budget turn it on.

    {b Partial quantification}: a growth budget bounds every elimination;
    quantifications whose result would exceed it are {e aborted} and their
    variable kept free, so the caller can hand the residual variables to a
    SAT-based engine (paper §4). {!all} is the one place that reacts to
    the run's governor ({!Util.Limits.t}, via {!Cnf.Checker.limits}): it
    polls it before each variable, and once it has tripped keeps every
    remaining variable the same way, without cofactoring or sweeping
    them. The residual set stays exact and the traversal stops at its
    next exact query. *)

type config = {
  sweep : Sweep.Sweeper.config; (* merge phase *)
  use_dontcare : bool; (* run the optimization phase on every disjunction *)
  dontcare : Synth.Dontcare.config;
  use_rewrite : bool; (* cut-based resubstitution as a final clean-up *)
  growth_limit : float; (* abort when |∃v.F| > growth_limit·|F| + slack *)
  growth_slack : int;
  greedy_order : bool; (* cheapest-estimated variable first *)
}

val default : config

(** Raw Shannon expansion: hashing only, no sweeping, no optimization, no
    growth-budget abort — the baseline the paper improves on. Under
    {!all}, a tripped governor still keeps the variables. *)
val naive_config : config

type var_report = {
  var : Aig.var;
  size_before : int;
  size_cof0 : int;
  size_cof1 : int;
  size_naive : int; (* plain OR of the unmerged cofactors *)
  sweep_report : Sweep.Sweeper.report option;
  dc_report : Synth.Dontcare.report option;
  size_after : int; (* of the result actually kept *)
  aborted : bool;
}

val pp_var_report : Format.formatter -> var_report -> unit

(** [one ?config aig checker ~prng l v] eliminates a single variable.
    [Ok lit] on success; [Error lit'] when the growth budget rejected the
    result ([lit'] is still equivalent to [∃v. l] — callers doing partial
    quantification discard it and keep [v] free instead). [one] does not
    read the governor; a query it cannot settle only costs merges or
    don't-cares, so the result stays exact. *)
val one :
  ?config:config ->
  ?bank:Sweep.Pattern_bank.t ->
  Aig.t ->
  Cnf.Checker.t ->
  prng:Util.Prng.t ->
  Aig.lit ->
  Aig.var ->
  (Aig.lit, Aig.lit) result * var_report

(** [block ?config aig checker ~prng l ~vars] eliminates a {e set} of up
    to 6 variables in one step: all [2^k] cofactors are computed, swept
    {e jointly} (so merge points across every pair of cofactors are
    found, not just within one Shannon split), and combined by a balanced
    tree of disjunctions, don't-care-optimized under [config.use_dontcare].
    [Error] as in {!one} when the joint result busts the growth budget. *)
val block :
  ?config:config ->
  ?bank:Sweep.Pattern_bank.t ->
  Aig.t ->
  Cnf.Checker.t ->
  prng:Util.Prng.t ->
  Aig.lit ->
  vars:Aig.var list ->
  (Aig.lit, Aig.lit) result

type result = {
  lit : Aig.lit; (* the (partially) quantified function *)
  eliminated : Aig.var list;
  kept : Aig.var list; (* aborted variables, still free in [lit] *)
  reports : var_report list;
}

(** [all ?config ?bank aig checker ~prng l ~vars] eliminates the variables
    in sequence (greedy cheapest-first when configured), keeping the
    aborted ones — the paper's partial quantification. Before each
    variable it polls the governor; once it has tripped, every remaining
    variable is kept and [l] is not touched again. A shared
    {!Sweep.Pattern_bank.t} recycles every distinguishing SAT model across
    the per-variable sweeps (and, via the caller, across traversal
    frames). *)
val all :
  ?config:config ->
  ?bank:Sweep.Pattern_bank.t ->
  Aig.t ->
  Cnf.Checker.t ->
  prng:Util.Prng.t ->
  Aig.lit ->
  vars:Aig.var list ->
  result
