(** The merge phase of circuit-based quantification (paper §2.1).

    Given one or more root literals — typically the two cofactors of the
    variable being quantified — the sweeper detects functionally equivalent
    nodes across their cones and returns a substitution map suitable for
    {!Aig.rebuild}. Detection is staged exactly as in the paper:

    + structural hashing is implicit (the AIG front-end already merged
      structurally equal nodes);
    + random simulation proposes candidate classes;
    + {e BDD sweeping} proves cheap equivalences exactly;
    + {e SAT checks} settle the remaining compare points on one shared
      clause database, with counterexamples refining all classes at once
      and proven merges learned immediately.

    The SAT stage can run {e forward} (inputs to outputs: merges are
    learned early and simplify later checks) or {e backward} (outputs to
    inputs: with very similar cofactors a few top-level successes subsume
    the nodes below, which are then skipped). *)

type direction = Forward | Backward

type config = {
  sim_rounds : int; (* random simulation words per variable *)
  bdd_node_limit : int; (* 0 disables BDD sweeping *)
  sat : direction option; (* None disables the SAT stage *)
}

(** Every stage enabled, forward SAT. *)
val default : config

(** The conflict budget of each SAT compare point (10 000): a pair it
    does not settle is skipped, counted in [sat_unknown]. *)
val conflict_limit : int

type report = {
  cone_size : int;
  candidate_classes : int; (* classes proposed by simulation *)
  candidate_literals : int; (* literals inside those classes *)
  bdd_merges : int;
  bdd_aborted : bool;
  sat_merges : int;
  sat_calls : int;
  sat_refuted : int; (* pairs distinguished by a SAT model *)
  sat_unknown : int; (* pairs abandoned on the conflict budget *)
  sat_skipped_covered : int; (* backward mode: pairs under a merged output *)
  sim_refinements : int;
  sim_words : int; (* 64-pattern words simulated (bank + random + refinements) *)
  bank_patterns : int; (* patterns in the bank after the run (0 without a bank) *)
  total_merges : int;
}

val pp_report : Format.formatter -> report -> unit

(** [run ?config ?bank aig checker ~prng ~roots] returns [(repl, report)]
    where [repl] maps every node id to its representative literal ([repl n
    = Aig.lit_of_node n] when unmerged) — feed it to {!Aig.rebuild}. The
    checker must wrap the same AIG manager. When [bank] is given, its
    stored counterexample lanes seed the simulation signatures, and every
    distinguishing SAT model produced here is distilled back into it —
    counterexample recycling across sweeps and reachability frames. *)
val run :
  ?config:config ->
  ?bank:Pattern_bank.t ->
  Aig.t ->
  Cnf.Checker.t ->
  prng:Util.Prng.t ->
  roots:Aig.lit list ->
  (int -> Aig.lit) * report

(** [sweep_lits ?config ?bank aig checker ~prng lits] runs the sweeper and
    rebuilds each literal through the substitution. *)
val sweep_lits :
  ?config:config ->
  ?bank:Pattern_bank.t ->
  Aig.t ->
  Cnf.Checker.t ->
  prng:Util.Prng.t ->
  Aig.lit list ->
  Aig.lit list * report
