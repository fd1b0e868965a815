(** The optimization phase of circuit-based quantification (paper §2.2).

    After merging, [F0 ∨ F1] is shrunk further with logic-synthesis
    transformations that exploit the mutual don't cares of the two
    cofactors:

    - {e input don't cares}: when [F0] holds, the disjunction is true no
      matter what [F1] computes, so the onset of [F0] is an input
      don't-care set for every node of [F1]'s cone. A node [n] may be
      replaced by [n'] whenever [(n ≠ n') ∧ ¬F0] is unsatisfiable.
      Replacement guesses are the paper's two: {e constants} (redundancy
      removal) and {e merges} with existing nodes, modulo complementation.
      The pass then runs symmetrically on [F0] with the simplified [F1]'s
      onset as don't-care set.
    - {e observability don't cares}: a replacement that differs even inside
      the care set is accepted when the difference never reaches the output
      of [F0 ∨ F1], validated by one extra SAT equivalence check on the
      whole disjunction.

    Candidates are proposed by care-set-masked simulation signatures, so
    the SAT queries stay targeted. When a {!Sweep.Pattern_bank.t} is
    supplied, its recycled counterexample lanes additionally pre-filter
    candidate pairs: any stored pattern that distinguishes a pair inside
    the care set refutes it without a solver call
    ([dontcare.sim.prefiltered]). *)

type config = {
  use_merges : bool; (* try merge replacements, not just constants *)
  odc_max_tries : int; (* 0 disables the ODC pass *)
}

val default : config

type report = {
  const_replacements : int; (* nodes proven redundant under the input DC *)
  merge_replacements : int; (* nodes merged under the input DC *)
  odc_replacements : int; (* replacements accepted by the ODC validation *)
  odc_rejections : int; (* ODC candidates the validation refuted *)
  sat_calls : int;
  size_before : int; (* AND nodes of F0 ∨ F1 before optimization *)
  size_after : int;
}

val pp_report : Format.formatter -> report -> unit

(** [disjunction ?config aig checker ~prng f0 f1] returns a literal
    equivalent to [f0 ∨ f1], plus the transformation report. The result is
    never larger than the plain [Aig.or_]: passes that do not help are
    discarded. Each input-DC and ODC check may spend 5 000 conflicts; a
    candidate they do not settle is dropped. *)
val disjunction :
  ?config:config ->
  ?bank:Sweep.Pattern_bank.t ->
  Aig.t ->
  Cnf.Checker.t ->
  prng:Util.Prng.t ->
  Aig.lit ->
  Aig.lit ->
  Aig.lit * report
