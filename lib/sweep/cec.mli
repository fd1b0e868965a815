(** Stand-alone combinational equivalence checking.

    The paper's merge phase {e is} an equivalence-checking engine pointed
    at cofactor pairs; this module exposes it as the classical tool:
    given two single-output circuits over the same inputs, prove them
    equal or produce a distinguishing input vector. The staged pipeline —
    hashing, simulation candidates, BDD sweeping, factorized SAT — merges
    internal equivalences first, so the final miter check is usually
    trivial (Kuehlmann-style CEC). *)

type verdict =
  | Equivalent
  | Inequivalent of (Aig.var * bool) list (* distinguishing assignment *)
  | Unknown (* the final miter check ran out of its conflict budget *)

type report = {
  verdict : verdict;
  merged_to_same_node : bool; (* sweeping alone closed the miter *)
  sweep : Sweeper.report;
  seconds : float;
}

val pp_verdict : Format.formatter -> verdict -> unit

(** [check ?config ?bank aig checker ~prng a b] — are literals [a] and [b]
    (same manager) functionally equal? [bank] enables counterexample
    recycling across repeated checks over one manager. The final miter
    check has the sweeper's per-pair budget, {!Sweeper.conflict_limit}. *)
val check :
  ?config:Sweeper.config ->
  ?bank:Pattern_bank.t ->
  Aig.t ->
  Cnf.Checker.t ->
  prng:Util.Prng.t ->
  Aig.lit ->
  Aig.lit ->
  report

(** [check_cones ?config (aig1, root1, vars1) (aig2, root2, vars2)] —
    equivalence of two independently built cones. Their variables are
    identified positionally: the i-th listed variable of both cones
    becomes the same variable of a fresh joint manager; the lists must
    have equal length. *)
val check_cones :
  ?config:Sweeper.config ->
  Aig.t * Aig.lit * Aig.var list ->
  Aig.t * Aig.lit * Aig.var list ->
  report
