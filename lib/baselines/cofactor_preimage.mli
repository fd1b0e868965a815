(** All-solution SAT pre-image with circuit cofactoring (Ganai, Gupta &
    Ashar, ICCAD'04) — the SAT-based unbounded engine the paper proposes to
    combine with (§4).

    The pre-image [∃x. B(δ(s,x))] is enumerated: each satisfying
    assignment of the in-lined formula is {e generalized} by cofactoring
    the circuit with respect to the satisfying {e input} assignment only,
    capturing every state compatible with that input vector at once; the
    captured set is blocked and enumeration continues until UNSAT.

    The engine is a backward direction on {!Cbq.Reachability.traverse},
    so the initial-state and fix-point tests, the budgeted-[Maybe] rules,
    counterexample traces, invariants and the [reach.*] telemetry are
    the CBQ traversal's. *)

type result = {
  reach : Cbq.Reachability.result;
  enumerations : int;  (** SAT solutions enumerated over the whole run *)
}

(** [enumerate checker ~limit ~used q] finishes the partial
    quantification [q] by enumerating its [kept] variables: the result
    has them all [eliminated]. Each solution increments [used]; once
    [used] reaches [limit] the answer is [Error "enumeration budget"],
    and a query the governor leaves undecided gives [Error] naming the
    resource. With nothing kept, [q] comes back unchanged and no SAT
    call is made. *)
val enumerate :
  Cnf.Checker.t ->
  limit:int ->
  used:int ref ->
  Cbq.Quantify.result ->
  (Cbq.Quantify.result, string) Stdlib.result

(** Backward reachability where every pre-image is computed by
    enumeration over the in-lined frontier's inputs (and any residuals
    of the bad-state quantification). [config] is the traversal's (trace,
    and the quantification of the property's inputs);
    [max_enumerations] bounds the solutions over the whole run. *)
val run :
  ?config:Cbq.Reachability.config ->
  ?max_enumerations:int ->
  ?limits:Util.Limits.t ->
  Netlist.Model.t ->
  result
