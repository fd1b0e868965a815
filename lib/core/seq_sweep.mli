(** Sequential sweeping: register-correspondence reduction (van Eijk,
    CHARME'98 lineage — the sequential sibling of the paper's merge
    phase).

    Latches that provably carry the same value (modulo complementation, or
    a constant) in {e every reachable state} are merged before
    verification. Candidates come from parallel simulation of the model
    from its initial state; they are then refined to a greatest fixpoint
    by one-step induction: assuming all candidate equivalences in the
    current state, every candidate must be re-established by the
    next-state functions (checked by SAT on the shared clause database).
    Surviving classes are invariants, so replacing each merged latch by
    its representative preserves the property verdict.

    Replicated structures (the TMR family, twin shift registers) collapse
    dramatically; the reduced model feeds any engine. *)

type report = {
  initial_candidates : int; (* latches in nontrivial simulation classes *)
  merged_latches : int; (* latches replaced by a representative *)
  constant_latches : int; (* latches replaced by a constant *)
  rounds : int; (* induction refinement rounds *)
  sat_calls : int;
  latches_before : int;
  latches_after : int;
}

val pp_report : Format.formatter -> report -> unit

(** [reduce m] — returns the reduced model (same AIG
    manager, same input variables, subset of the latches) and the report.
    The reduced model's property is the original property with merged
    state variables substituted. *)
val reduce : Netlist.Model.t -> Netlist.Model.t * report
