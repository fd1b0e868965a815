(** Cut-based functional resubstitution — the "rewriting" member of the
    paper's §2.2 transformation catalogue.

    For every AND node a set of 4-feasible cuts is enumerated bottom-up;
    the node's local function on each cut is a 16-bit truth table. Nodes
    whose (cut-leaves, truth-table) pair was already produced by an older
    node are replaced by it, constants and leaf projections are folded —
    all purely structurally, without any SAT work, so the pass is cheap
    enough to run inside every quantification step. It catches
    functionally equal nodes whose local structures differ (which plain
    strashing misses) and complements the simulation-plus-SAT sweeping
    with a deterministic local method. *)

type report = {
  nodes_seen : int;
  resubstitutions : int; (* node replaced by an older equivalent node *)
  constants_folded : int; (* node proved constant on its cut *)
  projections_folded : int; (* node proved equal to one of its cut leaves *)
  size_before : int;
  size_after : int;
}

val pp_report : Format.formatter -> report -> unit

(** [resubstitute aig l] rewrites the cone of [l]; the result is
    functionally equal to [l] and never larger (each node keeps at most
    8 cuts). *)
val resubstitute : Aig.t -> Aig.lit -> Aig.lit * report
