(** Pre-image of a state set, the paper's §3 recipe.

    Backward reachability formulas have the shape
    [∃x ∃y. (y = δ(s,x)) ∧ B(y)]; because the transition relation is a
    conjunction of next-state {e functions}, the [y] quantification is done
    by {e substitution} (in-lining): [∃x. B(δ(s,x))]. Only the primary
    inputs [x] then need circuit-based quantification. *)

type result = Quantify.result = {
  lit : Aig.lit; (* the (partially quantified) pre-image *)
  eliminated : Aig.var list;
  kept : Aig.var list; (* inputs whose elimination was aborted *)
  reports : Quantify.var_report list;
}

(** [substitute m b] — just the in-lining step [B(δ(s,x))]. *)
val substitute : Netlist.Model.t -> Aig.lit -> Aig.lit

(** [compute ?config m checker ~prng ~frontier ~extra_vars] — full
    pre-image: in-line, then quantify the primary inputs in the support
    plus [extra_vars] (residual variables from earlier aborted
    quantifications). *)
val compute :
  ?config:Quantify.config ->
  ?bank:Sweep.Pattern_bank.t ->
  Netlist.Model.t ->
  Cnf.Checker.t ->
  prng:Util.Prng.t ->
  frontier:Aig.lit ->
  extra_vars:Aig.var list ->
  result
