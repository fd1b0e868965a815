(** The traditional engine the paper positions itself against: symbolic
    reachability with canonical (BDD) state sets, on the same frame loop
    as circuit-based quantification ({!Cbq.Reachability.frame_loop}), so
    only the set operations differ: the Maybe rules, the [reach.*]
    telemetry and the counterexample trace are the loop's. A proof
    carries no invariant.

    Pre-image composes the next-state BDDs into the frontier and
    existentially quantifies the inputs; forward image uses a monolithic
    transition relation over primed variables. No dynamic variable
    reordering is performed (the variable order is the model's variable
    numbering, primed variables last), so canonicity-induced blow-up
    appears at moderate sizes — the node quota turns it into an explicit
    [Undecided "node limit"] outcome, which is precisely the behaviour the
    comparison tables need to exhibit. *)

type result = {
  reach : Cbq.Reachability.result;
      (** sizes in the iteration records and [peak_frontier] count BDD
          nodes *)
  bdd_nodes : int;  (** total BDD nodes allocated by the manager *)
}

(** Backward reachability from [¬P]. [config] sets whether a
    counterexample trace is built; its quantification settings do not
    apply. [limits] is a run-wide governor: every BDD
    operation runs under [node_limit], tightened by what is left of the
    governor's BDD node pool (blowing the pool is a fatal trip) and
    charged to it, and polls the governor's deadline while it builds. *)
val backward :
  ?node_limit:int ->
  ?config:Cbq.Reachability.config ->
  ?limits:Util.Limits.t ->
  Netlist.Model.t ->
  result

(** Forward reachability from the initial states, with a monolithic
    transition relation. [config] and [limits] as in {!backward}. *)
val forward :
  ?node_limit:int ->
  ?config:Cbq.Reachability.config ->
  ?limits:Util.Limits.t ->
  Netlist.Model.t ->
  result
