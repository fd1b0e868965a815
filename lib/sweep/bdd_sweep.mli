(** BDD sweeping (Kuehlmann & Krohm, DAC'97 — simplified): build
    size-bounded BDDs bottom-up over an AIG cone; nodes whose BDDs coincide
    modulo complementation are {e proven} equivalent (BDDs are canonical),
    so their merges need no SAT confirmation. Construction stops gracefully
    when the node quota is exhausted, leaving the remaining compare points
    to the SAT stage.

    The AIG-to-BDD translation underneath is also the one the BDD
    reachability engines and the experiments use. *)

(** [translator ?on_node man aig] is a memoised translation of [aig]
    into [man], BDD variables being AIG variables. Applied to [roots], it
    builds the BDDs of their cones not built yet — the support variables
    in ascending order, then the AND nodes in topological order, calling
    [on_node n b] as node [n] gets its BDD [b] — and returns the BDD of
    any literal of a translated cone. *)
val translator :
  ?on_node:(int -> Bdd.node -> unit) -> Bdd.t -> Aig.t -> Aig.lit list -> Aig.lit -> Bdd.node

type result = {
  merges : (int * Aig.lit) list; (* node -> equivalent representative literal *)
  nodes_built : int; (* AIG nodes that received a BDD *)
  bdd_nodes : int; (* BDD manager nodes created — what a node pool is charged *)
  aborted : bool; (* true when the quota stopped construction *)
}

(** [run aig ~roots ~max_nodes] sweeps the cone of [roots] with a fresh
    BDD manager capped at [max_nodes] total BDD nodes. Representatives are
    always earlier (lower-id) nodes, constants, or variable leaves, so the
    merge list is acyclic by construction. *)
val run : Aig.t -> roots:Aig.lit list -> max_nodes:int -> result
