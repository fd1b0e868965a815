(** Reduced Ordered Binary Decision Diagrams.

    Two roles in this reproduction: the {e BDD sweeping} step of the merge
    phase (size-bounded BDDs act as semi-canonical signatures for AIG
    nodes, Kuehlmann & Krohm DAC'97), and the {e baseline} BDD-based
    reachability engine the paper positions itself against.

    The manager hash-conses nodes without complemented edges. Variable
    order is the natural order of the integer variable indices. A node
    quota can be imposed: operations that would exceed it raise
    {!Node_limit}, which {!with_limit} converts into a result — this is how
    both bounded sweeping and the blow-up experiments stay graceful. *)

type t

(** A BDD node reference (valid only within its manager). *)
type node = int

type var = int

exception Node_limit

val create : unit -> t

val zero : node
val one : node

(** Total nodes created so far in the manager (a monotone high-water
    mark; the manager does not garbage-collect). *)
val num_nodes : t -> int

(** [var_node t v] is the BDD of the single variable [v]. *)
val var_node : t -> var -> node

val is_terminal : node -> bool

(** Decomposition of an internal node: its variable, low (else) and high
    (then) children. Raises [Invalid_argument] on terminals. *)
val topvar : t -> node -> var

val low : t -> node -> node
val high : t -> node -> node

(** {1 Boolean operations} *)

val not_ : t -> node -> node
val and_ : t -> node -> node -> node
val or_ : t -> node -> node -> node
val xor_ : t -> node -> node -> node
val iff_ : t -> node -> node -> node
val implies : t -> node -> node -> node
val ite : t -> node -> node -> node -> node

(** {1 Quantification and substitution} *)

(** [exists t vars n] existentially quantifies the variables for which
    [vars v] is true. *)
val exists : t -> (var -> bool) -> node -> node

val forall : t -> (var -> bool) -> node -> node

(** [restrict t n ~v ~phase] is the cofactor of [n]. *)
val restrict : t -> node -> v:var -> phase:bool -> node

(** [compose t n ~subst] simultaneously substitutes BDDs for variables
    ([subst v = None] keeps [v]). Used by the baseline pre-image. *)
val compose : t -> node -> subst:(var -> node option) -> node

(** {1 Queries} *)

val support : t -> node -> var list

(** Number of internal nodes in the graph rooted at [n]. *)
val size : t -> node -> int

(** [sat_count t n ~nvars] is the number of satisfying assignments over
    [nvars] variables, as a float. *)
val sat_count : t -> node -> nvars:int -> float

(** [any_sat t n] is a partial satisfying assignment (variable, phase)
    list, or [None] when [n] is [zero]. *)
val any_sat : t -> node -> (var * bool) list option

val eval : t -> node -> (var -> bool) -> bool

(** {1 Node quota} *)

(** [with_limit t ?poll ~max_nodes f] runs [f ()] allowing the manager to
    grow to at most [max_nodes] total nodes; returns [Error `Node_limit]
    if the quota is hit (the manager stays usable, the quota is lifted).
    [poll], when given, is invoked every few thousand fresh allocations so
    an external governor can interrupt a single long construction — it
    escapes by raising ([Node_limit] maps to [Error `Node_limit], anything
    else propagates after the quota is restored). *)
val with_limit :
  t -> ?poll:(unit -> unit) -> max_nodes:int -> (unit -> 'a) -> ('a, [ `Node_limit ]) result

val pp : t -> Format.formatter -> node -> unit
