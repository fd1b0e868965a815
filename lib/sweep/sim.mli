(** Bit-parallel simulation signatures for merge-candidate detection.

    Every node of the cone under analysis gets a 64·w-bit signature from
    [w] words of parallel simulation, held in one preallocated dense
    [int64] matrix (node-major) and filled 64 patterns at a time by a
    compiled cone evaluator ({!Aig.compile_cone}) — no per-pattern hashing
    or per-node reallocation. Nodes whose signatures agree {e modulo
    complementation} form candidate equivalence classes — the cheap filter
    in front of BDD sweeping and SAT checks; classes are maintained by
    monomorphic signature hashing over [Int64] words.

    Distinguishing SAT models are folded back in as extra patterns, so one
    counterexample splits every class it distinguishes (the paper's
    observation that a single solver solution rules out several
    non-matching couples). When a {!Pattern_bank.t} is supplied, its stored
    counterexample lanes seed the matrix before the random words, so models
    learned in earlier sweeps and reachability frames keep refining for
    free. *)

type t

(** [create aig ~roots ~rounds ~prng] simulates the cone of [roots] with
    [rounds] random 64-bit words per variable. The constant node is always
    part of the analysis, so constant candidates are detected too.
    [?bank] additionally seeds the first {!Pattern_bank.n_words} words of
    every signature from the bank's recycled counterexample lanes. *)
val create :
  ?bank:Pattern_bank.t -> Aig.t -> roots:Aig.lit list -> rounds:int -> prng:Util.Prng.t -> t

(** Nodes of the analyzed cone (topological order), including leaves and
    the constant node. *)
val nodes : t -> int list

(** Support variables of the analyzed cone (ascending). *)
val vars : t -> Aig.var list

(** Number of 64-pattern words simulated so far (bank + random +
    refinements). *)
val words : t -> int

(** Number of leading words seeded from the pattern bank at creation. *)
val bank_words : t -> int

(** The candidate classes: each class is a list of literals (a node with
    the phase that normalizes its signature), of length at least 2, sorted
    by node id. A class containing the constant literal means its members
    are candidate constants. *)
val classes : t -> Aig.lit list list

(** [same_class t a b] — do literals [a] and [b] currently carry equal
    signatures (i.e. are they still candidate-equal)? *)
val same_class : t -> Aig.lit -> Aig.lit -> bool

(** The signature of a literal: one word per pattern, complemented words
    for complemented literals. Clients mask signatures with a care-set
    signature to propose don't-care-equal candidates (synthesis phase).
    Literals outside the simulated cone get the empty signature. *)
val lit_signature : t -> Aig.lit -> int64 array

(** [lit_word t l w] is word [w] of the signature of [l], without
    allocating the whole signature. Raises [Invalid_argument] when [l] is
    outside the simulated cone or [w] is out of range — callers filtering
    on signatures must not silently read zeros. *)
val lit_word : t -> Aig.lit -> int -> int64

(** [refine t pattern] adds one concrete assignment as an extra
    simulation pattern, so the next {!classes} splits every class it
    distinguishes. Variables absent from [pattern] default to [false]. *)
val refine : t -> (Aig.var -> bool) -> unit

(** Number of refinement patterns folded in so far. *)
val refinements : t -> int
