(** Persistent counterexample pattern bank.

    Every distinguishing SAT model the sweep pipeline produces is distilled
    into one pattern slot — a single simulation lane — keyed per AIG
    variable. The bank outlives individual sweep invocations: later sweeps
    (and later reachability frames) seed their signature matrices with the
    stored lanes, so one counterexample keeps refuting candidate pairs long
    after the solver call that produced it (the paper's "one solution rules
    out several non-matching couples", made persistent).

    Variables a model never assigned keep the default [false] in their
    lane; any total extension of a satisfying partial assignment is a
    genuine counterexample, so the default is sound — just redundant when
    the variable was genuinely unconstrained.

    The bank is bounded: once [capacity] patterns are stored, new patterns
    overwrite the oldest slot (ring replacement), keeping per-sweep seeding
    cost constant over long runs. *)

type t

(** [create ?capacity ()] — [capacity] (default 256) is rounded up to a
    multiple of 64 so slots pack exactly into simulation words. *)
val create : ?capacity:int -> unit -> t

(** Number of patterns currently stored (≤ [capacity]). *)
val size : t -> int

(** Number of 64-pattern simulation words needed to carry the stored
    patterns ([ceil (size / 64)]). Unfilled lanes of the last word read as
    all-[false] assignments. *)
val n_words : t -> int

(** Total patterns ever distilled, including ones since overwritten. *)
val added : t -> int

(** [add t model] stores the assigned variables of one solver model as a
    new pattern. Only positive assignments need storing; absent variables
    read back [false]. *)
val add : t -> (Aig.var * bool) list -> unit

(** [word t v w] is simulation word [w] of variable [v] — bit [j] is the
    value of [v] in pattern [64*w + j]. Out-of-range words and variables
    the bank never saw read as [0L]. *)
val word : t -> Aig.var -> int -> int64
