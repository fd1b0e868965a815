(** Functional time-frame expansion of a sequential model, inside the
    model's own AIG manager, and the deepening loop that BMC and
    k-induction run on.

    Frame 0 states are the initial-value constants, or fresh variables
    for {!from_any_state}; every (frame, input) pair gets a fresh
    variable; later states are next-state functions composed over earlier
    frames. Because the unrolling is functional, the bad-state condition
    at depth [k] is a single literal whose support is only frame inputs
    (and frame-0 states) — one satisfiability query yields a whole
    counterexample ({!cex_at}). *)

type t

(** Unrolling from the initial states. *)
val create : Netlist.Model.t -> t

(** Unrolling from an arbitrary state: every frame-0 state is a fresh
    variable, made in latch order when the unrolling is created, so a
    query over it quantifies the start state (the induction step).
    {!cex_at} does not apply: its traces start from reset. *)
val from_any_state : Netlist.Model.t -> t

val model : t -> Netlist.Model.t

(** [state_lit t ~frame v] — the function giving state variable [v] at
    time [frame] in terms of frame inputs. *)
val state_lit : t -> frame:int -> Aig.var -> Aig.lit

(** [bad_at t k] — [¬P] evaluated on frame [k] (using frame-[k] inputs if
    the property reads inputs). *)
val bad_at : t -> int -> Aig.lit

(** [frame_inputs t ~frame] — the fresh variables of one frame, paired
    with the model inputs they instantiate. *)
val frame_inputs : t -> frame:int -> (Aig.var * Aig.var) list

(** {1 The deepening loop} *)

(** What one round of {!deepen} found. *)
type round =
  | Cex of Trace.t  (** a counterexample as long as the round's depth *)
  | Proof  (** the property holds *)
  | Deeper  (** nothing decided at this depth: try the next *)
  | Maybe  (** a query the governor left undecided *)

(** [cex_at t checker ~target ~depth] — one exact query: can [target],
    a literal over [t]'s frames up to [depth], be true? [Cex] carries
    the trace of [depth] transitions rebuilt from the model, [Deeper]
    means no; only the governor bound to [checker] answers [Maybe]. *)
val cex_at : t -> Cnf.Checker.t -> target:Aig.lit -> depth:int -> round

type result = {
  verdict : Verdict.t;
  trace : Trace.t option;  (** on [Falsified] *)
  depth : int;  (** the round that ended the run; [max_depth] at the bound *)
  solver : Sat.Solver.stats;
  seconds : float;
}

val pp_result : Format.formatter -> result -> unit

(** [deepen ~limits ~max_depth ~bound m query] asks [query checker] at
    depth 0, 1, … up to [max_depth], where [checker] is the run's SAT
    checker on [m]'s AIG, bound to [limits]. [Cex] ends the run
    [Falsified] at that depth and [Proof] [Proved]. Each round starts
    with a governor poll; a trip, or a [Maybe], ends it [Undecided] with
    a reason ending [(depth N)]. Past [max_depth] the run ends
    [Undecided bound]. *)
val deepen :
  limits:Util.Limits.t ->
  max_depth:int ->
  bound:string ->
  Netlist.Model.t ->
  (Cnf.Checker.t -> int -> round) ->
  result
