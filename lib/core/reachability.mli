(** Reachability with AIG state sets (paper §3), on the frame loop that
    every reachability engine shares.

    Starting from the complement of the invariant, pre-images are iterated
    until either no new states appear (fix-point — the property is proved)
    or the initial states are intersected (a counterexample exists, whose
    trace is rebuilt by functional unrolling). All state sets are AIG
    literals; set operations and termination tests run through the shared
    SAT checker.

    Aborted input quantifications (partial quantification) leave residual
    variables in the state sets; they are renamed to private auxiliary
    variables so they cannot collide with the next frame's inputs, treated
    existentially by every containment test, and retried at later
    iterations.

    The loop itself ({!frame_loop}) is generic over the state-set
    representation: {!Forward} and the enumerating engines run it on AIG
    sets, and [Baselines.Bdd_mc] on BDDs. *)

type iteration = {
  index : int; (* 1-based pre-image count *)
  frontier_size : int; (* nodes of the new frontier: AND nodes, or BDD nodes *)
  reached_size : int;
  eliminated_inputs : int;
  kept_inputs : int; (* aborted quantifications this step *)
  seconds : float;
}

type result = {
  verdict : Verdict.t;
  (* [Undecided reason]: the anytime answer when a {!Util.Limits}
     resource or a step's own budget ([reason] names it) stopped the
     traversal; [iterations] holds the frames completed before. Never
     wrong — a run that cannot certify its answer within budget lands
     here instead. Without a budget the loop runs to a verdict: the
     onion rings add new states every frame, so it ends. *)
  trace : Trace.t option; (* on [Falsified], when [make_trace] asked for one *)
  iterations : iteration list;
  total_seconds : float;
  peak_frontier : int;
  sat_queries : int;
  invariant : Aig.lit option;
  (* on [Proved] over AIG sets without partial-quantification residuals:
     the complement of the backward-reached set (forward: the reached set)
     — an inductive invariant certifying the property, checkable
     independently with {!Certify.check} *)
  aborted_vars : Aig.var list;
  (* the variables partial quantification abandoned across the whole run,
     sorted and deduplicated — who was kept, not just how many. Also
     mirrored into the run report as the [quantify.aborted_vars] meta. *)
}

type config = { quant : Quantify.config; make_trace : bool }

val default : config

val pp_result : Format.formatter -> result -> unit

(** [run ?config ?limits m] — verify the model's safety property.

    [limits] is a run-wide resource governor ({!Util.Limits}): the
    traversal polls it at every frame boundary (deadline and AIG node
    ceiling), binds it to the shared SAT checker (conflict pool) and the
    sweeping stack (BDD node pool), and degrades gracefully — frames
    completed before the trip are kept, the quantifier keeps the frame's
    remaining variables, and the verdict becomes [Undecided] naming the
    tripped resource unless the run already holds a definite answer. *)
val run : ?config:config -> ?limits:Util.Limits.t -> Netlist.Model.t -> result

(** {1 The frame loop}

    Frame 0 tests whether the initial states meet the bad ones. Each
    later frame steps the frontier, tests frontier ∧ target (a
    counterexample) and frontier ∧ ¬reached (a fix-point when empty),
    and keeps only the new states as the next frontier (onion rings). A
    [Maybe] ends the run [Undecided]. The loop owns the governor polls,
    the iteration records, the [reach.*] telemetry and the
    counterexample: one query on an unrolling as deep as the hit frame. *)

(** Raised by a set operation that cannot finish (a BDD operation over
    its quota): the loop closes the open frame and ends [Undecided]. *)
exception Stop of string

(** A step's successor set over the current-state variables, with the
    variables it quantified away and kept (0 for BDD steps). *)
type 'set image = { states : 'set; eliminated : int; kept : int }

(** A state-set representation: any operation may raise {!Stop}. *)
type 'set sets = {
  init : 'set;
  bad : 'set;  (** over the state variables *)
  backward : bool;  (** start from [bad], stop on meeting [init]; forward the other way *)
  step : 'set -> 'set image;
  meets : 'set -> 'set -> Cnf.Checker.answer;  (** is the intersection non-empty? *)
  and_ : 'set -> 'set -> 'set;
  or_ : 'set -> 'set -> 'set;
  not_ : 'set -> 'set;
  size : 'set -> int;  (** nodes of the representation *)
  invariant : 'set -> Aig.lit option;
      (** for a fix-point reached set: an inductive invariant, if the
          representation gives one *)
}

(** [frame_loop ~config ~limits m build] runs the loop on [build checker],
    where [checker] is the run's SAT checker on [m]'s AIG, bound to
    [limits]; the counterexample query runs on it too. The result's
    [aborted_vars] is empty. *)
val frame_loop :
  config:config -> limits:Util.Limits.t -> Netlist.Model.t -> (Cnf.Checker.t -> 'set sets) -> result

(** {1 AIG state sets} *)

(** What a direction's step may use: the run's shared SAT checker,
    random stream and pattern bank. *)
type env = {
  model : Netlist.Model.t;
  checker : Cnf.Checker.t;
  prng : Util.Prng.t;
  bank : Sweep.Pattern_bank.t;
  quant : Quantify.config;
}

type direction = {
  backward : bool;
      (** as in {!sets}; the invariant is the complement of the reached
          set backward, the reached set itself forward *)
  step : Aig.lit -> extra_vars:Aig.var list -> (Quantify.result, string) Stdlib.result;
      (** one frame: the frontier's successor set, before renaming, with
          [extra_vars] (residuals of earlier frames) also quantified.
          [Error reason] ends the run [Undecided reason] with the frames
          completed so far (a step with a budget of its own). *)
  rebase : Aig.lit -> Aig.lit;
      (** applied after residual renaming: map the step's result back
          onto the current-state variables *)
}

(** [traverse ~config ~limits m make_direction] runs {!frame_loop} on AIG
    sets: SAT tests on the shared checker, property inputs quantified out
    of the bad states, and residuals (kept by that or by any step)
    renamed and quantified again by every later step. A proof carries an
    invariant only when no residual is left. *)
val traverse :
  config:config -> limits:Util.Limits.t -> Netlist.Model.t -> (env -> direction) -> result

(** The paper's backward direction, which {!run} traverses: step by
    {!Preimage.compute} (in-lining, then quantification of the inputs
    and [extra_vars] under [env.quant]). Other backward engines wrap its
    [step]. *)
val backward : env -> direction
