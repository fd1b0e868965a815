(** Backward reachability with AIG state sets (paper §3).

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
    iterations. *)

type iteration = {
  index : int; (* 1-based pre-image count *)
  frontier_size : int; (* AND nodes of the new frontier *)
  reached_size : int;
  eliminated_inputs : int;
  kept_inputs : int; (* aborted quantifications this step *)
  naive_size : int; (* sum of naive Shannon sizes, for comparison *)
  seconds : float;
}

type result = {
  verdict : Verdict.t;
  (* [Undecided reason]: the anytime answer when the iteration limit, a
     {!Util.Limits} resource or a step's own budget ([reason] names it)
     stopped the traversal; [iterations] holds the frames completed
     before. Never wrong — a run that cannot certify its answer within
     budget lands here instead. *)
  trace : Trace.t option; (* on [Falsified], when [make_trace] asked for one *)
  iterations : iteration list;
  total_seconds : float;
  peak_frontier : int;
  sat_queries : int;
  invariant : Aig.lit option;
  (* on [Proved] without partial-quantification residuals: the complement
     of the backward-reached set — an inductive invariant certifying the
     property, checkable independently with {!Certify.check} *)
  aborted_vars : Aig.var list;
  (* the variables partial quantification abandoned across the whole run,
     sorted and deduplicated — who was kept, not just how many. Also
     mirrored into the run report as the [quantify.aborted_vars] meta. *)
}

type config = {
  quant : Quantify.config;
  max_iterations : int;
  make_trace : bool;
  seed : int;
}

val default : config

val pp_result : Format.formatter -> result -> unit

(** [run ?config ?limits m] — verify the model's safety property.

    [limits] is a run-wide resource governor ({!Util.Limits}): the
    traversal polls it at every frame boundary (deadline and AIG node
    ceiling), binds it to the shared SAT checker (conflict pool) and the
    sweeping stack (BDD node pool), and degrades gracefully — frames
    completed before the trip are kept, the SAT-expensive optimizations
    fall back to naive forms, and the verdict becomes [Undecided]
    naming the tripped resource unless the run already holds a definite
    answer. *)
val run : ?config:config -> ?limits:Util.Limits.t -> Netlist.Model.t -> result

(** {1 The traversal skeleton, shared by both directions} *)

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
  initial : Aig.lit;  (** frame-0 frontier and reached set *)
  target : Aig.lit;  (** a frontier meeting it is a counterexample *)
  step : Aig.lit -> extra_vars:Aig.var list -> (Quantify.result, string) Stdlib.result;
      (** one frame: the frontier's successor set, before renaming, with
          [extra_vars] (residuals of earlier frames) also quantified.
          [Error reason] ends the run [Undecided reason] with the frames
          completed so far (a step with a budget of its own). *)
  rebase : Aig.lit -> Aig.lit;
      (** applied after residual renaming: map the step's result back
          onto the current-state variables *)
  certificate : Aig.lit -> Aig.lit;
      (** the inductive invariant for a fix-point reached set *)
}

(** [traverse ~config ~limits m make_direction] quantifies the property
    inputs out of the bad states (renaming any it keeps, like a frame's
    residuals), builds the direction from them and the initial states,
    and runs the frame loop: step, then SAT-test frontier ∧ target (a
    counterexample) and frontier ∧ ¬reached (a fix-point when
    unsatisfiable). Renaming, the trace extraction, the budgeted-[Maybe]
    rules and the telemetry are the same for every direction. *)
val traverse :
  config:config ->
  limits:Util.Limits.t ->
  Netlist.Model.t ->
  (env -> init:Aig.lit -> bad:Aig.lit -> direction) ->
  result

(** The paper's backward direction, which {!run} traverses: start from
    the bad states, step by {!Preimage.compute} (in-lining, then
    quantification of the inputs and [extra_vars] under [env.quant]),
    stop on meeting the initial states; the complement of the reached
    set is the invariant. Other backward engines wrap its [step]. *)
val backward : env -> init:Aig.lit -> bad:Aig.lit -> direction
