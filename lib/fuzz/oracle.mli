(** Correctness oracles for generated models.

    Three layers, cheapest-to-refute first:

    - {b round-trip}: AIGER write→read must reproduce the document
      exactly (the writer is canonical after one read, so textual
      equality {e is} structural equality), in both the ascii and the
      binary format;
    - {b algebraic}: SAT-checked semantic identities of the individual
      pipeline stages — quantification, with and without the
      don't-care phase, equals the naive cofactor disjunction and leaves
      no trace of the eliminated variables, sweeping and don't-care
      optimization preserve cone semantics;
    - {b differential}: every verification engine (CBQ backward and
      forward, and the six baselines) runs on its own clone of the
      model, and all {e decided} verdicts must agree — [Undecided] is
      compatible with anything, so the same oracle fuzzes
      governor-degradation paths under a tiny {!Util.Limits} budget
      without false alarms. Counterexample traces (CBQ and BDD in both
      directions, cofactor, hybrid, BMC, induction) are additionally
      replayed against the model.

    Every check is deterministic: fixed engine order, fixed PRNG seeds,
    fresh managers per engine. *)

type failure =
  | Disagreement of { verdicts : (string * Baselines.Verdict.t) list }
      (** two engines returned incompatible decided verdicts *)
  | Bad_trace of { engine : string; detail : string }
      (** a falsifying engine produced a trace the model rejects *)
  | Engine_crash of { engine : string; exn : string }
  | Unsound_quantification of { detail : string }
      (** the quantification pipeline disagreed with the naive Shannon
          disjunction *)
  | Residual_dependence of { var : Aig.var }
      (** an eliminated variable is still in the result's support *)
  | Unsound_sweep of { root : int }
      (** sweeping changed the semantics of the [root]-th model cone *)
  | Unsound_dontcare of { var : Aig.var }
  | Roundtrip_mismatch of { format : [ `Ascii | `Binary ]; detail : string }

(** Short stable slug for counters and corpus metadata
    (e.g. ["disagreement"], ["roundtrip"]). *)
val failure_label : failure -> string

val pp_failure : Format.formatter -> failure -> unit

type config = {
  budget : Util.Limits.budget;
      (** {!Util.Limits.t} governors are sticky one-shot objects, so the
          oracle carries a budget and mints a fresh governor from it per
          engine run: each engine degrades (or not) on its own *)
  suite : Baselines.Suite.config;
      (** the engines of the {e differential} layer, whose returned
          counterexamples are replayed *)
}

val default_config : config

(** [compatible a b] — can both verdicts be simultaneously correct?
    [Undecided] matches anything; decided verdicts must match exactly
    (equal counterexample depths included: every engine here finds
    shortest counterexamples). *)
val compatible : Baselines.Verdict.t -> Baselines.Verdict.t -> bool

(** The engines of the differential oracle, in run order. *)
val engine_names : string list

(** [run_engines ?config m] — every engine's verdict on its own clone of
    [m]. Exceptions are folded into [Undecided "crash: ..."] here;
    {!check_differential} reports them as {!Engine_crash}. *)
val run_engines : ?config:config -> Netlist.Model.t -> (string * Baselines.Verdict.t) list

val check_differential : ?config:config -> Netlist.Model.t -> failure option
val check_algebraic : ?config:config -> Netlist.Model.t -> failure option
val check_roundtrip : Netlist.Model.t -> failure option

(** All three layers, round-trip first. [None] = the model passes. *)
val check : ?config:config -> Netlist.Model.t -> failure option
