(** The full engine table: every verification engine in the repo behind
    one uniform signature.

    This is the single registry consumed by the fuzz oracle's
    differential check, the portfolio racer and the tests — one place to
    add an engine and have every cross-engine consumer pick it up. Each
    engine takes a {!Util.Limits} governor and a model and returns an
    anytime {!Verdict.t} plus, when it can produce one, a counterexample
    trace.

    Engines mutate their model's AIG manager while they run, so callers
    that reuse one model across engines must hand each engine its own
    clone (see [Par.Clone]); the table itself takes no position on
    cloning. *)

type config = {
  bmc_depth : int;  (** BMC unrolling ceiling *)
  induction_k : int;  (** k-induction ceiling *)
  cbq : Cbq.Reachability.config;
      (** configuration of the engines on the frame loop — both CBQ
          traversals, cofactor and hybrid (trace rebuilding,
          quantification, sweeping; hybrid tightens the growth budget),
          and both BDD traversals (trace rebuilding only); BMC and
          induction ignore it *)
}

val default_config : config

type engine = {
  name : string;
  run : limits:Util.Limits.t -> Netlist.Model.t -> Verdict.t * Cbq.Trace.t option;
}

(** All engines, in the canonical (deterministic) order:
    cbq-bwd, cbq-fwd, bdd-bwd, bdd-fwd, bmc, induction, cofactor, hybrid. *)
val engines : ?config:config -> unit -> engine list

(** Names of {!engines}, in the same order. *)
val names : string list

(** [find ?config name] — the named engine, or [None] for an unknown name. *)
val find : ?config:config -> string -> engine option

(** What a front-end shows of one engine run, beyond {!engine}'s verdict
    and trace. *)
type detail = {
  verdict : Verdict.t;
  trace : Cbq.Trace.t option;
  invariant : Aig.lit option;
      (** on [Proved], an inductive invariant for {!Cbq.Certify.check},
          when the engine produced one *)
  pp_result : Format.formatter -> unit;  (** the engine's own one-line result *)
  pp_frames : Format.formatter -> unit;
      (** one line per traversal frame; prints nothing for engines
          without frames *)
}

(** [find_detailed ?config name] — the same table as {!find}, returning
    the engine's {!detail}. *)
val find_detailed :
  ?config:config -> string -> (limits:Util.Limits.t -> Netlist.Model.t -> detail) option
