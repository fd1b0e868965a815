(** Bounded model checking (Biere et al., DAC'99), as a falsification
    baseline and as the downstream SAT engine that the paper's partial
    quantification feeds (experiment T5).

    The model is unrolled functionally, so each depth is a single
    satisfiability query over the frame-input variables, asked on
    {!Cbq.Unroll.deepen}; the solver and its learned clauses persist
    across depths. *)

type result = {
  search : Cbq.Unroll.result;  (** [Proved] never occurs: BMC only refutes *)
  inputs_eliminated : int;  (** by CBQ preprocessing, when enabled *)
}

(** [run ?max_depth ?preprocess m] searches for a counterexample of
    length [0..max_depth]. [Undecided "bound N"] reports the bound that
    stopped the search.

    [~preprocess:true] enables the paper's §4 combination: before each
    depth's SAT call, circuit-based quantification (with a strict growth
    budget) structurally eliminates frame-input variables from the
    unrolled bad-state cone, so the solver faces fewer decision variables.
    Counterexample traces are then reconstructed from the un-preprocessed
    cone, so they stay complete.

    [limits] is a run-wide resource governor; on a trip the search stops
    with [Undecided] naming the resource and the depth reached. *)
val run :
  ?max_depth:int -> ?preprocess:bool -> ?limits:Util.Limits.t -> Netlist.Model.t -> result
