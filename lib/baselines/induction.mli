(** k-induction (Sheeran, Singh & Stålmarck, FMCAD'00) — the unbounded
    SAT-based baseline of paper §4, one base+step round per depth of
    {!Cbq.Unroll.deepen}.

    Round [k] checks the {e base} case (no counterexample of length [k],
    shared with the BMC unrolling) and the {e step} case: a loop-free path
    of [k+1] states satisfying [P] cannot be extended to one violating it.
    Simple-path (pairwise-distinct states) constraints make the method
    complete on finite models. *)

(** [run ?max_k ?limits m]. [Undecided "no convergence by k=N"] when no
    round up to [max_k] converges (possible only on a model with more
    than [max_k + 1] states); a [limits] trip mid-run names the resource
    and the round reached. A proof's [depth] is the [k] that closed it. *)
val run : ?max_k:int -> ?limits:Util.Limits.t -> Netlist.Model.t -> Cbq.Unroll.result
