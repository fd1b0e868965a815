(** Forward reachability with circuit-based quantification.

    The paper's traversal runs backward because pre-image enjoys
    quantification by substitution; the forward direction is the natural
    stress test for the quantifier, since the image

    [Img(R)(y) = ∃s ∃x. (⋀ᵢ yᵢ ≡ δᵢ(s,x)) ∧ R(s)]

    has no in-lining shortcut: every state and input variable must be
    eliminated from the relational product circuit. Partial quantification
    carries residual variables exactly as in the backward engine.

    Shares the result/verdict/config types and the frame loop of
    {!Reachability}. *)

(** [run ?config ?limits m] — forward traversal from the initial states
    until a bad state is hit or a fix-point proves the property.
    [limits] follows the contract of {!Reachability.run}. *)
val run :
  ?config:Reachability.config -> ?limits:Util.Limits.t -> Netlist.Model.t -> Reachability.result
