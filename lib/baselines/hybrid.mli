(** The combination the paper advocates (§4): circuit-based quantification
    as a {e pre-processing} step in front of an all-solution SAT pre-image.

    Each pre-image first runs partial circuit-based quantification with an
    aggressive growth budget — cheap input variables are eliminated
    structurally — and hands only the {e residual} (aborted) variables to
    the enumeration engine ({!Cofactor_preimage.enumerate}), which
    therefore explores a decision space with far fewer input variables.
    Like {!Cofactor_preimage} it is a backward direction on
    {!Cbq.Reachability.traverse}. *)

type result = Cofactor_preimage.result = {
  reach : Cbq.Reachability.result;
  enumerations : int;  (** SAT solutions enumerated over the whole run *)
}

(** [run ?config ?max_enumerations ?limits m]. [config] is the traversal's
    as for {!Cofactor_preimage.run}, except that its quantification runs
    under a tight growth budget ([1.2·|F| + 16], don't-care phase on):
    abort early and let SAT finish, the paper's recommended division of
    labour. *)
val run :
  ?config:Cbq.Reachability.config ->
  ?max_enumerations:int ->
  ?limits:Util.Limits.t ->
  Netlist.Model.t ->
  result
