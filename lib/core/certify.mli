(** Independent checking of proof certificates.

    A safety proof is certified by an {e inductive invariant} [Inv] over
    the state variables:

    + {b initiation} — the initial states satisfy [Inv];
    + {b consecution} — [Inv] is closed under the transition functions
      for every input;
    + {b safety} — [Inv] implies the property.

    The three conditions are discharged by SAT on a fresh checker, so a
    verdict can be validated without trusting the engine that produced it
    (the paper's traversal emits [¬reached] as its certificate). *)

type failure =
  | Not_initial (* some initial state violates the invariant *)
  | Not_inductive (* an invariant state can leave the invariant *)
  | Not_safe (* an invariant state violates the property *)
  | Unchecked of string
      (* the governor stopped a condition's query ([string] names the
         resource): neither accepted nor rejected *)

val pp_failure : Format.formatter -> failure -> unit

(** [check ?limits m ~invariant] — [Ok ()] when [invariant] certifies the
    model's property. The literal must be over the model's state
    variables. [limits] (default unlimited) governs the checker's
    queries; a query it leaves undecided makes the result
    [Error (Unchecked resource)], never [Ok] and never a rejection. *)
val check :
  ?limits:Util.Limits.t -> Netlist.Model.t -> invariant:Aig.lit -> (unit, failure) result
