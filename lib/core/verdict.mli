(** The common three-valued outcome every engine reduces to, so the
    comparison experiments can tabulate heterogeneous engines. *)

type t =
  | Proved
  | Falsified of int (* length of the counterexample found *)
  | Undecided of string (* resource or method limit, with the reason *)

val agrees_with_oracle : t -> safe:bool -> depth:int option -> bool

(** The run-report [verdict] meta value: [proved], [falsified:N] or
    [undecided]. *)
val to_meta : t -> string

val pp : Format.formatter -> t -> unit
