(** {!Cbq.Verdict} under the path the engines, the serve protocol and
    the bench harness have always used; the type and its constructors
    are the same. *)

include module type of struct
  include Cbq.Verdict
end
