type failure = Not_initial | Not_inductive | Not_safe | Unchecked of string

let pp_failure ppf = function
  | Not_initial -> Format.pp_print_string ppf "an initial state violates the invariant"
  | Not_inductive -> Format.pp_print_string ppf "the invariant is not closed under transitions"
  | Not_safe -> Format.pp_print_string ppf "an invariant state violates the property"
  | Unchecked reason -> Format.fprintf ppf "not checked (%s)" reason

let check ?(limits = Util.Limits.unlimited) m ~invariant =
  let aig = Netlist.Model.aig m in
  let checker = Cnf.Checker.create ~limits aig in
  (* each condition holds when its query is unsatisfiable *)
  let holds lits failure k =
    match Cnf.Checker.satisfiable checker lits with
    | Cnf.Checker.No -> k ()
    | Cnf.Checker.Yes -> Error failure
    | Cnf.Checker.Maybe -> Error (Unchecked (Util.Limits.maybe_reason limits))
  in
  holds [ Netlist.Model.init_lit m; Aig.not_ invariant ] Not_initial @@ fun () ->
  let invariant_next = Aig.compose aig invariant ~subst:(Netlist.Model.next_subst m) in
  holds [ invariant; Aig.not_ invariant_next ] Not_inductive @@ fun () ->
  holds [ invariant; Aig.not_ m.Netlist.Model.property ] Not_safe @@ fun () -> Ok ()
