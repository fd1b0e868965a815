type answer = Yes | No | Maybe

let obs_queries = Obs.counter "cnf.queries"
let obs_cutoffs = Obs.counter "cnf.budget_cutoffs"
let obs_const_shortcuts = Obs.counter "cnf.const_shortcuts"
let obs_limit_shortcuts = Obs.counter "limits.query_shortcuts"

type t = { ts : Tseitin.t; limits : Util.Limits.t; mutable queries : int }

let create ?(limits = Util.Limits.unlimited) aig =
  { ts = Tseitin.create aig; limits; queries = 0 }

let aig t = Tseitin.aig t.ts
let limits t = t.limits

let satisfiable ?conflict_limit t lits =
  t.queries <- t.queries + 1;
  Obs.incr obs_queries;
  (* constant short-cuts avoid touching the solver *)
  if List.exists (fun l -> l = Aig.false_) lits then begin
    Obs.incr obs_const_shortcuts;
    No
  end
  else if Util.Limits.check t.limits <> None then begin
    (* governor tripped or past its deadline: degrade without a solver call *)
    Obs.incr obs_cutoffs;
    Obs.incr obs_limit_shortcuts;
    Maybe
  end
  else begin
    let assumptions = List.map (Tseitin.sat_lit t.ts) lits in
    match
      Sat.Solver.solve ~assumptions ?conflict_limit ~limits:t.limits (Tseitin.solver t.ts)
    with
    | Sat.Solver.Sat -> Yes
    | Sat.Solver.Unsat -> No
    | Sat.Solver.Unknown ->
      Obs.incr obs_cutoffs;
      Maybe
  end

let both a b =
  match (a, b) with
  | No, No -> Yes
  | Yes, _ | _, Yes -> No
  | Maybe, _ | _, Maybe -> Maybe

(* a = b iff neither (a & ~b) nor (~a & b) is satisfiable. The first
   satisfiable check short-circuits the second and leaves its model as the
   distinguishing witness. *)
let equal ?conflict_limit t a b =
  if a = b then Yes
  else if a = Aig.not_ b then No
  else
    let left = satisfiable ?conflict_limit t [ a; Aig.not_ b ] in
    if left = Yes then No
    else both left (satisfiable ?conflict_limit t [ Aig.not_ a; b ])

let equal_under ?conflict_limit t ~care a b =
  if a = b then Yes
  else
    let left = satisfiable ?conflict_limit t [ care; a; Aig.not_ b ] in
    if left = Yes then No
    else both left (satisfiable ?conflict_limit t [ care; Aig.not_ a; b ])

let model_var_opt t v = Tseitin.model_var_opt t.ts v
let model_var t v = Tseitin.model_var t.ts v
let model t vars = List.map (fun v -> (v, model_var t v)) vars

let assigned_model t vars =
  List.filter_map (fun v -> Option.map (fun b -> (v, b)) (model_var_opt t v)) vars
let queries t = t.queries
let solver_stats t = Sat.Solver.stats (Tseitin.solver t.ts)
