type answer = Yes | No | Maybe

let obs_queries = Obs.counter "cnf.queries"
let obs_cutoffs = Obs.counter "cnf.budget_cutoffs"
let obs_const_shortcuts = Obs.counter "cnf.const_shortcuts"
let obs_limit_shortcuts = Obs.counter "limits.query_shortcuts"

type t = {
  ts : Tseitin.t;
  mutable conflict_limit : int option;
  mutable limits : Util.Limits.t;
  mutable queries : int;
  mutable cutoffs : int;
}

let create aig =
  {
    ts = Tseitin.create aig;
    conflict_limit = None;
    limits = Util.Limits.unlimited;
    queries = 0;
    cutoffs = 0;
  }

let aig t = Tseitin.aig t.ts
let set_conflict_limit t n = t.conflict_limit <- n
let set_limits t l = t.limits <- l
let limits t = t.limits

let satisfiable t lits =
  t.queries <- t.queries + 1;
  Obs.incr obs_queries;
  (* constant short-cuts avoid touching the solver *)
  if List.exists (fun l -> l = Aig.false_) lits then begin
    Obs.incr obs_const_shortcuts;
    No
  end
  else if Util.Limits.exhausted t.limits <> None then begin
    (* governor already tripped: degrade without paying a solver call *)
    t.cutoffs <- t.cutoffs + 1;
    Obs.incr obs_cutoffs;
    Obs.incr obs_limit_shortcuts;
    Maybe
  end
  else begin
    let assumptions = List.map (Tseitin.sat_lit t.ts) lits in
    let result =
      match t.conflict_limit with
      | None -> Sat.Solver.solve ~assumptions ~limits:t.limits (Tseitin.solver t.ts)
      | Some budget ->
        Sat.Solver.solve ~assumptions ~conflict_limit:budget ~limits:t.limits
          (Tseitin.solver t.ts)
    in
    match result with
    | Sat.Solver.Sat -> Yes
    | Sat.Solver.Unsat -> No
    | Sat.Solver.Unknown ->
      t.cutoffs <- t.cutoffs + 1;
      Obs.incr obs_cutoffs;
      Maybe
  end

let neg_answer = function Yes -> No | No -> Yes | Maybe -> Maybe
let valid t l = neg_answer (satisfiable t [ Aig.not_ l ])

let both a b =
  match (a, b) with
  | No, No -> Yes
  | Yes, _ | _, Yes -> No
  | Maybe, _ | _, Maybe -> Maybe

(* a = b iff neither (a & ~b) nor (~a & b) is satisfiable. The first
   satisfiable check short-circuits the second and leaves its model as the
   distinguishing witness. *)
let equal t a b =
  if a = b then Yes
  else if a = Aig.not_ b then No
  else
    let left = satisfiable t [ a; Aig.not_ b ] in
    if left = Yes then No
    else both left (satisfiable t [ Aig.not_ a; b ])

let equal_under t ~care a b =
  if a = b then Yes
  else
    let left = satisfiable t [ care; a; Aig.not_ b ] in
    if left = Yes then No
    else both left (satisfiable t [ care; Aig.not_ a; b ])

let implies t a b =
  if a = b || a = Aig.false_ || b = Aig.true_ then Yes
  else neg_answer (satisfiable t [ a; Aig.not_ b ])

let model_var_opt t v = Tseitin.model_var_opt t.ts v
let model_var t v = Tseitin.model_var t.ts v
let model t vars = List.map (fun v -> (v, model_var t v)) vars

let assigned_model t vars =
  List.filter_map (fun v -> Option.map (fun b -> (v, b)) (model_var_opt t v)) vars
let queries t = t.queries
let budget_cutoffs t = t.cutoffs
let solver_stats t = Sat.Solver.stats (Tseitin.solver t.ts)
