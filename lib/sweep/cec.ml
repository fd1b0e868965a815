type verdict =
  | Equivalent
  | Inequivalent of (Aig.var * bool) list
  | Unknown

type report = {
  verdict : verdict;
  merged_to_same_node : bool;
  sweep : Sweeper.report;
  seconds : float;
}

let pp_verdict ppf = function
  | Equivalent -> Format.pp_print_string ppf "EQUIVALENT"
  | Inequivalent assignment ->
    Format.fprintf ppf "INEQUIVALENT (";
    List.iter (fun (v, b) -> Format.fprintf ppf "x%d=%d " v (if b then 1 else 0)) assignment;
    Format.fprintf ppf ")"
  | Unknown -> Format.pp_print_string ppf "UNKNOWN"

let check ?config ?bank aig checker ~prng a b =
  let watch = Util.Stopwatch.start () in
  let lits, sweep = Sweeper.sweep_lits ?config ?bank aig checker ~prng [ a; b ] in
  let a', b' = match lits with [ x; y ] -> (x, y) | _ -> assert false in
  let merged = a' = b' in
  let verdict =
    if merged then Equivalent
    else begin
      match Cnf.Checker.equal ~conflict_limit:Sweeper.conflict_limit checker a' b' with
      | Cnf.Checker.Yes -> Equivalent
      | Cnf.Checker.No ->
        let support = Aig.support_list aig [ a; b ] in
        Inequivalent (Cnf.Checker.model checker support)
      | Cnf.Checker.Maybe -> Unknown
    end
  in
  { verdict; merged_to_same_node = merged; sweep; seconds = Util.Stopwatch.elapsed watch }

let check_cones ?config (aig1, root1, vars1) (aig2, root2, vars2) =
  if List.length vars1 <> List.length vars2 then
    invalid_arg "Cec.check_cones: input counts differ";
  let joint = Aig.create () in
  let shared = List.map (fun _ -> Aig.var joint (Aig.fresh_var joint)) vars1 in
  let subst_of vars =
    let table = List.combine vars shared in
    fun v ->
      match List.assoc_opt v table with
      | Some l -> l
      | None -> invalid_arg "Cec.check_cones: cone depends on an unlisted variable"
  in
  let a = Aig.import joint ~source:aig1 ~subst:(subst_of vars1) root1 in
  let b = Aig.import joint ~source:aig2 ~subst:(subst_of vars2) root2 in
  let checker = Cnf.Checker.create joint in
  let prng = Util.Prng.create 83 in
  check ?config joint checker ~prng a b
