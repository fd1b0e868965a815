type failure =
  | Disagreement of { verdicts : (string * Baselines.Verdict.t) list }
  | Bad_trace of { engine : string; detail : string }
  | Engine_crash of { engine : string; exn : string }
  | Unsound_quantification of { backend : string; detail : string }
  | Residual_dependence of { backend : string; var : Aig.var }
  | Unsound_sweep of { root : int }
  | Unsound_dontcare of { var : Aig.var }
  | Roundtrip_mismatch of { format : [ `Ascii | `Binary ]; detail : string }

let failure_label = function
  | Disagreement _ -> "disagreement"
  | Bad_trace _ -> "bad-trace"
  | Engine_crash _ -> "crash"
  | Unsound_quantification _ -> "quantification"
  | Residual_dependence _ -> "residual-dependence"
  | Unsound_sweep _ -> "sweep"
  | Unsound_dontcare _ -> "dontcare"
  | Roundtrip_mismatch _ -> "roundtrip"

let pp_failure ppf = function
  | Disagreement { verdicts } ->
    Format.fprintf ppf "engine disagreement:";
    List.iter
      (fun (name, v) -> Format.fprintf ppf " %s=%a" name Baselines.Verdict.pp v)
      verdicts
  | Bad_trace { engine; detail } -> Format.fprintf ppf "%s returned a bogus trace: %s" engine detail
  | Engine_crash { engine; exn } -> Format.fprintf ppf "%s raised: %s" engine exn
  | Unsound_quantification { backend; detail } ->
    Format.fprintf ppf "unsound quantification (%s backend): %s" backend detail
  | Residual_dependence { backend; var } ->
    Format.fprintf ppf "eliminated variable %d still in the result support (%s backend)" var
      backend
  | Unsound_sweep { root } -> Format.fprintf ppf "sweeping changed the semantics of cone %d" root
  | Unsound_dontcare { var } ->
    Format.fprintf ppf "don't-care disjunction over variable %d changed semantics" var
  | Roundtrip_mismatch { format; detail } ->
    Format.fprintf ppf "%s AIGER round-trip not identical: %s"
      (match format with `Ascii -> "ascii" | `Binary -> "binary")
      detail

(* ---------- budgets ---------- *)

type budget = {
  timeout : float option;
  max_conflicts : int option;
  max_aig_nodes : int option;
  max_bdd_nodes : int option;
}

let no_budget =
  { timeout = None; max_conflicts = None; max_aig_nodes = None; max_bdd_nodes = None }

let limits_of_budget b =
  if b = no_budget then Util.Limits.unlimited
  else
    Util.Limits.create ?timeout:b.timeout ?max_conflicts:b.max_conflicts
      ?max_aig_nodes:b.max_aig_nodes ?max_bdd_nodes:b.max_bdd_nodes ()

type config = { budget : budget; suite : Baselines.Suite.config }

let default_config = { budget = no_budget; suite = Baselines.Suite.default_config }

(* ---------- differential ---------- *)

let compatible a b =
  match (a, b) with
  | Baselines.Verdict.Undecided _, _ | _, Baselines.Verdict.Undecided _ -> true
  | Baselines.Verdict.Proved, Baselines.Verdict.Proved -> true
  | Baselines.Verdict.Falsified d1, Baselines.Verdict.Falsified d2 -> d1 = d2
  | Baselines.Verdict.Proved, Baselines.Verdict.Falsified _
  | Baselines.Verdict.Falsified _, Baselines.Verdict.Proved -> false

(* each engine verifies its own clone: engines grow the model's AIG
   manager, and a shared manager would let one engine's nodes perturb the
   next engine's heuristics *)
let clone = Par.Clone.model

(* the engine table itself lives in Baselines.Suite, shared with the
   portfolio racer *)
let engines config =
  List.map
    (fun (e : Baselines.Suite.engine) -> (e.name, e.run))
    (Baselines.Suite.engines ~config:config.suite ())

let engine_names = Baselines.Suite.names

type engine_outcome = {
  verdict : Baselines.Verdict.t;
  trace_problem : string option; (* detail when a returned trace fails to replay *)
  crash : string option;
}

let run_engines_internal config m =
  List.map
    (fun (name, run) ->
      let instance = clone m in
      match run ~limits:(limits_of_budget config.budget) instance with
      | verdict, trace ->
        let trace_problem =
          match (verdict, trace) with
          | Baselines.Verdict.Falsified depth, Some t ->
            if not (Cbq.Trace.check instance t) then Some "trace does not replay on the model"
            else if Cbq.Trace.length t <> depth then
              Some
                (Printf.sprintf "trace length %d but verdict depth %d" (Cbq.Trace.length t)
                   depth)
            else None
          | _ -> None
        in
        (name, { verdict; trace_problem; crash = None })
      | exception exn ->
        ( name,
          {
            verdict = Baselines.Verdict.Undecided ("crash: " ^ Printexc.to_string exn);
            trace_problem = None;
            crash = Some (Printexc.to_string exn);
          } ))
    (engines config)

let run_engines ?(config = default_config) m =
  List.map (fun (name, o) -> (name, o.verdict)) (run_engines_internal config m)

let check_differential ?(config = default_config) m =
  let outcomes = run_engines_internal config m in
  let crash =
    List.find_map
      (fun (name, o) -> Option.map (fun exn -> Engine_crash { engine = name; exn }) o.crash)
      outcomes
  in
  match crash with
  | Some _ as f -> f
  | None -> (
    let bad_trace =
      List.find_map
        (fun (name, o) ->
          Option.map (fun detail -> Bad_trace { engine = name; detail }) o.trace_problem)
        outcomes
    in
    match bad_trace with
    | Some _ as f -> f
    | None ->
      let verdicts = List.map (fun (name, o) -> (name, o.verdict)) outcomes in
      let decided =
        List.filter
          (fun (_, v) -> match v with Baselines.Verdict.Undecided _ -> false | _ -> true)
          verdicts
      in
      let agree =
        match decided with
        | [] -> true
        | (_, first) :: rest -> List.for_all (fun (_, v) -> compatible first v) rest
      in
      if agree then None else Some (Disagreement { verdicts }))

(* ---------- algebraic ---------- *)

(* SAT answers under a budget may be Maybe; only a definite No refutes *)
let refuted = function Cnf.Checker.No -> true | Cnf.Checker.Yes | Cnf.Checker.Maybe -> false

let check_algebraic ?(config = default_config) m =
  (* a clone keeps the oracle's scratch nodes out of the caller's manager *)
  let m = clone m in
  let aig = Netlist.Model.aig m in
  let checker = Cnf.Checker.create aig in
  Cnf.Checker.set_limits checker (limits_of_budget config.budget);
  let prng = Util.Prng.create 17 in
  let bad = Aig.not_ m.Netlist.Model.property in
  let next_lits = List.map (fun l -> l.Netlist.Model.next) m.Netlist.Model.latches in
  (* 1. sweeping preserves the semantics of every model cone *)
  let roots = bad :: next_lits in
  let rebuilt, _report = Sweep.Sweeper.sweep_lits aig checker ~prng roots in
  let sweep_failure =
    List.find_map
      (fun (i, (original, swept)) ->
        if refuted (Cnf.Checker.equal checker original swept) then Some (Unsound_sweep { root = i })
        else None)
      (List.mapi (fun i p -> (i, p)) (List.combine roots rebuilt))
  in
  match sweep_failure with
  | Some _ as f -> f
  | None -> (
    (* 2. quantification = naive cofactor disjunction, support clean —
       checked per backend: the circuit pipeline, the PQE eliminator
       and the auto router must each agree with the Shannon oracle on
       whatever they managed to eliminate (aborts stay compatible: an
       aborted variable is simply not in [eliminated]) *)
    let inputs = Netlist.Model.input_vars m in
    let quant_failure =
      List.find_map
        (fun backend ->
          let name = Cbq.Quantify.backend_name backend in
          let config = { Cbq.Quantify.default with backend } in
          let full = Cbq.Quantify.all ~config aig checker ~prng bad ~vars:inputs in
          let naive =
            Cbq.Quantify.all ~config:Cbq.Quantify.naive_config aig checker ~prng bad
              ~vars:full.Cbq.Quantify.eliminated
          in
          if refuted (Cnf.Checker.equal checker full.Cbq.Quantify.lit naive.Cbq.Quantify.lit)
          then
            Some
              (Unsound_quantification
                 {
                   backend = name;
                   detail =
                     Printf.sprintf
                       "pipeline result differs from the naive Shannon disjunction over %d \
                        variables"
                       (List.length full.Cbq.Quantify.eliminated);
                 })
          else
            List.find_map
              (fun v ->
                if Aig.depends_on aig full.Cbq.Quantify.lit v then
                  Some (Residual_dependence { backend = name; var = v })
                else None)
              full.Cbq.Quantify.eliminated)
        [ Cbq.Quantify.Circuit; Cbq.Quantify.Pqe; Cbq.Quantify.Auto ]
    in
    match quant_failure with
    | Some _ as f -> f
    | None -> (
      (* 3. the don't-care-optimized disjunction of two cofactors is still
         the disjunction *)
      match List.find_opt (fun v -> Aig.depends_on aig bad v) inputs with
      | None -> None
      | Some v ->
        let f0 = Aig.cofactor aig bad ~v ~phase:false in
        let f1 = Aig.cofactor aig bad ~v ~phase:true in
        let optimized, _ = Synth.Dontcare.disjunction aig checker ~prng f0 f1 in
        if refuted (Cnf.Checker.equal checker optimized (Aig.or_ aig f0 f1)) then
          Some (Unsound_dontcare { var = v })
        else None))

(* ---------- round-trip ---------- *)

let first_diff a b =
  if String.length a <> String.length b then
    Printf.sprintf "lengths differ (%d vs %d bytes)" (String.length a) (String.length b)
  else
    let i = ref 0 in
    while !i < String.length a && a.[!i] = b.[!i] do
      incr i
    done;
    Printf.sprintf "first difference at byte %d" !i

let check_roundtrip m =
  let ascii =
    let t1 = Netlist.Aiger.write m in
    match Netlist.Aiger.read ~name:(Netlist.Model.name m) t1 with
    | m1 ->
      let t2 = Netlist.Aiger.write m1 in
      if t1 = t2 then None
      else Some (Roundtrip_mismatch { format = `Ascii; detail = first_diff t1 t2 })
    | exception Netlist.Aiger.Parse_error _ ->
      Some
        (Roundtrip_mismatch
           { format = `Ascii; detail = "reader rejected the writer's own output" })
  in
  match ascii with
  | Some _ as f -> f
  | None -> (
    let t1 = Netlist.Aiger.write_binary m in
    match Netlist.Aiger.read_binary ~name:(Netlist.Model.name m) t1 with
    | m1 ->
      let t2 = Netlist.Aiger.write_binary m1 in
      if t1 = t2 then None
      else Some (Roundtrip_mismatch { format = `Binary; detail = first_diff t1 t2 })
    | exception Netlist.Aiger.Parse_error _ ->
      Some
        (Roundtrip_mismatch
           { format = `Binary; detail = "reader rejected the writer's own output" }))

let check ?(config = default_config) m =
  match check_roundtrip m with
  | Some _ as f -> f
  | None -> (
    match check_algebraic ~config m with
    | Some _ as f -> f
    | None -> check_differential ~config m)
