type t = {
  model : Netlist.Model.t;
  aig : Aig.t;
  (* (frame, model input var) -> fresh var *)
  inputs : (int * Aig.var, Aig.var) Hashtbl.t;
  (* (frame, state var) -> literal *)
  states : (int * Aig.var, Aig.lit) Hashtbl.t;
  mutable frames_ready : int; (* state literals computed up to this frame *)
}

let with_frame0 model frame0 =
  let aig = Netlist.Model.aig model in
  let t =
    { model; aig; inputs = Hashtbl.create 64; states = Hashtbl.create 64; frames_ready = 0 }
  in
  List.iter
    (fun l -> Hashtbl.replace t.states (0, l.Netlist.Model.state_var) (frame0 aig l))
    model.Netlist.Model.latches;
  t

let create model =
  with_frame0 model (fun _ l -> if l.Netlist.Model.init then Aig.true_ else Aig.false_)

let from_any_state model = with_frame0 model (fun aig _ -> Aig.var aig (Aig.fresh_var aig))

let model t = t.model

let input_lit t ~frame v =
  match Hashtbl.find_opt t.inputs (frame, v) with
  | Some fresh -> Aig.var t.aig fresh
  | None ->
    let fresh = Aig.fresh_var t.aig in
    Hashtbl.replace t.inputs (frame, v) fresh;
    Aig.var t.aig fresh

(* substitution mapping model variables to their frame-[k] literals *)
let frame_subst t k v =
  match Hashtbl.find_opt t.states (k, v) with
  | Some l -> Some l
  | None ->
    if List.mem v (Netlist.Model.input_vars t.model) then Some (input_lit t ~frame:k v)
    else None

let rec ensure_frame t k =
  if k > t.frames_ready then begin
    ensure_frame t (k - 1);
    let prev = k - 1 in
    List.iter
      (fun l ->
        let lit = Aig.compose t.aig l.Netlist.Model.next ~subst:(frame_subst t prev) in
        Hashtbl.replace t.states (k, l.Netlist.Model.state_var) lit)
      t.model.Netlist.Model.latches;
    t.frames_ready <- k
  end

let state_lit t ~frame v =
  ensure_frame t frame;
  match Hashtbl.find_opt t.states (frame, v) with
  | Some l -> l
  | None -> invalid_arg "Unroll.state_lit: not a state variable"

let bad_at t k =
  ensure_frame t k;
  Aig.compose t.aig
    (Aig.not_ t.model.Netlist.Model.property)
    ~subst:(frame_subst t k)

let frame_inputs t ~frame =
  Hashtbl.fold
    (fun (f, v) fresh acc -> if f = frame then (v, fresh) :: acc else acc)
    t.inputs []

let trace_from_model t ~depth ~value =
  let frames =
    Array.init depth (fun k ->
        let bindings =
          List.map (fun (v, fresh) -> (v, value fresh)) (frame_inputs t ~frame:k)
        in
        fun v -> (try List.assoc v bindings with Not_found -> false))
  in
  Trace.of_inputs t.model frames

(* ---------- the deepening loop ---------- *)

type round = Cex of Trace.t | Proof | Deeper | Maybe

let cex_at t checker ~target ~depth =
  match Cnf.Checker.satisfiable checker [ target ] with
  | Cnf.Checker.Yes -> Cex (trace_from_model t ~depth ~value:(Cnf.Checker.model_var checker))
  | Cnf.Checker.No -> Deeper
  | Cnf.Checker.Maybe -> Maybe

type result = {
  verdict : Verdict.t;
  trace : Trace.t option;
  depth : int;
  solver : Sat.Solver.stats;
  seconds : float;
}

let pp_result ppf r =
  Format.fprintf ppf "%a depth=%d decisions=%d conflicts=%d %.3fs" Verdict.pp r.verdict r.depth
    r.solver.Sat.Solver.decisions r.solver.Sat.Solver.conflicts r.seconds

let deepen ~limits ~max_depth ~bound model query =
  let watch = Util.Stopwatch.start () in
  let limits = Obs.Limits.arm limits in
  let checker = Cnf.Checker.create ~limits (Netlist.Model.aig model) in
  let at = query checker in
  let finish ?trace verdict depth =
    {
      verdict;
      trace;
      depth;
      solver = Cnf.Checker.solver_stats checker;
      seconds = Util.Stopwatch.elapsed watch;
    }
  in
  let undecided why k = finish (Verdict.Undecided (Printf.sprintf "%s (depth %d)" why k)) k in
  let rec go k =
    match Util.Limits.check limits with
    | Some r -> undecided (Util.Limits.resource_name r) k
    | None when k > max_depth -> finish (Verdict.Undecided bound) max_depth
    | None -> (
      match at k with
      | Cex trace -> finish ~trace (Verdict.Falsified k) k
      | Proof -> finish Verdict.Proved k
      | Deeper -> go (k + 1)
      (* the rounds' queries are exact: only the governor answers Maybe *)
      | Maybe -> undecided (Util.Limits.maybe_reason limits) k)
  in
  go 0
