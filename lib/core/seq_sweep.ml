type report = {
  initial_candidates : int;
  merged_latches : int;
  constant_latches : int;
  rounds : int;
  sat_calls : int;
  latches_before : int;
  latches_after : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "latches %d -> %d (merged=%d const=%d) candidates=%d rounds=%d sat-calls=%d"
    r.latches_before r.latches_after r.merged_latches r.constant_latches r.initial_candidates
    r.rounds r.sat_calls

(* A candidate class: members are (state_var, phase) pairs equal to the
   class function; [Const b] classes assert members stuck at a constant.
   Classes are kept phase-normalized on their first member. *)
type class_kind = Registers | Const of bool

(* 64 parallel runs of [steps] synchronous steps from the initial state;
   the signature of a latch is its value word at every step (step 0 = the
   replicated initial value, so initial-value agreement is implied by
   signature agreement). *)
let simulation_signatures model ~steps ~prng =
  let aig = Netlist.Model.aig model in
  let latches = model.Netlist.Model.latches in
  let state = Hashtbl.create 16 in
  List.iter
    (fun l ->
      Hashtbl.replace state l.Netlist.Model.state_var
        (if l.Netlist.Model.init then -1L else 0L))
    latches;
  let sigs = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace sigs l.Netlist.Model.state_var []) latches;
  for _ = 1 to steps do
    List.iter
      (fun l ->
        let v = l.Netlist.Model.state_var in
        Hashtbl.replace sigs v (Hashtbl.find state v :: Hashtbl.find sigs v))
      latches;
    let input_words = Hashtbl.create 8 in
    List.iter
      (fun v -> Hashtbl.replace input_words v (Util.Prng.next64 prng))
      (Netlist.Model.input_vars model);
    let env v =
      match Hashtbl.find_opt state v with
      | Some w -> w
      | None -> ( match Hashtbl.find_opt input_words v with Some w -> w | None -> 0L)
    in
    let next =
      List.map (fun l -> (l.Netlist.Model.state_var, Aig.simulate aig l.Netlist.Model.next env)) latches
    in
    List.iter (fun (v, w) -> Hashtbl.replace state v w) next
  done;
  fun v -> List.rev (Hashtbl.find sigs v)

let initial_classes model ~steps ~prng =
  let normalize sig_ =
    match sig_ with
    | first :: _ when Int64.logand first 1L = 1L -> (List.map Int64.lognot sig_, 1)
    | _ -> (sig_, 0)
  in
  let signature = simulation_signatures model ~steps ~prng in
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let v = l.Netlist.Model.state_var in
      let key, phase = normalize (signature v) in
      let members = try Hashtbl.find buckets key with Not_found -> [] in
      Hashtbl.replace buckets key ((v, phase) :: members))
    model.Netlist.Model.latches;
  let zero_key = List.init steps (fun _ -> 0L) in
  Hashtbl.fold
    (fun key members acc ->
      let members = List.rev members in
      let kind = if key = zero_key then Some (Const false) else None in
      match (kind, members) with
      | Some (Const _), (_ :: _ as ms) ->
        (* constant-candidate class: members with phase 0 are stuck at 0,
           phase 1 at 1 *)
        (Const false, ms) :: acc
      | None, _ :: _ :: _ -> (Registers, members) :: acc
      | _ -> acc)
    buckets []

(* the assumed-equivalence constraint over the current state *)
let class_constraint aig classes =
  let constraints =
    List.concat_map
      (fun (kind, members) ->
        match (kind, members) with
        | Const b, ms ->
          List.map
            (fun (v, phase) ->
              let lit = Aig.var aig v in
              let lit = if phase = 1 then Aig.not_ lit else lit in
              if b then lit else Aig.not_ lit)
            ms
        | Registers, (rv, rp) :: rest ->
          let rep = Aig.var aig rv lxor rp in
          List.map (fun (v, phase) -> Aig.iff_ aig (Aig.var aig v lxor phase) rep) rest
        | Registers, [] -> [])
      classes
  in
  Aig.and_list aig constraints

(* simulation depth and seed of the initial candidate classes *)
let sim_steps = 16
let sim_seed = 57

let reduce model =
  let aig = Netlist.Model.aig model in
  let prng = Util.Prng.create sim_seed in
  let checker = Cnf.Checker.create aig in
  let next_of =
    let table = Hashtbl.create 16 in
    List.iter
      (fun l -> Hashtbl.replace table l.Netlist.Model.state_var l.Netlist.Model.next)
      model.Netlist.Model.latches;
    fun v -> Hashtbl.find table v
  in
  let classes = ref (initial_classes model ~steps:sim_steps ~prng) in
  let initial_candidates =
    List.fold_left (fun acc (_, ms) -> acc + List.length ms) 0 !classes
  in
  let sat_calls = ref 0 in
  let rounds = ref 0 in
  (* greatest fixpoint: drop members whose next-state value is not forced
     to match under the assumed equivalences *)
  let changed = ref true in
  while !changed do
    changed := false;
    incr rounds;
    let assumption = class_constraint aig !classes in
    let keep_member kind rep_next (v, phase) =
      incr sat_calls;
      let member_next = next_of v in
      let member_next = if phase = 1 then Aig.not_ member_next else member_next in
      let target =
        match kind with
        | Const b -> if b then Aig.not_ member_next else member_next
        | Registers -> Aig.xor_ aig member_next rep_next
      in
      match Cnf.Checker.satisfiable checker [ assumption; target ] with
      | Cnf.Checker.No -> true
      | Cnf.Checker.Yes | Cnf.Checker.Maybe -> false
    in
    classes :=
      List.filter_map
        (fun (kind, members) ->
          match (kind, members) with
          | Const _, ms ->
            let kept = List.filter (keep_member kind Aig.false_) ms in
            if List.length kept < List.length ms then changed := true;
            if kept = [] then None else Some (kind, kept)
          | Registers, ((rv, rp) :: rest as _ms) ->
            let rep_next = if rp = 1 then Aig.not_ (next_of rv) else next_of rv in
            let kept = List.filter (keep_member kind rep_next) rest in
            if List.length kept < List.length rest then changed := true;
            if kept = [] then None else Some (kind, (rv, rp) :: kept)
          | Registers, [] -> None)
        !classes
  done;
  (* build the substitution: merged latch variable -> representative lit *)
  let subst_table = Hashtbl.create 16 in
  let merged = ref 0 and const_merged = ref 0 in
  List.iter
    (fun (kind, members) ->
      match (kind, members) with
      | Const b, ms ->
        List.iter
          (fun (v, phase) ->
            let value = if b then 1 else 0 in
            let lit = if value lxor phase = 1 then Aig.true_ else Aig.false_ in
            Hashtbl.replace subst_table v lit;
            incr const_merged)
          ms
      | Registers, (rv, rp) :: rest ->
        let rep = Aig.var aig rv lxor rp in
        List.iter
          (fun (v, phase) ->
            Hashtbl.replace subst_table v (rep lxor phase);
            incr merged)
          rest
      | Registers, [] -> ())
    !classes;
  let subst v = Hashtbl.find_opt subst_table v in
  let latches' =
    List.filter_map
      (fun l ->
        if Hashtbl.mem subst_table l.Netlist.Model.state_var then None
        else
          Some { l with Netlist.Model.next = Aig.compose aig l.Netlist.Model.next ~subst })
      model.Netlist.Model.latches
  in
  let property' = Aig.compose aig model.Netlist.Model.property ~subst in
  let reduced =
    {
      model with
      Netlist.Model.name = model.Netlist.Model.name ^ "-swept";
      latches = latches';
      property = property';
    }
  in
  let report =
    {
      initial_candidates;
      merged_latches = !merged;
      constant_latches = !const_merged;
      rounds = !rounds;
      sat_calls = !sat_calls;
      latches_before = List.length model.Netlist.Model.latches;
      latches_after = List.length latches';
    }
  in
  (reduced, report)
