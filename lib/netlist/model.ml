type latch = { state_var : Aig.var; next : Aig.lit; init : bool }

type t = {
  name : string;
  aig : Aig.t;
  inputs : Aig.var list;
  latches : latch list;
  property : Aig.lit;
}

let name m = m.name
let aig m = m.aig
let input_vars m = m.inputs
let state_vars m = List.map (fun l -> l.state_var) m.latches
let num_inputs m = List.length m.inputs
let num_latches m = List.length m.latches

let init_lit m =
  let conj =
    List.map
      (fun l ->
        let v = Aig.var m.aig l.state_var in
        if l.init then v else Aig.not_ v)
      m.latches
  in
  Aig.and_list m.aig conj

let latch_of m v = List.find_opt (fun l -> l.state_var = v) m.latches

let next_subst m v =
  match latch_of m v with Some l -> Some l.next | None -> None

let validate m =
  let declared = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace declared v `Input) m.inputs;
  let dup = ref None in
  List.iter
    (fun l ->
      if Hashtbl.mem declared l.state_var then dup := Some l.state_var
      else Hashtbl.replace declared l.state_var `State)
    m.latches;
  match !dup with
  | Some v -> Error (Printf.sprintf "variable %d declared twice" v)
  | None ->
    let undeclared lits =
      List.find_opt (fun v -> not (Hashtbl.mem declared v)) (Aig.support_list m.aig lits)
    in
    let offence (what, lit) =
      Option.map (Printf.sprintf "%s depends on undeclared variable %d" what) (undeclared [ lit ])
    in
    if undeclared (m.property :: List.map (fun l -> l.next) m.latches) = None then Ok ()
    else
      (* one pass over every root above; only a failing model pays to
         name the first offending one, latches before the property *)
      let latch_roots =
        List.map (fun l -> (Printf.sprintf "latch %d next-state" l.state_var, l.next)) m.latches
      in
      Error (Option.get (List.find_map offence (latch_roots @ [ ("property", m.property) ])))

let eval_step m ~state ~inputs =
  let env v =
    match latch_of m v with Some _ -> state v | None -> inputs v
  in
  let values =
    List.map (fun l -> (l.state_var, Aig.eval m.aig l.next env)) m.latches
  in
  fun v -> (try List.assoc v values with Not_found -> false)

let property_holds m ~state =
  Aig.eval m.aig m.property (fun v -> match latch_of m v with Some _ -> state v | None -> false)

let init_state m v = match latch_of m v with Some l -> l.init | None -> false

type stats = { inputs : int; latches : int; property_size : int; next_size : int }

let stats m =
  {
    inputs = num_inputs m;
    latches = num_latches m;
    property_size = Aig.size m.aig m.property;
    next_size = Aig.size_list m.aig (List.map (fun l -> l.next) m.latches);
  }

let pp_stats ppf s =
  Format.fprintf ppf "inputs=%d latches=%d property-ands=%d next-ands=%d" s.inputs s.latches
    s.property_size s.next_size
