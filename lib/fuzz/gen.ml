type property_shape = Clause | Cube | Cone | Mixed

type knobs = {
  min_latches : int;
  max_latches : int;
  min_inputs : int;
  max_inputs : int;
  cone_depth : int;
  and_density : float;
  constant_cones : float;
  duplicate_cones : float;
  property : property_shape;
  property_literals : int;
  shared_subcones : float;
  wide_support : float;
}

let default =
  {
    min_latches = 2;
    max_latches = 5;
    min_inputs = 1;
    max_inputs = 3;
    cone_depth = 4;
    and_density = 0.5;
    constant_cones = 0.15;
    duplicate_cones = 0.2;
    property = Mixed;
    property_literals = 2;
    shared_subcones = 0.0;
    wide_support = 0.0;
  }

let validate_knobs k =
  let prob name p =
    if p < 0.0 || p > 1.0 then Error (Printf.sprintf "%s must be in [0,1], got %g" name p)
    else Ok ()
  in
  let range name lo hi =
    if lo < 0 || hi < lo then Error (Printf.sprintf "%s range [%d,%d] is empty" name lo hi)
    else Ok ()
  in
  let ( let* ) r f = Result.bind r f in
  let* () = range "latch" k.min_latches k.max_latches in
  let* () = range "input" k.min_inputs k.max_inputs in
  let* () = if k.max_latches < 1 then Error "at least one latch is required" else Ok () in
  let* () = if k.cone_depth < 1 then Error "cone_depth must be >= 1" else Ok () in
  let* () = prob "and_density" k.and_density in
  let* () = prob "constant_cones" k.constant_cones in
  let* () = prob "duplicate_cones" k.duplicate_cones in
  let* () = prob "shared_subcones" k.shared_subcones in
  let* () = prob "wide_support" k.wide_support in
  if k.property_literals < 1 then Error "property_literals must be >= 1" else Ok ()

(* one splitmix64 step per index keeps per-model seeds independent of the
   run length *)
let derive_seed ~master i =
  let p = Util.Prng.create (master lxor (i * 0x9E3779B9)) in
  Int64.to_int (Int64.shift_right_logical (Util.Prng.next64 p) 1)

let in_range prng lo hi = lo + if hi > lo then Util.Prng.int prng (hi - lo + 1) else 0

let pick prng pool =
  let l = pool.(Util.Prng.int prng (Array.length pool)) in
  if Util.Prng.bool prng then Aig.not_ l else l

(* a random cone of bounded depth over the pool *)
let rec cone aig prng k ~pool ~depth =
  if depth = 0 || Util.Prng.float prng < 0.25 then pick prng pool
  else
    let a = cone aig prng k ~pool ~depth:(depth - 1) in
    let b = cone aig prng k ~pool ~depth:(depth - 1) in
    let r = Util.Prng.float prng in
    if r < k.and_density then Aig.and_ aig a b
    else if r < k.and_density +. ((1.0 -. k.and_density) /. 2.0) then Aig.or_ aig a b
    else Aig.xor_ aig a b

(* a semantically-false literal the two-level rewrite rules cannot fold:
   ((a & b) & c) & ((a & ~b) & c) — each conjunct shares no fanin pair, so
   the contradiction on [b] sits two levels deep *)
let hidden_false aig prng pool =
  let a = pick prng pool and b = pick prng pool and c = pick prng pool in
  let l = Aig.and_ aig (Aig.and_ aig a b) c in
  let r = Aig.and_ aig (Aig.and_ aig a (Aig.not_ b)) c in
  Aig.and_ aig l r

(* a structurally different rebuild of [f]: (f & t) | (f & ~t) for a random
   leaf [t] — semantically f, but a new cone the sweeper must merge back *)
let redundant_copy aig prng pool f =
  let t = pick prng pool in
  Aig.or_ aig (Aig.and_ aig f t) (Aig.and_ aig f (Aig.not_ t))

(* a mux of xor/xnor over two shared deep subcones: the two select
   cofactors differ only in one polarity buried below the or-of-ands, so
   their Shannon disjunction is a near-tautology the two-level rewrite
   rules cannot fold and the merge phase must find *)
let shared_subcone aig prng k ~pool =
  let sel = pick prng pool in
  let depth = max 1 (k.cone_depth - 1) in
  let y = cone aig prng k ~pool ~depth in
  let z = cone aig prng k ~pool ~depth in
  let xor_ = Aig.or_ aig (Aig.and_ aig y (Aig.not_ z)) (Aig.and_ aig (Aig.not_ y) z) in
  let xnor = Aig.or_ aig (Aig.and_ aig y z) (Aig.and_ aig (Aig.not_ y) (Aig.not_ z)) in
  Aig.or_ aig (Aig.and_ aig sel xor_) (Aig.and_ aig (Aig.not_ sel) xnor)

(* one gate ranging over the whole pool: maximal support width, so every
   cofactor pair spans every variable *)
let wide_cone aig prng pool =
  let lits =
    Array.to_list (Array.map (fun l -> if Util.Prng.bool prng then Aig.not_ l else l) pool)
  in
  if Util.Prng.bool prng then Aig.or_list aig lits else Aig.and_list aig lits

let latch_literal prng latches =
  let q = latches.(Util.Prng.int prng (Array.length latches)) in
  if Util.Prng.bool prng then Aig.not_ q else q

let model ?(knobs = default) ~seed () =
  (match validate_knobs knobs with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fuzz.Gen.model: " ^ msg));
  let master = Util.Prng.create seed in
  let shape_prng = Util.Prng.split master in
  let cones_prng = Util.Prng.split master in
  let prop_prng = Util.Prng.split master in
  let n_latches = max 1 (in_range shape_prng knobs.min_latches knobs.max_latches) in
  let n_inputs = in_range shape_prng knobs.min_inputs knobs.max_inputs in
  let b = Netlist.Builder.create (Printf.sprintf "fuzz-%d" seed) in
  let aig = Netlist.Builder.aig b in
  let inputs = Netlist.Builder.inputs b n_inputs in
  let latches =
    List.init n_latches (fun _ -> Netlist.Builder.latch b ~init:(Util.Prng.bool shape_prng))
  in
  let pool = Array.of_list (inputs @ latches) in
  (* next-state cones, each from its own split stream *)
  let previous = ref [] in
  List.iter
    (fun q ->
      let prng = Util.Prng.split cones_prng in
      let next =
        (* the two shape knobs draw from the stream only when they are
           on, so campaigns with the default knobs reproduce
           seed-for-seed *)
        if knobs.shared_subcones > 0.0 && Util.Prng.float prng < knobs.shared_subcones then
          shared_subcone aig prng knobs ~pool
        else if knobs.wide_support > 0.0 && Util.Prng.float prng < knobs.wide_support then
          wide_cone aig prng pool
        else
        let r = Util.Prng.float prng in
        if r < knobs.constant_cones then
          let zero = hidden_false aig prng pool in
          if Util.Prng.bool prng then Aig.not_ zero else zero
        else if r < knobs.constant_cones +. knobs.duplicate_cones && !previous <> [] then
          let f = List.nth !previous (Util.Prng.int prng (List.length !previous)) in
          redundant_copy aig prng pool f
        else cone aig prng knobs ~pool ~depth:knobs.cone_depth
      in
      previous := next :: !previous;
      Netlist.Builder.connect b q next)
    latches;
  (* the property ranges over latches only, so every engine's final-state
     evaluation (which leaves inputs unconstrained) is well defined *)
  let latch_arr = Array.of_list latches in
  let shape =
    match knobs.property with
    | Mixed -> (
      match Util.Prng.int prop_prng 3 with 0 -> Clause | 1 -> Cube | _ -> Cone)
    | s -> s
  in
  let property =
    match shape with
    | Clause | Mixed ->
      Aig.or_list aig
        (List.init knobs.property_literals (fun _ -> latch_literal prop_prng latch_arr))
    | Cube ->
      Aig.and_list aig
        (List.init knobs.property_literals (fun _ -> latch_literal prop_prng latch_arr))
    | Cone ->
      let lits = Array.of_list latches in
      cone aig prop_prng knobs ~pool:lits ~depth:(min 3 knobs.cone_depth)
  in
  Netlist.Builder.set_property b property;
  Netlist.Builder.finish b
