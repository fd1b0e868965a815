type node = int
type var = int

exception Node_limit

(* Terminals: node 0 = false, node 1 = true, with a sentinel variable larger
   than any real one so that terminal tests fall out of the var order. *)
let zero = 0
let one = 1
let terminal_var = max_int

type t = {
  vars : Util.Vec_int.t;
  lows : Util.Vec_int.t;
  highs : Util.Vec_int.t;
  unique : (int * int * int, int) Hashtbl.t;
  cache : (int * int * int * int, int) Hashtbl.t;
  mutable limit : int; (* max total nodes; max_int when unlimited *)
  (* Called every [poll_interval] fresh allocations so long-running
     constructions stay interruptible (the callback escapes by raising);
     [ignore] when nobody is watching. *)
  mutable poll : unit -> unit;
  mutable poll_fuel : int;
}

let poll_interval = 4096

let initial_capacity = 1024

let create () =
  let t =
    {
      vars = Util.Vec_int.create ~capacity:initial_capacity ();
      lows = Util.Vec_int.create ~capacity:initial_capacity ();
      highs = Util.Vec_int.create ~capacity:initial_capacity ();
      unique = Hashtbl.create initial_capacity;
      cache = Hashtbl.create initial_capacity;
      limit = max_int;
      poll = ignore;
      poll_fuel = poll_interval;
    }
  in
  let push_terminal () =
    Util.Vec_int.push t.vars terminal_var;
    Util.Vec_int.push t.lows 0;
    Util.Vec_int.push t.highs 0
  in
  push_terminal ();
  push_terminal ();
  t

let num_nodes t = Util.Vec_int.length t.vars
let is_terminal n = n <= 1

let topvar t n =
  if is_terminal n then invalid_arg "Bdd.topvar: terminal";
  Util.Vec_int.get t.vars n

let low t n =
  if is_terminal n then invalid_arg "Bdd.low: terminal";
  Util.Vec_int.get t.lows n

let high t n =
  if is_terminal n then invalid_arg "Bdd.high: terminal";
  Util.Vec_int.get t.highs n

let var_of t n = Util.Vec_int.get t.vars n

let mk t v lo hi =
  if lo = hi then lo
  else
    match Hashtbl.find_opt t.unique (v, lo, hi) with
    | Some n -> n
    | None ->
      let n = num_nodes t in
      if n >= t.limit then raise Node_limit;
      t.poll_fuel <- t.poll_fuel - 1;
      if t.poll_fuel <= 0 then begin
        t.poll_fuel <- poll_interval;
        t.poll ()
      end;
      Util.Vec_int.push t.vars v;
      Util.Vec_int.push t.lows lo;
      Util.Vec_int.push t.highs hi;
      Hashtbl.replace t.unique (v, lo, hi) n;
      n

let var_node t v =
  if v < 0 || v >= terminal_var then invalid_arg "Bdd.var_node: bad variable";
  mk t v zero one

(* Operation tags for the computed table. Quantification, restriction and
   composition use per-call memo tables instead (their extra parameter does
   not fit an int key). *)
let op_and = 0
let op_xor = 1
let op_not = 2
let op_ite = 3

let rec not_ t n =
  if n = zero then one
  else if n = one then zero
  else
    let key = (op_not, n, 0, 0) in
    match Hashtbl.find_opt t.cache key with
    | Some r -> r
    | None ->
      let r = mk t (var_of t n) (not_ t (low t n)) (not_ t (high t n)) in
      Hashtbl.replace t.cache key r;
      r

let rec and_ t a b =
  if a = zero || b = zero then zero
  else if a = one then b
  else if b = one then a
  else if a = b then a
  else
    let a, b = if a <= b then (a, b) else (b, a) in
    let key = (op_and, a, b, 0) in
    match Hashtbl.find_opt t.cache key with
    | Some r -> r
    | None ->
      let va = var_of t a and vb = var_of t b in
      let v = min va vb in
      let a0, a1 = if va = v then (low t a, high t a) else (a, a) in
      let b0, b1 = if vb = v then (low t b, high t b) else (b, b) in
      let r = mk t v (and_ t a0 b0) (and_ t a1 b1) in
      Hashtbl.replace t.cache key r;
      r

let or_ t a b = not_ t (and_ t (not_ t a) (not_ t b))

let rec xor_ t a b =
  if a = b then zero
  else if a = zero then b
  else if b = zero then a
  else if a = one then not_ t b
  else if b = one then not_ t a
  else
    let a, b = if a <= b then (a, b) else (b, a) in
    let key = (op_xor, a, b, 0) in
    match Hashtbl.find_opt t.cache key with
    | Some r -> r
    | None ->
      let va = var_of t a and vb = var_of t b in
      let v = min va vb in
      let a0, a1 = if va = v then (low t a, high t a) else (a, a) in
      let b0, b1 = if vb = v then (low t b, high t b) else (b, b) in
      let r = mk t v (xor_ t a0 b0) (xor_ t a1 b1) in
      Hashtbl.replace t.cache key r;
      r

let iff_ t a b = not_ t (xor_ t a b)
let implies t a b = or_ t (not_ t a) b

let rec ite t c g h =
  if c = one then g
  else if c = zero then h
  else if g = h then g
  else if g = one && h = zero then c
  else
    let key = (op_ite, c, g, h) in
    match Hashtbl.find_opt t.cache key with
    | Some r -> r
    | None ->
      let vc = var_of t c and vg = var_of t g and vh = var_of t h in
      let v = min vc (min vg vh) in
      let split n vn = if vn = v then (low t n, high t n) else (n, n) in
      let c0, c1 = split c vc and g0, g1 = split g vg and h0, h1 = split h vh in
      let r = mk t v (ite t c0 g0 h0) (ite t c1 g1 h1) in
      Hashtbl.replace t.cache key r;
      r

(* Quantification shares one recursion parameterized by the combiner; the
   cache key distinguishes exists/forall but cannot capture the [vars]
   predicate, so each call uses a fresh local memo keyed by node. *)
let quantify t ~combine vars n =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go n =
    if is_terminal n then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let v = var_of t n in
        let lo = go (low t n) and hi = go (high t n) in
        let r = if vars v then combine t lo hi else mk t v lo hi in
        Hashtbl.replace memo n r;
        r
  in
  go n

let exists t vars n = quantify t ~combine:or_ vars n
let forall t vars n = quantify t ~combine:and_ vars n

let restrict t n ~v ~phase =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go n =
    if is_terminal n then n
    else if var_of t n > v then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let r =
          if var_of t n = v then if phase then high t n else low t n
          else mk t (var_of t n) (go (low t n)) (go (high t n))
        in
        Hashtbl.replace memo n r;
        r
  in
  go n

let compose t n ~subst =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go n =
    if is_terminal n then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let v = var_of t n in
        let lo = go (low t n) and hi = go (high t n) in
        let selector =
          match subst v with Some b -> b | None -> var_node t v
        in
        let r = ite t selector hi lo in
        Hashtbl.replace memo n r;
        r
  in
  go n

let support t n =
  let seen = Hashtbl.create 16 in
  let vars = Hashtbl.create 16 in
  let rec go n =
    if (not (is_terminal n)) && not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      Hashtbl.replace vars (var_of t n) ();
      go (low t n);
      go (high t n)
    end
  in
  go n;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let size t n =
  let seen = Hashtbl.create 16 in
  let rec go n acc =
    if is_terminal n || Hashtbl.mem seen n then acc
    else begin
      Hashtbl.replace seen n ();
      go (high t n) (go (low t n) (acc + 1))
    end
  in
  go n 0

let sat_count t n ~nvars =
  let memo : (int, float) Hashtbl.t = Hashtbl.create 64 in
  (* fraction of assignments over all variables that satisfy the cone *)
  let rec frac n =
    if n = zero then 0.0
    else if n = one then 1.0
    else
      match Hashtbl.find_opt memo n with
      | Some f -> f
      | None ->
        let f = 0.5 *. (frac (low t n) +. frac (high t n)) in
        Hashtbl.replace memo n f;
        f
  in
  frac n *. (2.0 ** float_of_int nvars)

let any_sat t n =
  if n = zero then None
  else
    let rec go n acc =
      if n = one then acc
      else
        let v = var_of t n in
        if high t n <> zero then go (high t n) ((v, true) :: acc)
        else go (low t n) ((v, false) :: acc)
    in
    Some (List.rev (go n []))

let eval t n env =
  let rec go n = if n = zero then false else if n = one then true else go (if env (var_of t n) then high t n else low t n) in
  go n

let with_limit t ?poll ~max_nodes f =
  let saved_limit = t.limit in
  let saved_poll = t.poll in
  t.limit <- max_nodes;
  (match poll with Some p -> t.poll <- p | None -> ());
  let restore () =
    t.limit <- saved_limit;
    t.poll <- saved_poll
  in
  match f () with
  | r ->
    restore ();
    Ok r
  | exception Node_limit ->
    restore ();
    Error `Node_limit
  | exception e ->
    restore ();
    raise e

let pp t ppf n =
  let rec go ppf n =
    if n = zero then Format.pp_print_string ppf "F"
    else if n = one then Format.pp_print_string ppf "T"
    else Format.fprintf ppf "(x%d ? %a : %a)" (var_of t n) go (high t n) go (low t n)
  in
  go ppf n
