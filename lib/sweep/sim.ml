let obs_words = Obs.counter "sweep.sim.words"
let obs_bank_lanes = Obs.counter "sweep.sim.bank_lanes"
let obs_bank_refinements = Obs.counter "sweep.sim.bank_refinements"

type t = {
  aig : Aig.t;
  ev : Aig.cone_eval;
  n : int; (* dense slots: constant + leaves + AND nodes *)
  vars : Aig.var list;
  prng : Util.Prng.t;
  mutable sigs : int64 array; (* node-major: word w of slot i at i*cap + w *)
  mutable cap : int; (* allocated words per slot *)
  mutable n_words : int; (* words filled so far *)
  bank_words : int; (* prefix of [0, n_words) seeded from the bank *)
  scratch : int64 array; (* one column, reused by every evaluation *)
  var_words : int64 Util.Int_tbl.t; (* input-word staging, reused *)
  mutable n_refinements : int;
}

let append_word t words =
  if t.n_words = t.cap then begin
    let cap' = 2 * t.cap in
    let sigs' = Array.make (t.n * cap') 0L in
    for i = 0 to t.n - 1 do
      Array.blit t.sigs (i * t.cap) sigs' (i * cap') t.n_words
    done;
    t.sigs <- sigs';
    t.cap <- cap'
  end;
  Aig.cone_eval_run t.ev ~words ~out:t.scratch;
  let w = t.n_words in
  for i = 0 to t.n - 1 do
    t.sigs.((i * t.cap) + w) <- t.scratch.(i)
  done;
  t.n_words <- w + 1;
  Obs.add obs_words t.n

let random_word t =
  Util.Int_tbl.reset t.var_words;
  List.iter (fun v -> Util.Int_tbl.replace t.var_words v (Util.Prng.next64 t.prng)) t.vars;
  fun v -> match Util.Int_tbl.find_opt t.var_words v with Some w -> w | None -> 0L

(* signatures are compared modulo complementation: the phase of a slot is
   bit 0 of its first word in the range, and hashing/equality run over the
   phase-corrected words *)
let phase_of t i from = Int64.logand t.sigs.((i * t.cap) + from) 1L = 1L

let norm_word t i w phase =
  let x = t.sigs.((i * t.cap) + w) in
  if phase then Int64.lognot x else x

let hash_sig t ~from i =
  let phase = phase_of t i from in
  let h = ref 0 in
  for w = from to t.n_words - 1 do
    let x = norm_word t i w phase in
    let xi = Int64.to_int x lxor Int64.to_int (Int64.shift_right_logical x 32) in
    h := Util.Int_tbl.hash_int (!h lxor xi)
  done;
  !h

let equal_norm t ~from i j =
  let pi = phase_of t i from and pj = phase_of t j from in
  let rec go w =
    w >= t.n_words || (Int64.equal (norm_word t i w pi) (norm_word t j w pj) && go (w + 1))
  in
  go from

(* group dense slots by normalized signature: classes in first-appearance
   order, members in ascending slot (= node id) order, exact equality
   resolved inside each hash bucket *)
let partition t ~from =
  let buckets : (int * int list ref) list ref Util.Int_tbl.t = Util.Int_tbl.create (2 * t.n) in
  let order = ref [] in
  for i = 0 to t.n - 1 do
    let h = hash_sig t ~from i in
    let entries =
      match Util.Int_tbl.find_opt buckets h with
      | Some e -> e
      | None ->
        let e = ref [] in
        Util.Int_tbl.replace buckets h e;
        e
    in
    match List.find_opt (fun (rep, _) -> equal_norm t ~from rep i) !entries with
    | Some (_, members) -> members := i :: !members
    | None ->
      let members = ref [ i ] in
      entries := (i, members) :: !entries;
      order := members :: !order
  done;
  List.rev_map (fun members -> List.rev !members) !order |> List.rev

let class_count t ~from = List.length (partition t ~from)

let create ?bank aig ~roots ~rounds ~prng =
  let ev = Aig.compile_cone aig ~roots in
  let n = Aig.cone_eval_length ev in
  let vars = Aig.support_list aig roots in
  let bank_words = match bank with None -> 0 | Some b -> Pattern_bank.n_words b in
  let rounds = max 1 rounds in
  let cap = bank_words + rounds in
  let t =
    {
      aig;
      ev;
      n;
      vars;
      prng;
      sigs = Array.make (n * cap) 0L;
      cap;
      n_words = 0;
      bank_words;
      scratch = Array.make n 0L;
      var_words = Util.Int_tbl.create 64;
      n_refinements = 0;
    }
  in
  (match bank with
  | Some b when bank_words > 0 ->
    for w = 0 to bank_words - 1 do
      append_word t (fun v -> Pattern_bank.word b v w)
    done;
    Obs.add obs_bank_lanes (Pattern_bank.size b)
  | _ -> ());
  for _ = 1 to rounds do
    append_word t (random_word t)
  done;
  (* recycled-counterexample payoff: classes the bank prefix splits beyond
     what the fresh random rounds alone achieve *)
  if t.bank_words > 0 && !Obs.enabled then
    Obs.add obs_bank_refinements
      (max 0 (class_count t ~from:0 - class_count t ~from:t.bank_words));
  t

let nodes t = List.init t.n (Aig.cone_eval_node t.ev)
let vars t = t.vars
let words t = t.n_words
let bank_words t = t.bank_words

let classes t =
  partition t ~from:0
  |> List.filter_map (fun members ->
         match members with
         | _ :: _ :: _ ->
           Some
             (List.map
                (fun i ->
                  let phase = if phase_of t i 0 then 1 else 0 in
                  Aig.lit_of_node (Aig.cone_eval_node t.ev i) lxor phase)
                members)
         | [] | [ _ ] -> None)

let lit_signature t l =
  let i = Aig.cone_eval_index t.ev (Aig.node_of_lit l) in
  if i < 0 then [||]
  else if Aig.is_complemented l then
    Array.init t.n_words (fun w -> Int64.lognot t.sigs.((i * t.cap) + w))
  else Array.init t.n_words (fun w -> t.sigs.((i * t.cap) + w))

let lit_word t l w =
  let i = Aig.cone_eval_index t.ev (Aig.node_of_lit l) in
  if i < 0 || w < 0 || w >= t.n_words then
    invalid_arg "Sim.lit_word: literal outside the simulated cone or word out of range";
  let x = t.sigs.((i * t.cap) + w) in
  if Aig.is_complemented l then Int64.lognot x else x

let same_class t a b =
  let ia = Aig.cone_eval_index t.ev (Aig.node_of_lit a) in
  let ib = Aig.cone_eval_index t.ev (Aig.node_of_lit b) in
  if ia < 0 || ib < 0 then ia < 0 && ib < 0 (* both unknown: both empty signatures *)
  else begin
    let flip = Aig.is_complemented a <> Aig.is_complemented b in
    let rec go w =
      w >= t.n_words
      ||
      let xa = t.sigs.((ia * t.cap) + w) in
      let xb = t.sigs.((ib * t.cap) + w) in
      Int64.equal xa (if flip then Int64.lognot xb else xb) && go (w + 1)
    in
    go 0
  end

let refine t pattern =
  (* lane 0 carries the model; the other 63 lanes are sparse random flips
     of it, turning one counterexample into a neighbourhood of patterns *)
  Util.Int_tbl.reset t.var_words;
  List.iter
    (fun v ->
      let w = ref (if pattern v then -1L else 0L) in
      (* flip each of lanes 1..63 with probability 1/8 *)
      for lane = 1 to 63 do
        if Util.Prng.int t.prng 8 = 0 then w := Int64.logxor !w (Int64.shift_left 1L lane)
      done;
      Util.Int_tbl.replace t.var_words v !w)
    t.vars;
  append_word t (fun v ->
      match Util.Int_tbl.find_opt t.var_words v with Some w -> w | None -> 0L);
  t.n_refinements <- t.n_refinements + 1

let refinements t = t.n_refinements
