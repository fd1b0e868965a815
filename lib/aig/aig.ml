type lit = int
type var = int

(* Telemetry (see docs/OBSERVABILITY.md). These sit on the construction
   hot path; the disabled-path cost is one boolean load per event. *)
let obs_strash_hits = Obs.counter "aig.strash_hits"
let obs_rewrites = Obs.counter "aig.rewrites"
let obs_and_nodes = Obs.counter "aig.and_nodes"

(* Node encoding in the two fanin arrays:
   - node 0: the constant, [fanin0 = -2].
   - variable leaf: [fanin0 = -1], [fanin1 = variable index].
   - AND node: both fanins are literals, ordered [fanin0 <= fanin1]. *)
type t = {
  fanin0 : Util.Vec_int.t;
  fanin1 : Util.Vec_int.t;
  levels : Util.Vec_int.t;
  strash : (int * int, int) Hashtbl.t;
  var_nodes : Util.Vec_int.t; (* var index -> node id *)
  mutable ands : int;
  mutable strash_hits : int;
  mutable rewrites : int;
}

let false_ = 0
let true_ = 1
let not_ l = l lxor 1
let node_of_lit l = l lsr 1
let is_complemented l = l land 1 = 1
let lit_of_node n = n lsl 1

let initial_capacity = 1024

let create () =
  let t =
    {
      fanin0 = Util.Vec_int.create ~capacity:initial_capacity ();
      fanin1 = Util.Vec_int.create ~capacity:initial_capacity ();
      levels = Util.Vec_int.create ~capacity:initial_capacity ();
      strash = Hashtbl.create initial_capacity;
      var_nodes = Util.Vec_int.create ();
      ands = 0;
      strash_hits = 0;
      rewrites = 0;
    }
  in
  (* node 0: constant false *)
  Util.Vec_int.push t.fanin0 (-2);
  Util.Vec_int.push t.fanin1 0;
  Util.Vec_int.push t.levels 0;
  t

let num_nodes t = Util.Vec_int.length t.fanin0
let num_ands t = t.ands
let num_vars t = Util.Vec_int.length t.var_nodes

let fresh_var t =
  let v = num_vars t in
  let n = num_nodes t in
  Util.Vec_int.push t.fanin0 (-1);
  Util.Vec_int.push t.fanin1 v;
  Util.Vec_int.push t.levels 0;
  Util.Vec_int.push t.var_nodes n;
  v

let var t v =
  if v < 0 then invalid_arg "Aig.var: negative variable";
  while num_vars t <= v do
    ignore (fresh_var t)
  done;
  lit_of_node (Util.Vec_int.get t.var_nodes v)

let kind0 t n = Util.Vec_int.get t.fanin0 n
let is_const l = node_of_lit l = 0

let var_of_lit t l =
  let n = node_of_lit l in
  if kind0 t n = -1 then Some (Util.Vec_int.get t.fanin1 n) else None

let fanins t n =
  let f0 = Util.Vec_int.get t.fanin0 n in
  if f0 < 0 then invalid_arg "Aig.fanins: not an AND node";
  (f0, Util.Vec_int.get t.fanin1 n)

let level t n = Util.Vec_int.get t.levels n

(* Fanins of a positive, uncomplemented AND literal; None otherwise. *)
let and_fanins_pos t l =
  if is_complemented l then None
  else
    let n = node_of_lit l in
    let f0 = kind0 t n in
    if f0 >= 0 then Some (f0, Util.Vec_int.get t.fanin1 n) else None

(* Fanins of a complemented AND literal. *)
let and_fanins_neg t l =
  if not (is_complemented l) then None
  else
    let n = node_of_lit l in
    let f0 = kind0 t n in
    if f0 >= 0 then Some (f0, Util.Vec_int.get t.fanin1 n) else None

let new_and_node t l0 l1 =
  let n = num_nodes t in
  Util.Vec_int.push t.fanin0 l0;
  Util.Vec_int.push t.fanin1 l1;
  let lv = 1 + max (level t (node_of_lit l0)) (level t (node_of_lit l1)) in
  Util.Vec_int.push t.levels lv;
  Hashtbl.replace t.strash (l0, l1) n;
  t.ands <- t.ands + 1;
  Obs.incr obs_and_nodes;
  lit_of_node n

(* AND construction: trivial rules, two-level rewrite rules (the paper's
   "AIG semi-canonicity"), then strashing. The rewrite rules are the O(1)
   subset of Kuehlmann et al. (DAC'01): contradiction, subsumption,
   idempotence and substitution over one structural level. *)
let rec and_ t a b =
  if a = false_ || b = false_ then false_
  else if a = true_ then b
  else if b = true_ then a
  else if a = b then a
  else if a = not_ b then false_
  else begin
    match rewrite t a b with
    | Some r ->
      t.rewrites <- t.rewrites + 1;
      Obs.incr obs_rewrites;
      r
    | None ->
      let l0, l1 = if a <= b then (a, b) else (b, a) in
      (match Hashtbl.find_opt t.strash (l0, l1) with
      | Some n ->
        t.strash_hits <- t.strash_hits + 1;
        Obs.incr obs_strash_hits;
        lit_of_node n
      | None -> new_and_node t l0 l1)
  end

and rewrite t a b =
  match one_sided t a b with
  | Some _ as r -> r
  | None -> (
    match one_sided t b a with
    | Some _ as r -> r
    | None -> two_sided t a b)

(* Rules where [a] is an AND literal and [b] an arbitrary literal. *)
and one_sided t a b =
  match and_fanins_pos t a with
  | Some (x, y) ->
    if b = not_ x || b = not_ y then Some false_ (* (x&y) & ~x = 0 *)
    else if b = x || b = y then Some a (* (x&y) & x = x&y *)
    else None
  | None -> (
    match and_fanins_neg t a with
    | Some (x, y) ->
      if b = not_ x || b = not_ y then Some b (* ~(x&y) & ~x = ~x *)
      else if b = x then Some (and_ t x (not_ y)) (* substitution *)
      else if b = y then Some (and_ t y (not_ x))
      else None
    | None -> None)

(* Rules needing both operands decomposed. *)
and two_sided t a b =
  match (and_fanins_pos t a, and_fanins_pos t b) with
  | Some (x, y), Some (u, v) ->
    (* (x&y) & (u&v) = 0 when a fanin contradicts another fanin *)
    if x = not_ u || x = not_ v || y = not_ u || y = not_ v then Some false_ else None
  | _ -> (
    match (and_fanins_pos t a, and_fanins_neg t b) with
    | Some (x, y), Some (u, v) ->
      (* (x&y) & ~(u&v) = x&y when x&y already falsifies u&v *)
      if x = not_ u || x = not_ v || y = not_ u || y = not_ v then Some a else None
    | _ -> (
      match (and_fanins_neg t a, and_fanins_pos t b) with
      | Some (u, v), Some (x, y) ->
        if x = not_ u || x = not_ v || y = not_ u || y = not_ v then Some b else None
      | _ -> None))

let or_ t a b = not_ (and_ t (not_ a) (not_ b))
let implies t a b = or_ t (not_ a) b

let xor_ t a b =
  (* a^b = (a|b) & ~(a&b) *)
  and_ t (or_ t a b) (not_ (and_ t a b))

let iff_ t a b = not_ (xor_ t a b)
let ite t c a b = or_ t (and_ t c a) (and_ t (not_ c) b)
let and_list t ls = List.fold_left (and_ t) true_ ls
let or_list t ls = List.fold_left (or_ t) false_ ls

(* Iterative post-order over AND nodes reachable from [roots]; leaves are
   not reported. *)
let cone t roots =
  let visited = Util.Int_tbl.create 64 in
  let order = ref [] in
  let stack = Stack.create () in
  let push_node l =
    let n = node_of_lit l in
    if (not (Util.Int_tbl.mem visited n)) && kind0 t n >= 0 then Stack.push (n, false) stack
  in
  List.iter push_node roots;
  while not (Stack.is_empty stack) do
    let n, expanded = Stack.pop stack in
    if not (Util.Int_tbl.mem visited n) then
      if expanded then begin
        Util.Int_tbl.replace visited n ();
        order := n :: !order
      end
      else begin
        Stack.push (n, true) stack;
        let f0 = Util.Vec_int.get t.fanin0 n and f1 = Util.Vec_int.get t.fanin1 n in
        push_node f1;
        push_node f0
      end
  done;
  List.rev !order

let size_list t roots = List.length (cone t roots)
let size t l = size_list t [ l ]

let support_list t roots =
  let seen_node = Util.Int_tbl.create 64 in
  let vars = Util.Int_tbl.create 16 in
  let stack = Stack.create () in
  let push l =
    let n = node_of_lit l in
    if not (Util.Int_tbl.mem seen_node n) then begin
      Util.Int_tbl.replace seen_node n ();
      Stack.push n stack
    end
  in
  List.iter push roots;
  while not (Stack.is_empty stack) do
    let n = Stack.pop stack in
    let f0 = kind0 t n in
    if f0 = -1 then Util.Int_tbl.replace vars (Util.Vec_int.get t.fanin1 n) ()
    else if f0 >= 0 then begin
      push f0;
      push (Util.Vec_int.get t.fanin1 n)
    end
  done;
  List.sort Int.compare (Util.Int_tbl.fold (fun v () acc -> v :: acc) vars [])

let support t l = support_list t [ l ]
let depends_on t l v = List.mem v (support t l)

(* Generic memoized bottom-up reconstruction of the cone of [root]:
   [leaf n] gives the literal for leaf node [n] (constant or variable);
   AND nodes are rebuilt with [and_] from transformed fanins. Because
   {!cone} yields fanins first, only leaves can be absent from the memo
   when a fanin value is requested. *)
let transform t ~leaf root =
  let memo : lit Util.Int_tbl.t = Util.Int_tbl.create 64 in
  Util.Int_tbl.replace memo 0 false_;
  let value_of l =
    let n = node_of_lit l in
    let v =
      match Util.Int_tbl.find_opt memo n with
      | Some v -> v
      | None ->
        let v = leaf n in
        Util.Int_tbl.replace memo n v;
        v
    in
    v lxor (l land 1)
  in
  List.iter
    (fun n ->
      let f0 = Util.Vec_int.get t.fanin0 n and f1 = Util.Vec_int.get t.fanin1 n in
      Util.Int_tbl.replace memo n (and_ t (value_of f0) (value_of f1)))
    (cone t [ root ]);
  value_of root

let cofactor t l ~v ~phase =
  let leaf n =
    if kind0 t n = -1 && Util.Vec_int.get t.fanin1 n = v then if phase then true_ else false_
    else lit_of_node n
  in
  transform t ~leaf l

let compose t l ~subst =
  let leaf n =
    if kind0 t n = -1 then
      match subst (Util.Vec_int.get t.fanin1 n) with
      | Some replacement -> replacement
      | None -> lit_of_node n
    else lit_of_node n
  in
  transform t ~leaf l

(* Rebuild with node replacements. [repl n] may point at another node whose
   own cone must itself be rebuilt, so the traversal follows replacement
   edges; the substitution map must be acyclic (representatives map to
   themselves). Iterative with an explicit stack: cones can be deeper than
   the call stack (long counter or shift chains). *)
let rebuild t ~repl root =
  let memo : lit Util.Int_tbl.t = Util.Int_tbl.create 64 in
  Util.Int_tbl.replace memo 0 false_;
  let stack = Stack.create () in
  Stack.push (node_of_lit root) stack;
  while not (Stack.is_empty stack) do
    let n = Stack.top stack in
    if Util.Int_tbl.mem memo n then ignore (Stack.pop stack)
    else begin
      let r = repl n in
      if r <> lit_of_node n then begin
        let m = node_of_lit r in
        match Util.Int_tbl.find_opt memo m with
        | Some v ->
          Util.Int_tbl.replace memo n (v lxor (r land 1));
          ignore (Stack.pop stack)
        | None -> Stack.push m stack
      end
      else begin
        let f0 = kind0 t n in
        if f0 = -1 then begin
          Util.Int_tbl.replace memo n (lit_of_node n);
          ignore (Stack.pop stack)
        end
        else begin
          let f1 = Util.Vec_int.get t.fanin1 n in
          let n0 = node_of_lit f0 and n1 = node_of_lit f1 in
          match (Util.Int_tbl.find_opt memo n0, Util.Int_tbl.find_opt memo n1) with
          | Some v0, Some v1 ->
            Util.Int_tbl.replace memo n (and_ t (v0 lxor (f0 land 1)) (v1 lxor (f1 land 1)));
            ignore (Stack.pop stack)
          | m0, m1 ->
            if m0 = None then Stack.push n0 stack;
            if m1 = None then Stack.push n1 stack
        end
      end
    end
  done;
  Util.Int_tbl.find memo (node_of_lit root) lxor (root land 1)

let import t ~source ~subst root =
  let memo : lit Util.Int_tbl.t = Util.Int_tbl.create 64 in
  Util.Int_tbl.replace memo 0 false_;
  let value_of l =
    let n = node_of_lit l in
    let v =
      match Util.Int_tbl.find_opt memo n with
      | Some v -> v
      | None ->
        (* leaf in topological order: must be a variable of the source *)
        let v =
          match var_of_lit source (lit_of_node n) with
          | Some var_index -> subst var_index
          | None -> invalid_arg "Aig.import: malformed source cone"
        in
        Util.Int_tbl.replace memo n v;
        v
    in
    v lxor (l land 1)
  in
  List.iter
    (fun n ->
      let f0, f1 = fanins source n in
      Util.Int_tbl.replace memo n (and_ t (value_of f0) (value_of f1)))
    (cone source [ root ]);
  value_of root

let lit_word l w = if is_complemented l then Int64.lognot w else w

let simulate_cone t nodes words =
  let table : (int, int64) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace table 0 0L;
  let word_of_node n =
    match Hashtbl.find_opt table n with
    | Some w -> w
    | None ->
      (* must be a leaf: AND fanins precede in topological order *)
      let f0 = kind0 t n in
      let w =
        if f0 = -1 then words (Util.Vec_int.get t.fanin1 n)
        else if f0 = -2 then 0L
        else invalid_arg "Aig.simulate_cone: nodes not topologically ordered"
      in
      Hashtbl.replace table n w;
      w
  in
  let word_of_lit l = lit_word l (word_of_node (node_of_lit l)) in
  List.iter
    (fun n ->
      let f0 = Util.Vec_int.get t.fanin0 n and f1 = Util.Vec_int.get t.fanin1 n in
      Hashtbl.replace table n (Int64.logand (word_of_lit f0) (word_of_lit f1)))
    nodes;
  table

(* Compiled cone: a dense renumbering of a cone (constant, leaves and AND
   nodes, ascending node id — which is topological in this monotone
   manager) flattened into instruction arrays, so one 64-lane evaluation
   pass is a tight loop over int arrays with no hashing at all. This is
   the substrate of the bit-parallel simulation engine ([Sweep.Sim]).

   Encoding per dense index [i]:
   - [kind.(i) = -2]: the constant node (word 0).
   - [kind.(i) = -1]: a variable leaf; [aux.(i)] is the variable index.
   - otherwise: an AND node; [kind.(i)] and [aux.(i)] are the two fanins
     as {e dense literals} (dense index * 2 + complement bit). Fanins
     always precede the node, so the loop reads finished slots only. *)
type cone_eval = {
  ce_nodes : int array; (* dense index -> node id, strictly ascending *)
  ce_kind : int array;
  ce_aux : int array;
  ce_index : int Util.Int_tbl.t; (* node id -> dense index *)
}

let compile_cone t ~roots =
  let ands = cone t roots in
  let vars = support_list t roots in
  let ids =
    List.sort_uniq Int.compare
      ((0 :: List.map (fun v -> Util.Vec_int.get t.var_nodes v) vars) @ ands)
  in
  let nodes = Array.of_list ids in
  let n = Array.length nodes in
  let index = Util.Int_tbl.create (2 * n) in
  Array.iteri (fun i id -> Util.Int_tbl.replace index id i) nodes;
  let kind = Array.make n (-2) in
  let aux = Array.make n 0 in
  let dense_lit l = (Util.Int_tbl.find index (node_of_lit l) lsl 1) lor (l land 1) in
  Array.iteri
    (fun i id ->
      let f0 = kind0 t id in
      if f0 = -1 then begin
        kind.(i) <- -1;
        aux.(i) <- Util.Vec_int.get t.fanin1 id
      end
      else if f0 >= 0 then begin
        kind.(i) <- dense_lit f0;
        aux.(i) <- dense_lit (Util.Vec_int.get t.fanin1 id)
      end)
    nodes;
  { ce_nodes = nodes; ce_kind = kind; ce_aux = aux; ce_index = index }

let cone_eval_length ev = Array.length ev.ce_nodes
let cone_eval_node ev i = ev.ce_nodes.(i)

let cone_eval_index ev n =
  match Util.Int_tbl.find_opt ev.ce_index n with Some i -> i | None -> -1

let cone_eval_run ev ~words ~out =
  if Array.length out < Array.length ev.ce_nodes then
    invalid_arg "Aig.cone_eval_run: output array too short";
  let kind = ev.ce_kind and aux = ev.ce_aux in
  for i = 0 to Array.length ev.ce_nodes - 1 do
    let k = Array.unsafe_get kind i in
    if k = -2 then Array.unsafe_set out i 0L
    else if k = -1 then Array.unsafe_set out i (words (Array.unsafe_get aux i))
    else begin
      let w0 = Array.unsafe_get out (k lsr 1) in
      let w0 = if k land 1 = 1 then Int64.lognot w0 else w0 in
      let f1 = Array.unsafe_get aux i in
      let w1 = Array.unsafe_get out (f1 lsr 1) in
      let w1 = if f1 land 1 = 1 then Int64.lognot w1 else w1 in
      Array.unsafe_set out i (Int64.logand w0 w1)
    end
  done

let simulate t l words =
  let table = simulate_cone t (cone t [ l ]) words in
  let n = node_of_lit l in
  let w =
    match Hashtbl.find_opt table n with
    | Some w -> w
    | None -> if kind0 t n = -1 then words (Util.Vec_int.get t.fanin1 n) else 0L
  in
  lit_word l w

let eval t l env =
  let words v = if env v then -1L else 0L in
  Int64.logand (simulate t l words) 1L = 1L

(* Ternary evaluation with two-bit encoding per node: (known, value).
   AND: known when both sides known, or either known-0. *)
let eval3 t l env =
  let table : bool option Util.Int_tbl.t = Util.Int_tbl.create 64 in
  Util.Int_tbl.replace table 0 (Some false);
  let value_of_lit l =
    let v = Util.Int_tbl.find table (node_of_lit l) in
    if is_complemented l then Option.map not v else v
  in
  List.iter
    (fun n ->
      let f0 = Util.Vec_int.get t.fanin0 n and f1 = Util.Vec_int.get t.fanin1 n in
      let fix l =
        let m = node_of_lit l in
        if not (Util.Int_tbl.mem table m) then
          Util.Int_tbl.replace table m (env (Util.Vec_int.get t.fanin1 m))
      in
      fix f0;
      fix f1;
      let value =
        match (value_of_lit f0, value_of_lit f1) with
        | Some false, _ | _, Some false -> Some false
        | Some true, Some true -> Some true
        | None, _ | _, None -> None
      in
      Util.Int_tbl.replace table n value)
    (cone t [ l ]);
  let n = node_of_lit l in
  if not (Util.Int_tbl.mem table n) then
    Util.Int_tbl.replace table n (if kind0 t n = -1 then env (Util.Vec_int.get t.fanin1 n) else Some false);
  value_of_lit l

type stats = { nodes : int; ands : int; vars : int; strash_hits : int; rewrites : int }

let stats t =
  {
    nodes = num_nodes t;
    ands = t.ands;
    vars = num_vars t;
    strash_hits = t.strash_hits;
    rewrites = t.rewrites;
  }
