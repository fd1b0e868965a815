type result = Sat | Unsat | Unknown

(* Telemetry: per-solve-call accounting, flushed as deltas when a call
   returns so the inner CDCL loops stay untouched (the factorized
   SAT-merge discipline makes "one solve call" = "one equivalence /
   containment check", which is the granularity the histograms record). *)
let obs_solve_calls = Obs.counter "sat.solve_calls"
let obs_decisions = Obs.counter "sat.decisions"
let obs_propagations = Obs.counter "sat.propagations"
let obs_binary_propagations = Obs.counter "sat.binary_propagations"
let obs_conflicts = Obs.counter "sat.conflicts"
let obs_restarts = Obs.counter "sat.restarts"
let obs_gc_runs = Obs.counter "sat.gc.runs"
let obs_gc_words = Obs.counter "sat.gc.words_reclaimed"
let obs_db_reductions = Obs.counter "sat.db_reductions"
let obs_learnt_deleted = Obs.counter "sat.learnt_deleted"
let obs_solve_span = Obs.span "sat.solve"
let obs_conflicts_per_call = Obs.histogram "sat.conflicts_per_call"
let obs_decisions_per_call = Obs.histogram "sat.decisions_per_call"
let obs_propagations_per_call = Obs.histogram "sat.propagations_per_call"
let obs_lbd = Obs.histogram "sat.lbd"

(* ---------- encodings ----------

   Literals are [2*var + sign] (see {!Lit}).

   Long clauses (>= 3 literals) live in a flat int arena. A clause
   reference [CRef] is the word index of its 3-word header:

     arena.(c)     header: bit0 learnt, bit1 deleted, size lsl 2
     arena.(c+1)   LBD (learnt) — reused as the forwarding pointer
                   during arena GC
     arena.(c+2)   activity, stored as Int32 float bits
     arena.(c+3 ..)  the literals; slots 0 and 1 are the watched pair

   Clauses are allocated contiguously, so [c + 3 + size] is the next
   header and the whole arena can be walked without an index.

   Binary clauses never enter the arena: [bin.(p)] lists every literal
   [q] with a clause [(¬p ∨ q)], i.e. the implication p → q.

   Reasons are tagged ints: -1 none/decision; even = [cref lsl 1];
   odd = [(other_lit lsl 1) lor 1] for a binary reason where
   [other_lit] is the falsified partner literal.

   Conflicts from [propagate] use the same tagging: -1 none;
   even = arena clause; 1 = binary conflict with the two false
   literals stashed in [confl_bin_a]/[confl_bin_b]. *)

let cl_size h = h lsr 2
let cl_learnt h = h land 1 <> 0
let cl_deleted h = h land 2 <> 0
let hdr ~size ~learnt = (size lsl 2) lor (if learnt then 1 else 0)

type t = {
  (* long-clause arena *)
  mutable arena : int array;
  mutable arena_size : int;
  mutable arena_waste : int; (* words held by deleted clauses *)
  mutable n_long : int; (* live problem clauses in the arena *)
  mutable n_learnt : int; (* live learnt clauses in the arena *)
  mutable n_bin : int; (* live binary clauses (logical count) *)
  (* watches.(l) = stride-2 pairs (cref, blocker) watching literal l *)
  mutable watches : Util.Vec_int.t array;
  (* bin.(p) = implied literals of binary clauses (¬p ∨ q) *)
  mutable bin : Util.Vec_int.t array;
  (* per-variable state *)
  mutable assigns : int array; (* -1 unknown / 0 false / 1 true *)
  mutable levels : int array;
  mutable reasons : int array; (* tagged; see above *)
  mutable activities : float array;
  mutable saved_phase : bool array;
  mutable seen : bool array;
  mutable heap_pos : int array;
  mutable nvars : int;
  heap : Util.Vec_int.t;
  trail : Util.Vec_int.t;
  trail_lim : Util.Vec_int.t;
  mutable qhead : int;
  mutable ok : bool;
  mutable model : int array;
  mutable failed : int list; (* assumption core of the last Unsat answer *)
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable max_learnt : int;
  mutable confl_bin_a : int; (* binary-conflict literal stash *)
  mutable confl_bin_b : int;
  (* incremental state *)
  mutable prev_assumptions : int array; (* last call's assumptions *)
  mutable reuse_ok : bool; (* trail still matches prev_assumptions *)
  (* statistics *)
  mutable decisions : int;
  mutable propagations : int;
  mutable binary_propagations : int;
  mutable conflicts : int;
  mutable restarts : int;
  mutable learnt_literals : int;
  mutable minimized_literals : int;
  mutable gc_runs : int;
  mutable gc_words : int;
  mutable db_reductions : int;
  mutable learnt_deleted : int;
}

let var_decay = 1.0 /. 0.95
let clause_decay = 1.0 /. 0.999
let restart_base = 64

let create () =
  {
    arena = Array.make 1024 0;
    arena_size = 0;
    arena_waste = 0;
    n_long = 0;
    n_learnt = 0;
    n_bin = 0;
    watches = Array.init 2 (fun _ -> Util.Vec_int.create ());
    bin = Array.init 2 (fun _ -> Util.Vec_int.create ());
    assigns = Array.make 1 (-1);
    levels = Array.make 1 0;
    reasons = Array.make 1 (-1);
    activities = Array.make 1 0.0;
    saved_phase = Array.make 1 false;
    seen = Array.make 1 false;
    heap_pos = Array.make 1 (-1);
    nvars = 0;
    heap = Util.Vec_int.create ();
    trail = Util.Vec_int.create ();
    trail_lim = Util.Vec_int.create ();
    qhead = 0;
    ok = true;
    model = [||];
    failed = [];
    var_inc = 1.0;
    cla_inc = 1.0;
    max_learnt = 2000;
    confl_bin_a = -1;
    confl_bin_b = -1;
    prev_assumptions = [||];
    reuse_ok = false;
    decisions = 0;
    propagations = 0;
    binary_propagations = 0;
    conflicts = 0;
    restarts = 0;
    learnt_literals = 0;
    minimized_literals = 0;
    gc_runs = 0;
    gc_words = 0;
    db_reductions = 0;
    learnt_deleted = 0;
  }

let num_vars t = t.nvars
let ok t = t.ok
let set_learnt_budget t n = t.max_learnt <- max 0 n

(* ---------- variable order heap (max-heap on activity) ---------- *)

let heap_lt t v w = t.activities.(v) > t.activities.(w)

let heap_swap t i j =
  let vi = Util.Vec_int.get t.heap i and vj = Util.Vec_int.get t.heap j in
  Util.Vec_int.set t.heap i vj;
  Util.Vec_int.set t.heap j vi;
  t.heap_pos.(vi) <- j;
  t.heap_pos.(vj) <- i

let rec heap_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_lt t (Util.Vec_int.get t.heap i) (Util.Vec_int.get t.heap parent) then begin
      heap_swap t i parent;
      heap_up t parent
    end
  end

let rec heap_down t i =
  let n = Util.Vec_int.length t.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < n && heap_lt t (Util.Vec_int.get t.heap l) (Util.Vec_int.get t.heap !best) then best := l;
  if r < n && heap_lt t (Util.Vec_int.get t.heap r) (Util.Vec_int.get t.heap !best) then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    Util.Vec_int.push t.heap v;
    t.heap_pos.(v) <- Util.Vec_int.length t.heap - 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = Util.Vec_int.get t.heap 0 in
  let n = Util.Vec_int.length t.heap in
  heap_swap t 0 (n - 1);
  ignore (Util.Vec_int.pop t.heap);
  t.heap_pos.(v) <- -1;
  if not (Util.Vec_int.is_empty t.heap) then heap_down t 0;
  v

(* ---------- variables ---------- *)

let grow_arrays t needed =
  let cap = Array.length t.assigns in
  if needed > cap then begin
    let cap' = max needed (cap * 2) in
    let grow_int a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 t.nvars;
      a'
    in
    t.assigns <- grow_int t.assigns (-1);
    t.levels <- grow_int t.levels 0;
    t.reasons <- grow_int t.reasons (-1);
    t.heap_pos <- grow_int t.heap_pos (-1);
    let act' = Array.make cap' 0.0 in
    Array.blit t.activities 0 act' 0 t.nvars;
    t.activities <- act';
    let ph' = Array.make cap' false in
    Array.blit t.saved_phase 0 ph' 0 t.nvars;
    t.saved_phase <- ph';
    let sn' = Array.make cap' false in
    Array.blit t.seen 0 sn' 0 t.nvars;
    t.seen <- sn'
  end

let new_var t =
  let v = t.nvars in
  grow_arrays t (v + 1);
  t.assigns.(v) <- -1;
  t.levels.(v) <- 0;
  t.reasons.(v) <- -1;
  t.activities.(v) <- 0.0;
  t.saved_phase.(v) <- false;
  t.seen.(v) <- false;
  t.heap_pos.(v) <- -1;
  t.nvars <- v + 1;
  (* watcher and binary lists for both phases *)
  let nw = 2 * t.nvars in
  if nw > Array.length t.watches then begin
    let cap = max nw (2 * Array.length t.watches) in
    let w' = Array.init cap (fun _ -> Util.Vec_int.create ()) in
    Array.blit t.watches 0 w' 0 (2 * v);
    t.watches <- w';
    let b' = Array.init cap (fun _ -> Util.Vec_int.create ()) in
    Array.blit t.bin 0 b' 0 (2 * v);
    t.bin <- b'
  end;
  heap_insert t v;
  v

(* literal value: -1 unknown / 0 false / 1 true *)
let value_lit t l =
  let a = t.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level t = Util.Vec_int.length t.trail_lim

(* ---------- activity ---------- *)

let bump_var t v =
  t.activities.(v) <- t.activities.(v) +. t.var_inc;
  if t.activities.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activities.(i) <- t.activities.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

let decay_var_activity t = t.var_inc <- t.var_inc *. var_decay

(* clause activities live in one header word as Int32 float bits; the
   reduced precision is irrelevant for a tie-breaking heuristic *)
let clause_act t c = Int32.float_of_bits (Int32.of_int t.arena.(c + 2))
let set_clause_act t c f = t.arena.(c + 2) <- Int32.to_int (Int32.bits_of_float f)

let bump_clause t c =
  let a = clause_act t c +. t.cla_inc in
  set_clause_act t c a;
  if a > 1e20 then begin
    let i = ref 0 in
    while !i < t.arena_size do
      let h = t.arena.(!i) in
      if cl_learnt h then set_clause_act t !i (clause_act t !i *. 1e-20);
      i := !i + 3 + cl_size h
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay_clause_activity t = t.cla_inc <- t.cla_inc *. clause_decay

(* ---------- arena primitives ---------- *)

let arena_alloc t size =
  let need = 3 + size in
  let cap = Array.length t.arena in
  if t.arena_size + need > cap then begin
    let a = Array.make (max (t.arena_size + need) (2 * cap)) 0 in
    Array.blit t.arena 0 a 0 t.arena_size;
    t.arena <- a
  end;
  let c = t.arena_size in
  t.arena_size <- t.arena_size + need;
  c

let watch t l cref blocker =
  let ws = t.watches.(l) in
  Util.Vec_int.push ws cref;
  Util.Vec_int.push ws blocker

let new_clause t lits ~learnt ~lbd =
  let size = Array.length lits in
  let c = arena_alloc t size in
  t.arena.(c) <- hdr ~size ~learnt;
  t.arena.(c + 1) <- lbd;
  set_clause_act t c 0.0;
  Array.blit lits 0 t.arena (c + 3) size;
  watch t lits.(0) c lits.(1);
  watch t lits.(1) c lits.(0);
  if learnt then t.n_learnt <- t.n_learnt + 1 else t.n_long <- t.n_long + 1;
  c

let delete_clause t c =
  let h = t.arena.(c) in
  t.arena.(c) <- h lor 2;
  t.arena_waste <- t.arena_waste + 3 + cl_size h;
  if cl_learnt h then begin
    t.n_learnt <- t.n_learnt - 1;
    t.learnt_deleted <- t.learnt_deleted + 1
  end
  else t.n_long <- t.n_long - 1

let add_bin t a b =
  Util.Vec_int.push t.bin.(a lxor 1) b;
  Util.Vec_int.push t.bin.(b lxor 1) a;
  t.n_bin <- t.n_bin + 1

(* ---------- assignment ---------- *)

let enqueue t l reason =
  let v = l lsr 1 in
  t.assigns.(v) <- (l land 1) lxor 1;
  t.levels.(v) <- Util.Vec_int.length t.trail_lim;
  (* level-0 facts need no reason (analysis never looks at level 0), so
     none is kept: every clause-tagged reason on the trail then belongs
     to a locked clause above level 0, which GC's remapping relies on *)
  t.reasons.(v) <- (if Util.Vec_int.is_empty t.trail_lim then -1 else reason);
  Util.Vec_int.push t.trail l

let cancel_until t level =
  if decision_level t > level then begin
    let bound = Util.Vec_int.get t.trail_lim level in
    for i = Util.Vec_int.length t.trail - 1 downto bound do
      let l = Util.Vec_int.get t.trail i in
      let v = l lsr 1 in
      t.saved_phase.(v) <- t.assigns.(v) = 1;
      t.assigns.(v) <- -1;
      t.reasons.(v) <- -1;
      heap_insert t v
    done;
    Util.Vec_int.resize t.trail bound 0;
    Util.Vec_int.resize t.trail_lim level 0;
    t.qhead <- bound
  end

(* ---------- propagation ---------- *)

(* Propagate all enqueued facts; returns a tagged conflict descriptor
   or -1. Watch invariants: a live arena clause sits in exactly the
   watch lists of its slot-0 and slot-1 literals; each watch entry
   carries a blocker literal whose truth proves the clause satisfied
   without touching the arena. The binary layer is scanned first —
   every implication there is a single array read. *)
let propagate t =
  let confl = ref (-1) in
  while !confl < 0 && t.qhead < Util.Vec_int.length t.trail do
    let p = Util.Vec_int.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    (* binary layer: p -> q for every clause (¬p ∨ q) *)
    let bl = t.bin.(p) in
    let nb = Util.Vec_int.length bl in
    let k = ref 0 in
    while !confl < 0 && !k < nb do
      let q = Util.Vec_int.get bl !k in
      incr k;
      match value_lit t q with
      | 1 -> ()
      | -1 ->
        t.binary_propagations <- t.binary_propagations + 1;
        enqueue t q (((p lxor 1) lsl 1) lor 1)
      | _ ->
        t.confl_bin_a <- q;
        t.confl_bin_b <- p lxor 1;
        confl := 1;
        t.qhead <- Util.Vec_int.length t.trail
    done;
    if !confl < 0 then begin
      let falsified = p lxor 1 in
      let ws = t.watches.(falsified) in
      let n = Util.Vec_int.length ws in
      let arena = t.arena in
      let i = ref 0 and j = ref 0 in
      while !i < n do
        let c = Util.Vec_int.get ws !i in
        let blocker = Util.Vec_int.get ws (!i + 1) in
        i := !i + 2;
        if value_lit t blocker = 1 then begin
          Util.Vec_int.set ws !j c;
          Util.Vec_int.set ws (!j + 1) blocker;
          j := !j + 2
        end
        else begin
          let h = arena.(c) in
          if cl_deleted h then () (* lazily dropped *)
          else if !confl >= 0 then begin
            Util.Vec_int.set ws !j c;
            Util.Vec_int.set ws (!j + 1) blocker;
            j := !j + 2
          end
          else begin
            let base = c + 3 in
            (* falsified literal to slot 1 *)
            if arena.(base) = falsified then begin
              arena.(base) <- arena.(base + 1);
              arena.(base + 1) <- falsified
            end;
            let first = arena.(base) in
            if first <> blocker && value_lit t first = 1 then begin
              Util.Vec_int.set ws !j c;
              Util.Vec_int.set ws (!j + 1) first;
              j := !j + 2
            end
            else begin
              let size = cl_size h in
              let m = ref 2 in
              while !m < size && value_lit t arena.(base + !m) = 0 do
                incr m
              done;
              if !m < size then begin
                (* new watch found: migrate this entry *)
                arena.(base + 1) <- arena.(base + !m);
                arena.(base + !m) <- falsified;
                watch t arena.(base + 1) c first
              end
              else begin
                (* unit or conflicting *)
                Util.Vec_int.set ws !j c;
                Util.Vec_int.set ws (!j + 1) first;
                j := !j + 2;
                if value_lit t first = 0 then begin
                  confl := c lsl 1;
                  t.qhead <- Util.Vec_int.length t.trail
                end
                else enqueue t first (c lsl 1)
              end
            end
          end
        end
      done;
      Util.Vec_int.resize ws !j 0
    end
  done;
  !confl

(* ---------- conflict analysis (first UIP) ---------- *)

let litredundant t cl_mask q =
  (* cheap non-recursive minimization: q is redundant when its reason's
     other literals are all already in the learnt clause or at level 0 *)
  let ok_lit l =
    let v = l lsr 1 in
    v = q lsr 1 || t.levels.(v) = 0 || (t.seen.(v) && Hashtbl.mem cl_mask t.levels.(v))
  in
  let r = t.reasons.(q lsr 1) in
  if r < 0 then false
  else if r land 1 = 1 then ok_lit (r lsr 1)
  else begin
    let c = r lsr 1 in
    let size = cl_size t.arena.(c) in
    let rec check k = k >= size || (ok_lit t.arena.(c + 3 + k) && check (k + 1)) in
    check 0
  end

let analyze t confl0 =
  let learnt = Util.Vec_int.create () in
  Util.Vec_int.push learnt 0;
  (* slot for the asserting literal *)
  let to_clear = Util.Vec_int.create () in
  let path = ref 0 in
  let p = ref (-1) in
  let index = ref (Util.Vec_int.length t.trail - 1) in
  let confl = ref confl0 in
  let continue = ref true in
  let see q =
    let v = q lsr 1 in
    if (not t.seen.(v)) && t.levels.(v) > 0 then begin
      t.seen.(v) <- true;
      Util.Vec_int.push to_clear v;
      bump_var t v;
      if t.levels.(v) >= decision_level t then incr path else Util.Vec_int.push learnt q
    end
  in
  while !continue do
    (if !confl land 1 = 0 then begin
       (* long clause in the arena *)
       let c = !confl lsr 1 in
       let h = t.arena.(c) in
       if cl_learnt h then bump_clause t c;
       let start = if !p = -1 then 0 else 1 in
       for k = start to cl_size h - 1 do
         see t.arena.(c + 3 + k)
       done
     end
     else if !p = -1 then begin
       (* binary conflict: both stashed false literals *)
       see t.confl_bin_a;
       see t.confl_bin_b
     end
     else
       (* binary reason: the one non-implied literal *)
       see (!confl lsr 1));
    (* next literal on the trail that participates in the conflict *)
    while not t.seen.(Util.Vec_int.get t.trail !index lsr 1) do
      decr index
    done;
    p := Util.Vec_int.get t.trail !index;
    decr index;
    decr path;
    t.seen.(!p lsr 1) <- false;
    if !path > 0 then confl := t.reasons.(!p lsr 1) else continue := false
  done;
  Util.Vec_int.set learnt 0 (!p lxor 1);
  (* clause minimization *)
  let levels_mask = Hashtbl.create 16 in
  Util.Vec_int.iter (fun q -> Hashtbl.replace levels_mask t.levels.(q lsr 1) ()) learnt;
  let kept = Util.Vec_int.create () in
  Util.Vec_int.push kept (Util.Vec_int.get learnt 0);
  for k = 1 to Util.Vec_int.length learnt - 1 do
    let q = Util.Vec_int.get learnt k in
    if litredundant t levels_mask q then t.minimized_literals <- t.minimized_literals + 1
    else Util.Vec_int.push kept q
  done;
  (* clear seen *)
  Util.Vec_int.iter (fun v -> t.seen.(v) <- false) to_clear;
  (* LBD: distinct decision levels among the kept literals *)
  let lbd_levels = Hashtbl.create 8 in
  Util.Vec_int.iter (fun q -> Hashtbl.replace lbd_levels t.levels.(q lsr 1) ()) kept;
  let lbd = Hashtbl.length lbd_levels in
  (* compute backtrack level; move the max-level literal to index 1 *)
  let nk = Util.Vec_int.length kept in
  t.learnt_literals <- t.learnt_literals + nk;
  if nk = 1 then (Util.Vec_int.to_array kept, 0, lbd)
  else begin
    let max_i = ref 1 in
    for k = 2 to nk - 1 do
      if t.levels.(Util.Vec_int.get kept k lsr 1) > t.levels.(Util.Vec_int.get kept !max_i lsr 1)
      then max_i := k
    done;
    let tmp = Util.Vec_int.get kept 1 in
    Util.Vec_int.set kept 1 (Util.Vec_int.get kept !max_i);
    Util.Vec_int.set kept !max_i tmp;
    (Util.Vec_int.to_array kept, t.levels.(Util.Vec_int.get kept 1 lsr 1), lbd)
  end

(* Assumption-level unsat core: [p] is an assumption found false under
   the earlier ones. Walk the implication graph from [p]'s variable
   back to the decisions (which, below the assumption prefix, are
   exactly the assumption literals). Must run before backtracking. *)
let analyze_final t p =
  let core = ref [ p ] in
  if decision_level t > 0 then begin
    let v0 = p lsr 1 in
    t.seen.(v0) <- true;
    let see w = if t.levels.(w) > 0 then t.seen.(w) <- true in
    let bottom = Util.Vec_int.get t.trail_lim 0 in
    for i = Util.Vec_int.length t.trail - 1 downto bottom do
      let l = Util.Vec_int.get t.trail i in
      let v = l lsr 1 in
      if t.seen.(v) then begin
        let r = t.reasons.(v) in
        (if r = -1 then core := l :: !core
         else if r land 1 = 1 then see (r lsr 2)
         else begin
           let c = r lsr 1 in
           for k = 0 to cl_size t.arena.(c) - 1 do
             let w = t.arena.(c + 3 + k) lsr 1 in
             if w <> v then see w
           done
         end);
        t.seen.(v) <- false
      end
    done;
    t.seen.(v0) <- false
  end;
  !core

(* ---------- learnt clause database reduction & arena GC ---------- *)

let locked t c =
  let v = t.arena.(c + 3) lsr 1 in
  t.assigns.(v) >= 0 && t.reasons.(v) = c lsl 1

(* Compact the arena: copy live clauses, rebuild every watch list from
   the surviving clauses (slots 0/1 are the watched pair by invariant),
   and remap clause-tagged reasons on the trail through forwarding
   pointers stashed in the old headers. Binary reasons and the trail
   itself hold literals, not CRefs, so they survive untouched. Every
   clause-tagged reason is live here: level-0 facts drop their reasons
   at enqueue time and reason clauses above level 0 are locked. *)
let gc t =
  t.gc_runs <- t.gc_runs + 1;
  t.gc_words <- t.gc_words + t.arena_waste;
  let arena' = Array.make (Array.length t.arena) 0 in
  let sz = ref 0 in
  let i = ref 0 in
  while !i < t.arena_size do
    let c = !i in
    let h = t.arena.(c) in
    let size = cl_size h in
    if not (cl_deleted h) then begin
      Array.blit t.arena c arena' !sz (3 + size);
      t.arena.(c + 1) <- !sz (* forwarding pointer *);
      sz := !sz + 3 + size
    end;
    i := c + 3 + size
  done;
  for k = 0 to Util.Vec_int.length t.trail - 1 do
    let v = Util.Vec_int.get t.trail k lsr 1 in
    let r = t.reasons.(v) in
    if r >= 0 && r land 1 = 0 then t.reasons.(v) <- t.arena.((r lsr 1) + 1) lsl 1
  done;
  t.arena <- arena';
  t.arena_size <- !sz;
  t.arena_waste <- 0;
  Array.iter Util.Vec_int.clear t.watches;
  let i = ref 0 in
  while !i < !sz do
    let c = !i in
    watch t arena'.(c + 3) c arena'.(c + 4);
    watch t arena'.(c + 4) c arena'.(c + 3);
    i := c + 3 + cl_size arena'.(c)
  done

let maybe_gc t = if t.arena_waste * 4 > t.arena_size && t.arena_size > 1024 then gc t

let reduce_learnts t =
  t.db_reductions <- t.db_reductions + 1;
  (* candidates: live learnt clauses that are neither glue (LBD <= 2)
     nor locked as a reason; sort best-first by (LBD, activity) and
     drop the worst half. Binaries live outside the arena and are
     never deleted. *)
  let cands = ref [] in
  let ncands = ref 0 in
  let i = ref 0 in
  while !i < t.arena_size do
    let c = !i in
    let h = t.arena.(c) in
    if cl_learnt h && (not (cl_deleted h)) && t.arena.(c + 1) > 2 && not (locked t c) then begin
      cands := (t.arena.(c + 1), -.clause_act t c, c) :: !cands;
      incr ncands
    end;
    i := c + 3 + cl_size h
  done;
  let sorted = List.sort compare !cands in
  let keep = !ncands - (!ncands / 2) in
  List.iteri (fun k (_, _, c) -> if k >= keep then delete_clause t c) sorted;
  t.max_learnt <- max (t.max_learnt + 1) (t.max_learnt + (t.max_learnt / 10));
  maybe_gc t

(* ---------- clause addition ---------- *)

(* Add one problem clause at level 0: duplicate literals collapse,
   tautologies and satisfied clauses drop, false literals go. Returns
   [false] iff the database became unsatisfiable. *)
let add_clause t lits =
  if not t.ok then false
  else begin
    cancel_until t 0;
    t.reuse_ok <- false;
    let sorted = List.sort_uniq compare lits in
    let tautology =
      let rec go = function
        | a :: (b :: _ as rest) -> a lxor 1 = b || go rest
        | _ -> false
      in
      go sorted
    in
    let satisfied = List.exists (fun l -> value_lit t l = 1) sorted in
    if tautology || satisfied then true
    else begin
      let remaining = List.filter (fun l -> value_lit t l <> 0) sorted in
      match remaining with
      | [] ->
        t.ok <- false;
        false
      | [ u ] ->
        enqueue t u (-1);
        if propagate t >= 0 then begin
          t.ok <- false;
          false
        end
        else true
      | [ a; b ] ->
        add_bin t a b;
        true
      | _ ->
        ignore (new_clause t (Array.of_list remaining) ~learnt:false ~lbd:0);
        true
    end
  end

let record_learnt t lits lbd =
  if !Obs.enabled then Obs.observe obs_lbd lbd;
  let n = Array.length lits in
  if n = 1 then enqueue t lits.(0) (-1)
  else if n = 2 then begin
    add_bin t lits.(0) lits.(1);
    enqueue t lits.(0) ((lits.(1) lsl 1) lor 1)
  end
  else begin
    let c = new_clause t lits ~learnt:true ~lbd in
    bump_clause t c;
    enqueue t lits.(0) (c lsl 1)
  end

(* ---------- search ---------- *)

let save_model t = t.model <- Array.sub t.assigns 0 t.nvars

let pick_branch_var t =
  let rec go () =
    if Util.Vec_int.is_empty t.heap then -1
    else
      let v = heap_pop t in
      if t.assigns.(v) < 0 then v else go ()
  in
  go ()

let solve_raw ?(assumptions = []) ?(conflict_limit = max_int) ?(limits = Util.Limits.unlimited) t
    =
  t.failed <- [];
  if not t.ok then begin
    cancel_until t 0;
    Unsat
  end
  else if Util.Limits.exhausted limits <> None then Unknown
  else begin
    let assumps = Array.of_list assumptions in
    (* trail reuse: cancel only past the longest prefix of assumption
       levels shared with the previous call. [reuse_ok] implies no
       clause was added since, so the kept assignments stay implied. *)
    let keep =
      if not t.reuse_ok then 0
      else begin
        let m =
          min (Array.length assumps) (min (Array.length t.prev_assumptions) (decision_level t))
        in
        let k = ref 0 in
        while !k < m && assumps.(!k) = t.prev_assumptions.(!k) do
          incr k
        done;
        !k
      end
    in
    cancel_until t keep;
    let n_assumps = Array.length assumps in
    let conflicts_at_entry = t.conflicts in
    let limited = Util.Limits.is_limited limits in
    (* the shared conflict pool tightens any per-call limit *)
    let conflict_limit =
      match Util.Limits.conflict_budget limits with
      | Some pool -> min conflict_limit pool
      | None -> conflict_limit
    in
    let polls = ref 0 in
    let restart_count = ref 0 in
    let budget = ref (restart_base * Util.Luby.term 1) in
    let conflicts_this_restart = ref 0 in
    let status = ref None in
    let exit_keep () =
      (* keep the placed assumption levels for the next call *)
      cancel_until t (min (decision_level t) n_assumps);
      t.prev_assumptions <- assumps;
      t.reuse_ok <- true
    in
    let exit_drop () =
      cancel_until t 0;
      t.reuse_ok <- false
    in
    (* level-0 propagation of anything pending *)
    if decision_level t = 0 && propagate t >= 0 then begin
      t.ok <- false;
      exit_drop ();
      status := Some Unsat
    end;
    while !status = None do
      let confl = propagate t in
      if confl >= 0 then begin
        t.conflicts <- t.conflicts + 1;
        incr conflicts_this_restart;
        if decision_level t = 0 then begin
          t.ok <- false;
          exit_drop ();
          status := Some Unsat
        end
        else begin
          let learnt, bt, lbd = analyze t confl in
          cancel_until t bt;
          record_learnt t learnt lbd;
          decay_var_activity t;
          decay_clause_activity t
        end
      end
      else if t.conflicts - conflicts_at_entry >= conflict_limit then begin
        exit_keep ();
        status := Some Unknown
      end
      else if
        (* periodic deadline/cancellation poll; cadence keeps the
           clock read off the propagation fast path. Unconditional
           (not gated on [limited]): an unbudgeted governor can still
           be tripped from another domain via [Limits.cancel], and a
           racing solver must notice promptly *)
        (incr polls;
         !polls land 1023 = 0 && Util.Limits.check limits <> None)
      then begin
        exit_keep ();
        status := Some Unknown
      end
      else if !conflicts_this_restart >= !budget then begin
        (* restart: drop decisions, keep the assumption prefix *)
        t.restarts <- t.restarts + 1;
        incr restart_count;
        conflicts_this_restart := 0;
        budget := restart_base * Util.Luby.term (!restart_count + 1);
        cancel_until t (min (decision_level t) n_assumps)
      end
      else if t.n_learnt > t.max_learnt then reduce_learnts t
      else begin
        (* extend the assignment: assumptions first, then decision *)
        let dl = decision_level t in
        if dl < n_assumps then begin
          let p = assumps.(dl) in
          match value_lit t p with
          | 1 ->
            (* already true: open a dummy level so indices line up *)
            Util.Vec_int.push t.trail_lim (Util.Vec_int.length t.trail)
          | 0 ->
            t.failed <- analyze_final t p;
            exit_drop ();
            status := Some Unsat
          | _ ->
            Util.Vec_int.push t.trail_lim (Util.Vec_int.length t.trail);
            enqueue t p (-1)
        end
        else begin
          let v = pick_branch_var t in
          if v < 0 then begin
            save_model t;
            exit_keep ();
            status := Some Sat
          end
          else begin
            t.decisions <- t.decisions + 1;
            Util.Vec_int.push t.trail_lim (Util.Vec_int.length t.trail);
            let phase = t.saved_phase.(v) in
            enqueue t ((v lsl 1) lor (if phase then 0 else 1)) (-1)
          end
        end
      end
    done;
    if limited then Util.Limits.charge_conflicts limits (t.conflicts - conflicts_at_entry);
    match !status with Some s -> s | None -> Unknown
  end

let solve ?assumptions ?conflict_limit ?limits t =
  (* both observability paths share one wrapper; the plain call stays a
     two-flag check away so uninstrumented runs pay nothing *)
  if not (!Obs.enabled || !Obs.Trace_events.enabled) then
    solve_raw ?assumptions ?conflict_limit ?limits t
  else begin
    let d0 = t.decisions and p0 = t.propagations and c0 = t.conflicts and r0 = t.restarts in
    let b0 = t.binary_propagations and g0 = t.gc_runs and gw0 = t.gc_words in
    let dr0 = t.db_reductions and ld0 = t.learnt_deleted in
    Obs.Trace_events.begin_ "sat.solve";
    let watch = Util.Stopwatch.start () in
    let result = solve_raw ?assumptions ?conflict_limit ?limits t in
    Obs.add_seconds obs_solve_span (Util.Stopwatch.elapsed watch);
    Obs.Trace_events.end_args "sat.solve" "conflicts" (t.conflicts - c0);
    Obs.incr obs_solve_calls;
    Obs.add obs_decisions (t.decisions - d0);
    Obs.add obs_propagations (t.propagations - p0);
    Obs.add obs_binary_propagations (t.binary_propagations - b0);
    Obs.add obs_conflicts (t.conflicts - c0);
    Obs.add obs_restarts (t.restarts - r0);
    Obs.add obs_gc_runs (t.gc_runs - g0);
    Obs.add obs_gc_words (t.gc_words - gw0);
    Obs.add obs_db_reductions (t.db_reductions - dr0);
    Obs.add obs_learnt_deleted (t.learnt_deleted - ld0);
    Obs.observe obs_decisions_per_call (t.decisions - d0);
    Obs.observe obs_conflicts_per_call (t.conflicts - c0);
    Obs.observe obs_propagations_per_call (t.propagations - p0);
    result
  end

let value t v =
  if v < 0 || v >= Array.length t.model then None
  else
    match t.model.(v) with
    | 0 -> Some false
    | 1 -> Some true
    | _ -> None

let failed_assumptions t = t.failed

let lit_true t l =
  match value t (l lsr 1) with
  | Some b -> b <> (l land 1 = 1)
  | None -> false

type stats = {
  decisions : int;
  propagations : int;
  binary_propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
  minimized_literals : int;
  max_learnt : int;
  clauses : int;
  binaries : int;
  learnt : int;
  gc_runs : int;
  db_reductions : int;
}

let stats (t : t) =
  {
    decisions = t.decisions;
    propagations = t.propagations;
    binary_propagations = t.binary_propagations;
    conflicts = t.conflicts;
    restarts = t.restarts;
    learnt_literals = t.learnt_literals;
    minimized_literals = t.minimized_literals;
    max_learnt = t.max_learnt;
    clauses = t.n_long;
    binaries = t.n_bin;
    learnt = t.n_learnt;
    gc_runs = t.gc_runs;
    db_reductions = t.db_reductions;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "decisions=%d propagations=%d (binary=%d) conflicts=%d restarts=%d learnt-lits=%d \
     minimized=%d clauses=%d binaries=%d learnt=%d gcs=%d reductions=%d"
    s.decisions s.propagations s.binary_propagations s.conflicts s.restarts s.learnt_literals
    s.minimized_literals s.clauses s.binaries s.learnt s.gc_runs s.db_reductions
