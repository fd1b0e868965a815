type config = { use_merges : bool; odc_max_tries : int }

let obs_span = Obs.span "dontcare.disjunction"
let obs_attempts = Obs.counter "dontcare.attempts"
let obs_const = Obs.counter "dontcare.replacements.const"
let obs_merge = Obs.counter "dontcare.replacements.merge"
let obs_prefiltered = Obs.counter "dontcare.sim.prefiltered"
let obs_odc_attempts = Obs.counter "dontcare.odc.attempts"
let obs_odc_accepted = Obs.counter "dontcare.odc.accepted"
let obs_odc_rejected = Obs.counter "dontcare.odc.rejected"

let default = { use_merges = true; odc_max_tries = 16 }

(* random simulation words per variable, and the conflict budget of each
   input-DC and ODC check: a candidate it does not settle is dropped *)
let sim_rounds = 8
let conflict_limit = 5_000

type report = {
  const_replacements : int;
  merge_replacements : int;
  odc_replacements : int;
  odc_rejections : int;
  sat_calls : int;
  size_before : int;
  size_after : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "dc-const=%d dc-merge=%d odc=%d odc-rejected=%d sat-calls=%d size %d -> %d"
    r.const_replacements r.merge_replacements r.odc_replacements r.odc_rejections r.sat_calls
    r.size_before r.size_after

(* maximum don't-care-equal candidates verified per node *)
let max_candidates = 4

(* One directed pass: simplify the cone of [target] using [care] as the
   input care set (its offset is the don't-care set). [extra_targets] are
   literals whose cones provide merge candidates (typically the other
   cofactor). Returns the rebuilt literal and the replacement counts.

   Candidates are bucketed on the care-masked {e dynamic} signature words
   (random rounds + refinements); the bank-seeded prefix words act as an
   explicit pre-filter inside each bucket: a recycled counterexample that
   distinguishes a pair under care kills the candidate before it reaches
   the solver ([dontcare.sim.prefiltered]). *)
let input_dc_pass aig checker ~prng ~config ~bank ~care ~target ~extra_targets =
  if care = Aig.true_ || Aig.is_const target then (target, 0, 0)
  else begin
    let roots = target :: care :: extra_targets in
    let sim = Sweep.Sim.create ?bank aig ~roots ~rounds:sim_rounds ~prng in
    let n_words = Sweep.Sim.words sim in
    let n_bank = Sweep.Sim.bank_words sim in
    let care_word = Array.init n_words (fun w -> Sweep.Sim.lit_word sim care w) in
    (* dynamic (non-bank) part of the care-masked signature: the bucket key *)
    let masked_dyn l =
      Array.init (n_words - n_bank) (fun k ->
          Int64.logand care_word.(n_bank + k) (Sweep.Sim.lit_word sim l (n_bank + k)))
    in
    let hash_words ws =
      Array.fold_left
        (fun h x ->
          Util.Int_tbl.hash_int
            (h lxor (Int64.to_int x lxor Int64.to_int (Int64.shift_right_logical x 32))))
        0 ws
    in
    let equal_words a b =
      Array.length a = Array.length b
      &&
      let rec go k = k >= Array.length a || (Int64.equal a.(k) b.(k) && go (k + 1)) in
      go 0
    in
    let table : (int64 array * Aig.lit list ref) list ref Util.Int_tbl.t =
      Util.Int_tbl.create 64
    in
    let bucket key =
      let h = hash_words key in
      let entries =
        match Util.Int_tbl.find_opt table h with
        | Some e -> e
        | None ->
          let e = ref [] in
          Util.Int_tbl.replace table h e;
          e
      in
      match List.find_opt (fun (k, _) -> equal_words k key) !entries with
      | Some (_, members) -> members
      | None ->
        let members = ref [] in
        entries := (key, members) :: !entries;
        members
    in
    let register l =
      let members = bucket (masked_dyn l) in
      members := l :: !members
    in
    let register_both l =
      register l;
      register (Aig.not_ l)
    in
    register_both Aig.false_;
    (* merge targets: every node (and leaf) of the other cones *)
    List.iter
      (fun root ->
        List.iter (fun v -> register_both (Aig.var aig v)) (Aig.support aig root);
        List.iter (fun n -> register_both (Aig.lit_of_node n)) (Aig.cone aig [ root ]))
      extra_targets;
    List.iter (fun v -> register_both (Aig.var aig v)) (Aig.support aig target);
    (* a stored pattern that distinguishes the pair under care is a live
       counterexample to [equal_under] — never spend solver time on it *)
    let bank_distinguishes ln lm =
      let rec go w =
        w < n_bank
        && (not
              (Int64.equal
                 (Int64.logand care_word.(w) (Sweep.Sim.lit_word sim ln w))
                 (Int64.logand care_word.(w) (Sweep.Sim.lit_word sim lm w)))
           || go (w + 1))
      in
      go 0
    in
    let repl_tbl : Aig.lit Util.Int_tbl.t = Util.Int_tbl.create 16 in
    let consts = ref 0 and merges = ref 0 in
    List.iter
      (fun n ->
        let ln = Aig.lit_of_node n in
        let candidates =
          (* acyclicity: only replace by strictly earlier nodes; prefer
             constants, then older (smaller) nodes *)
          List.filter (fun l -> Aig.node_of_lit l < n) !(bucket (masked_dyn ln))
          |> List.sort (fun a b -> Int.compare (Aig.node_of_lit a) (Aig.node_of_lit b))
        in
        let candidates =
          if config.use_merges then candidates else List.filter Aig.is_const candidates
        in
        let rec try_candidates budget = function
          | [] -> ()
          | lm :: rest ->
            if budget = 0 then ()
            else if bank_distinguishes ln lm then begin
              Obs.incr obs_prefiltered;
              try_candidates budget rest
            end
            else begin
              Obs.incr obs_attempts;
              match Cnf.Checker.equal_under ~conflict_limit checker ~care ln lm with
              | Cnf.Checker.Yes ->
                Util.Int_tbl.replace repl_tbl n lm;
                if Aig.is_const lm then begin
                  incr consts;
                  Obs.incr obs_const
                end
                else begin
                  incr merges;
                  Obs.incr obs_merge
                end
              | Cnf.Checker.No | Cnf.Checker.Maybe -> try_candidates (budget - 1) rest
            end
        in
        try_candidates max_candidates candidates;
        if not (Util.Int_tbl.mem repl_tbl n) then register_both ln)
      (Aig.cone aig [ target ]);
    let repl n =
      match Util.Int_tbl.find_opt repl_tbl n with Some l -> l | None -> Aig.lit_of_node n
    in
    let rebuilt = Aig.rebuild aig ~repl target in
    (rebuilt, !consts, !merges)
  end

(* Observability-don't-care pass on the whole disjunction [g]: try to set
   nearly-constant internal nodes to the constant they almost always take;
   accept only when a full equivalence check on [g] validates the change. *)
let odc_pass aig checker ~prng ~config ~bank g =
  if config.odc_max_tries <= 0 || Aig.is_const g then (g, 0, 0)
  else begin
    let accepted = ref 0 and rejected = ref 0 in
    let g = ref g in
    let tries = ref config.odc_max_tries in
    let continue = ref true in
    while !continue && !tries > 0 do
      continue := false;
      let sim = Sweep.Sim.create ?bank aig ~roots:[ !g ] ~rounds:sim_rounds ~prng in
      let total_bits = 64 * Sweep.Sim.words sim in
      let popcount w =
        let c = ref 0 in
        for b = 0 to 63 do
          if Int64.logand (Int64.shift_right_logical w b) 1L = 1L then incr c
        done;
        !c
      in
      let near_constant n =
        let s = Sweep.Sim.lit_signature sim (Aig.lit_of_node n) in
        let ones = Array.fold_left (fun acc w -> acc + popcount w) 0 s in
        if ones > 0 && ones <= max 1 (total_bits / 32) then Some Aig.false_
        else if ones < total_bits && ones >= total_bits - max 1 (total_bits / 32) then
          Some Aig.true_
        else None
      in
      let candidates =
        List.filter_map
          (fun n -> Option.map (fun c -> (n, c)) (near_constant n))
          (Aig.cone aig [ !g ])
        (* deeper nodes first: replacing them removes more logic *)
        |> List.sort (fun (a, _) (b, _) -> Int.compare (Aig.level aig b) (Aig.level aig a))
      in
      let rec attempt = function
        | [] -> ()
        | (n, c) :: rest ->
          if !tries = 0 then ()
          else begin
            decr tries;
            let repl m = if m = n then c else Aig.lit_of_node m in
            let g' = Aig.rebuild aig ~repl !g in
            if g' <> !g && Aig.size aig g' < Aig.size aig !g then begin
              Obs.incr obs_odc_attempts;
              match Cnf.Checker.equal ~conflict_limit checker !g g' with
              | Cnf.Checker.Yes ->
                incr accepted;
                Obs.incr obs_odc_accepted;
                g := g';
                continue := true (* re-derive candidates on the new graph *)
              | Cnf.Checker.No | Cnf.Checker.Maybe ->
                incr rejected;
                Obs.incr obs_odc_rejected;
                attempt rest
            end
            else attempt rest
          end
      in
      attempt candidates
    done;
    (!g, !accepted, !rejected)
  end

let disjunction ?(config = default) ?bank aig checker ~prng f0 f1 =
  Obs.with_span obs_span @@ fun () ->
  Obs.Trace_events.begin_ "dontcare.disjunction";
  let queries0 = Cnf.Checker.queries checker in
  let plain = Aig.or_ aig f0 f1 in
  let size_before = Aig.size aig plain in
  let finish g odc_a odc_r consts merges =
    {
      const_replacements = consts;
      merge_replacements = merges;
      odc_replacements = odc_a;
      odc_rejections = odc_r;
      sat_calls = Cnf.Checker.queries checker - queries0;
      size_before;
      size_after = Aig.size aig g;
    }
  in
  if Aig.is_const plain || Aig.is_const f0 || Aig.is_const f1 then begin
    Obs.Trace_events.end_args "dontcare.disjunction" "size_after" size_before;
    (plain, finish plain 0 0 0 0)
  end
  else begin
    let f1', c1, m1 =
      input_dc_pass aig checker ~prng ~config ~bank ~care:(Aig.not_ f0) ~target:f1
        ~extra_targets:[ f0 ]
    in
    let f0', c0, m0 =
      input_dc_pass aig checker ~prng ~config ~bank ~care:(Aig.not_ f1') ~target:f0
        ~extra_targets:[ f1' ]
    in
    let g = Aig.or_ aig f0' f1' in
    (* never ship a result worse than the untransformed disjunction *)
    let g = if Aig.size aig g <= size_before then g else plain in
    let g, odc_a, odc_r = odc_pass aig checker ~prng ~config ~bank g in
    Obs.Trace_events.end_args "dontcare.disjunction" "size_after" (Aig.size aig g);
    (g, finish g odc_a odc_r (c0 + c1) (m0 + m1))
  end
