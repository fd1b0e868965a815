(* CDCL solver tests: semantics against brute-force enumeration, classic
   hard instances, assumptions, incrementality, budgets, model validity. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let lp = Sat.Lit.pos
let ln = Sat.Lit.neg_of

let result_t =
  Alcotest.testable
    (fun ppf -> function
      | Sat.Solver.Sat -> Format.pp_print_string ppf "Sat"
      | Sat.Solver.Unsat -> Format.pp_print_string ppf "Unsat"
      | Sat.Solver.Unknown -> Format.pp_print_string ppf "Unknown")
    ( = )

let fresh n =
  let s = Sat.Solver.create () in
  (s, Array.init n (fun _ -> Sat.Solver.new_var s))

(* ---------- literals ---------- *)

let test_lit_encoding () =
  check int "pos var" 3 (Sat.Lit.var (Sat.Lit.pos 3));
  check int "neg var" 3 (Sat.Lit.var (Sat.Lit.neg_of 3));
  check bool "pos sign" false (Sat.Lit.sign (Sat.Lit.pos 3));
  check bool "neg sign" true (Sat.Lit.sign (Sat.Lit.neg_of 3));
  check int "double negation" (Sat.Lit.pos 5) (Sat.Lit.neg (Sat.Lit.neg (Sat.Lit.pos 5)));
  check int "make negated" (Sat.Lit.neg_of 7) (Sat.Lit.make 7 true)

(* ---------- basic solving ---------- *)

let test_trivial () =
  let s, v = fresh 1 in
  check result_t "empty db is sat" Sat.Solver.Sat (Sat.Solver.solve s);
  ignore (Sat.Solver.add_clause s [ lp v.(0) ]);
  check result_t "unit sat" Sat.Solver.Sat (Sat.Solver.solve s);
  check (Alcotest.option bool) "model respects unit" (Some true) (Sat.Solver.value s v.(0));
  check bool "add conflicting unit fails" false (Sat.Solver.add_clause s [ ln v.(0) ]);
  check bool "solver flagged not ok" false (Sat.Solver.ok s);
  check result_t "stays unsat" Sat.Solver.Unsat (Sat.Solver.solve s)

let test_tautology_and_duplicates () =
  let s, v = fresh 2 in
  check bool "tautology accepted" true (Sat.Solver.add_clause s [ lp v.(0); ln v.(0) ]);
  check bool "duplicates collapse" true (Sat.Solver.add_clause s [ lp v.(1); lp v.(1) ]);
  check result_t "sat" Sat.Solver.Sat (Sat.Solver.solve s);
  check (Alcotest.option bool) "unit-from-duplicates" (Some true) (Sat.Solver.value s v.(1))

let test_empty_clause () =
  let s, _ = fresh 1 in
  check bool "empty clause rejected" false (Sat.Solver.add_clause s []);
  check result_t "unsat" Sat.Solver.Unsat (Sat.Solver.solve s)

let test_propagation_chain () =
  let s, v = fresh 6 in
  (* implication chain v0 -> v1 -> ... -> v5 with v0 forced *)
  for i = 0 to 4 do
    ignore (Sat.Solver.add_clause s [ ln v.(i); lp v.(i + 1) ])
  done;
  ignore (Sat.Solver.add_clause s [ lp v.(0) ]);
  check result_t "sat" Sat.Solver.Sat (Sat.Solver.solve s);
  for i = 0 to 5 do
    check (Alcotest.option bool) (Printf.sprintf "v%d forced" i) (Some true)
      (Sat.Solver.value s v.(i))
  done

(* ---------- assumptions and incrementality ---------- *)

let test_assumptions () =
  let s, v = fresh 3 in
  ignore (Sat.Solver.add_clause s [ lp v.(0); lp v.(1) ]);
  ignore (Sat.Solver.add_clause s [ ln v.(0); lp v.(2) ]);
  check result_t "sat under ~v1" Sat.Solver.Sat (Sat.Solver.solve ~assumptions:[ ln v.(1) ] s);
  check (Alcotest.option bool) "v0 forced by assumption" (Some true) (Sat.Solver.value s v.(0));
  check (Alcotest.option bool) "v2 propagated" (Some true) (Sat.Solver.value s v.(2));
  check result_t "unsat under contradictory assumptions" Sat.Solver.Unsat
    (Sat.Solver.solve ~assumptions:[ ln v.(1); ln v.(0) ] s);
  check result_t "recovers without assumptions" Sat.Solver.Sat (Sat.Solver.solve s);
  check result_t "directly conflicting assumptions" Sat.Solver.Unsat
    (Sat.Solver.solve ~assumptions:[ lp v.(0); ln v.(0) ] s)

let test_incremental_strengthening () =
  let s, v = fresh 4 in
  ignore (Sat.Solver.add_clause s [ lp v.(0); lp v.(1); lp v.(2); lp v.(3) ]);
  check result_t "sat" Sat.Solver.Sat (Sat.Solver.solve s);
  ignore (Sat.Solver.add_clause s [ ln v.(0) ]);
  ignore (Sat.Solver.add_clause s [ ln v.(1) ]);
  check result_t "still sat" Sat.Solver.Sat (Sat.Solver.solve s);
  ignore (Sat.Solver.add_clause s [ ln v.(2) ]);
  ignore (Sat.Solver.add_clause s [ ln v.(3) ]);
  check result_t "now unsat" Sat.Solver.Unsat (Sat.Solver.solve s)

let test_activation_literals () =
  (* the pattern the equivalence checker uses: permanent clauses guarded by
     per-query selector variables that are assumed, never asserted *)
  let s, v = fresh 2 in
  let sel_a = Sat.Solver.new_var s and sel_b = Sat.Solver.new_var s in
  (* sel_a => (v0), sel_b => (~v0) *)
  ignore (Sat.Solver.add_clause s [ ln sel_a; lp v.(0) ]);
  ignore (Sat.Solver.add_clause s [ ln sel_b; ln v.(0) ]);
  check result_t "query a" Sat.Solver.Sat (Sat.Solver.solve ~assumptions:[ lp sel_a ] s);
  check (Alcotest.option bool) "a forces v0" (Some true) (Sat.Solver.value s v.(0));
  check result_t "query b" Sat.Solver.Sat (Sat.Solver.solve ~assumptions:[ lp sel_b ] s);
  check (Alcotest.option bool) "b forces ~v0" (Some false) (Sat.Solver.value s v.(0));
  check result_t "both clash" Sat.Solver.Unsat
    (Sat.Solver.solve ~assumptions:[ lp sel_a; lp sel_b ] s);
  ignore v.(1)

(* ---------- classic hard instances ---------- *)

let php holes =
  let s = Sat.Solver.create () in
  let pigeons = holes + 1 in
  let x = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    ignore (Sat.Solver.add_clause s (Array.to_list (Array.map lp x.(p))))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        ignore (Sat.Solver.add_clause s [ ln x.(p1).(h); ln x.(p2).(h) ])
      done
    done
  done;
  s

let test_pigeonhole () =
  check result_t "php 4->3" Sat.Solver.Unsat (Sat.Solver.solve (php 3));
  check result_t "php 6->5" Sat.Solver.Unsat (Sat.Solver.solve (php 5));
  check result_t "php 8->7" Sat.Solver.Unsat (Sat.Solver.solve (php 7))

let test_graph_coloring () =
  (* C5 (odd cycle) is 3-colorable but not 2-colorable *)
  let coloring colors =
    let s = Sat.Solver.create () in
    let n = 5 in
    let x = Array.init n (fun _ -> Array.init colors (fun _ -> Sat.Solver.new_var s)) in
    for v = 0 to n - 1 do
      ignore (Sat.Solver.add_clause s (Array.to_list (Array.map lp x.(v))));
      for c1 = 0 to colors - 1 do
        for c2 = c1 + 1 to colors - 1 do
          ignore (Sat.Solver.add_clause s [ ln x.(v).(c1); ln x.(v).(c2) ])
        done
      done
    done;
    for v = 0 to n - 1 do
      let w = (v + 1) mod n in
      for c = 0 to colors - 1 do
        ignore (Sat.Solver.add_clause s [ ln x.(v).(c); ln x.(w).(c) ])
      done
    done;
    Sat.Solver.solve s
  in
  check result_t "C5 2-coloring" Sat.Solver.Unsat (coloring 2);
  check result_t "C5 3-coloring" Sat.Solver.Sat (coloring 3)

let test_parity_chain () =
  (* x0 ^ x1 ^ ... ^ x(n-1) = 1 encoded with chain variables; sat, and the
     model must have odd parity *)
  let s = Sat.Solver.create () in
  let n = 16 in
  let x = Array.init n (fun _ -> Sat.Solver.new_var s) in
  let chain = Array.init n (fun _ -> Sat.Solver.new_var s) in
  (* chain0 = x0 *)
  ignore (Sat.Solver.add_clause s [ ln chain.(0); lp x.(0) ]);
  ignore (Sat.Solver.add_clause s [ lp chain.(0); ln x.(0) ]);
  for i = 1 to n - 1 do
    (* chain_i = chain_{i-1} xor x_i : four clauses *)
    ignore (Sat.Solver.add_clause s [ ln chain.(i); lp chain.(i - 1); lp x.(i) ]);
    ignore (Sat.Solver.add_clause s [ ln chain.(i); ln chain.(i - 1); ln x.(i) ]);
    ignore (Sat.Solver.add_clause s [ lp chain.(i); ln chain.(i - 1); lp x.(i) ]);
    ignore (Sat.Solver.add_clause s [ lp chain.(i); lp chain.(i - 1); ln x.(i) ])
  done;
  ignore (Sat.Solver.add_clause s [ lp chain.(n - 1) ]);
  check result_t "parity constraint sat" Sat.Solver.Sat (Sat.Solver.solve s);
  let parity =
    Array.fold_left
      (fun acc v -> acc <> (Sat.Solver.value s v = Some true))
      false x
  in
  check bool "model has odd parity" true parity

(* ---------- budget ---------- *)

let test_conflict_limit () =
  let s = php 8 in
  check result_t "tiny budget gives unknown" Sat.Solver.Unknown
    (Sat.Solver.solve ~conflict_limit:5 s);
  (* solver remains usable and can finish with a real budget *)
  check result_t "full solve still works" Sat.Solver.Unsat (Sat.Solver.solve s)

(* ---------- brute-force cross-check ---------- *)

let brute_force nvars clauses =
  let satisfies mask =
    List.for_all
      (fun clause ->
        List.exists
          (fun l ->
            let v = Sat.Lit.var l in
            let value = (mask lsr v) land 1 = 1 in
            if Sat.Lit.sign l then not value else value)
          clause)
      clauses
  in
  let rec go mask = mask < 1 lsl nvars && (satisfies mask || go (mask + 1)) in
  go 0

let clause_gen nvars =
  QCheck.Gen.(
    list_size (int_range 1 4)
      (map2 (fun v s -> Sat.Lit.make v s) (int_bound (nvars - 1)) bool))

let cnf_gen nvars = QCheck.Gen.(list_size (int_range 1 30) (clause_gen nvars))

let qc_cnf nvars =
  QCheck.make
    ~print:(fun cnf ->
      String.concat " "
        (List.map
           (fun c -> "(" ^ String.concat "|" (List.map (Format.asprintf "%a" Sat.Lit.pp) c) ^ ")")
           cnf))
    (cnf_gen nvars)

let solver_matches_brute_force =
  let nvars = 8 in
  QCheck.Test.make ~name:"solver agrees with enumeration" ~count:300 (qc_cnf nvars)
    (fun cnf ->
      let s = Sat.Solver.create () in
      for _ = 1 to nvars do
        ignore (Sat.Solver.new_var s)
      done;
      let ok = List.for_all (fun c -> Sat.Solver.add_clause s c) cnf in
      let expected = brute_force nvars cnf in
      if not ok then not expected
      else
        match Sat.Solver.solve s with
        | Sat.Solver.Sat -> expected
        | Sat.Solver.Unsat -> not expected
        | Sat.Solver.Unknown -> false)

let model_satisfies_all_clauses =
  let nvars = 8 in
  QCheck.Test.make ~name:"returned models satisfy every clause" ~count:300 (qc_cnf nvars)
    (fun cnf ->
      let s = Sat.Solver.create () in
      for _ = 1 to nvars do
        ignore (Sat.Solver.new_var s)
      done;
      let ok = List.for_all (fun c -> Sat.Solver.add_clause s c) cnf in
      (not ok)
      ||
      match Sat.Solver.solve s with
      | Sat.Solver.Sat ->
        List.for_all (fun c -> List.exists (fun l -> Sat.Solver.lit_true s l) c) cnf
      | Sat.Solver.Unsat | Sat.Solver.Unknown -> true)

let assumptions_match_added_units =
  let nvars = 6 in
  QCheck.Test.make ~name:"solving under assumptions = solving with units" ~count:200
    (QCheck.pair (qc_cnf nvars) (QCheck.list_of_size (QCheck.Gen.int_range 1 3)
       (QCheck.map (fun (v, s) -> Sat.Lit.make v s) (QCheck.pair (QCheck.int_bound (nvars - 1)) QCheck.bool))))
    (fun (cnf, assumptions) ->
      let mk () =
        let s = Sat.Solver.create () in
        for _ = 1 to nvars do
          ignore (Sat.Solver.new_var s)
        done;
        let ok = List.for_all (fun c -> Sat.Solver.add_clause s c) cnf in
        (s, ok)
      in
      let s1, ok1 = mk () in
      let r1 = if ok1 then Sat.Solver.solve ~assumptions s1 else Sat.Solver.Unsat in
      let s2, ok2 = mk () in
      let ok2 = ok2 && List.for_all (fun l -> Sat.Solver.add_clause s2 [ l ]) assumptions in
      let r2 = if ok2 then Sat.Solver.solve s2 else Sat.Solver.Unsat in
      r1 = r2)

(* mutating one clause of an UNSAT instance back towards SAT must never
   confuse the solver: solve / add / solve sequences equal from-scratch *)
let incremental_equals_fresh =
  let nvars = 7 in
  QCheck.Test.make ~name:"incremental solves = from-scratch solves" ~count:150
    (QCheck.pair (qc_cnf nvars) (qc_cnf nvars))
    (fun (cnf1, cnf2) ->
      (* incremental: load cnf1, solve, add cnf2, solve *)
      let s = Sat.Solver.create () in
      for _ = 1 to nvars do
        ignore (Sat.Solver.new_var s)
      done;
      let ok1 = List.for_all (fun c -> Sat.Solver.add_clause s c) cnf1 in
      let r1 = if ok1 then Sat.Solver.solve s else Sat.Solver.Unsat in
      let ok2 = ok1 && List.for_all (fun c -> Sat.Solver.add_clause s c) cnf2 in
      let r2 = if ok2 then Sat.Solver.solve s else Sat.Solver.Unsat in
      (* fresh solvers for both stages *)
      let fresh cnf =
        let s = Sat.Solver.create () in
        for _ = 1 to nvars do
          ignore (Sat.Solver.new_var s)
        done;
        if List.for_all (fun c -> Sat.Solver.add_clause s c) cnf then Sat.Solver.solve s
        else Sat.Solver.Unsat
      in
      r1 = fresh cnf1 && r2 = fresh (cnf1 @ cnf2))

let failed_assumptions_are_sound =
  let nvars = 6 in
  let lit_gen =
    QCheck.map (fun (v, s) -> Sat.Lit.make v s) (QCheck.pair (QCheck.int_bound (nvars - 1)) QCheck.bool)
  in
  QCheck.Test.make ~name:"assumption cores are unsat subsets" ~count:200
    (QCheck.pair (qc_cnf nvars) (QCheck.list_of_size (QCheck.Gen.int_range 1 5) lit_gen))
    (fun (cnf, assumptions) ->
      let s = Sat.Solver.create () in
      for _ = 1 to nvars do
        ignore (Sat.Solver.new_var s)
      done;
      let ok = List.for_all (fun c -> Sat.Solver.add_clause s c) cnf in
      (not ok)
      ||
      match Sat.Solver.solve ~assumptions s with
      | Sat.Solver.Sat | Sat.Solver.Unknown -> true
      | Sat.Solver.Unsat ->
        let core = Sat.Solver.failed_assumptions s in
        (* subset of the assumptions (modulo duplicates) *)
        List.for_all (fun l -> List.mem l assumptions) core
        (* and itself sufficient for unsatisfiability *)
        && Sat.Solver.solve ~assumptions:core s = Sat.Solver.Unsat)

let dimacs_roundtrip_random =
  let nvars = 6 in
  QCheck.Test.make ~name:"dimacs render/parse roundtrip (random problems)" ~count:200
    (qc_cnf nvars) (fun cnf ->
      let p = { Sat.Dimacs.num_vars = nvars; clauses = cnf } in
      match Sat.Dimacs.parse (Sat.Dimacs.render p) with
      | Ok p' -> p'.Sat.Dimacs.clauses = cnf && p'.Sat.Dimacs.num_vars = nvars
      | Error _ -> false)

let test_xor_system () =
  (* a solvable linear system over GF(2): x0^x1 = 1, x1^x2 = 0, x0^x2 = 1 *)
  let s = Sat.Solver.create () in
  let v = Array.init 3 (fun _ -> Sat.Solver.new_var s) in
  let xor_clause a b rhs =
    (* a ^ b = rhs as two/two clauses *)
    if rhs then begin
      ignore (Sat.Solver.add_clause s [ lp a; lp b ]);
      ignore (Sat.Solver.add_clause s [ ln a; ln b ])
    end
    else begin
      ignore (Sat.Solver.add_clause s [ lp a; ln b ]);
      ignore (Sat.Solver.add_clause s [ ln a; lp b ])
    end
  in
  xor_clause v.(0) v.(1) true;
  xor_clause v.(1) v.(2) false;
  xor_clause v.(0) v.(2) true;
  check result_t "consistent system" Sat.Solver.Sat (Sat.Solver.solve s);
  (* adding the parity-violating equation makes it unsat *)
  let s2 = Sat.Solver.create () in
  let w = Array.init 3 (fun _ -> Sat.Solver.new_var s2) in
  let xor_clause2 a b rhs =
    if rhs then begin
      ignore (Sat.Solver.add_clause s2 [ lp a; lp b ]);
      ignore (Sat.Solver.add_clause s2 [ ln a; ln b ])
    end
    else begin
      ignore (Sat.Solver.add_clause s2 [ lp a; ln b ]);
      ignore (Sat.Solver.add_clause s2 [ ln a; lp b ])
    end
  in
  xor_clause2 w.(0) w.(1) true;
  xor_clause2 w.(1) w.(2) true;
  xor_clause2 w.(0) w.(2) true;
  check result_t "odd cycle of xors" Sat.Solver.Unsat (Sat.Solver.solve s2)

let test_stats_progress () =
  let s = php 6 in
  let before = Sat.Solver.stats s in
  check int "no conflicts yet" 0 before.Sat.Solver.conflicts;
  ignore (Sat.Solver.solve s);
  let after = Sat.Solver.stats s in
  check bool "conflicts counted" true (after.Sat.Solver.conflicts > 0);
  check bool "decisions counted" true (after.Sat.Solver.decisions > 0);
  check bool "propagations counted" true (after.Sat.Solver.propagations > 0)

let test_many_vars () =
  let s = Sat.Solver.create () in
  let n = 2000 in
  let v = Array.init n (fun _ -> Sat.Solver.new_var s) in
  for i = 0 to n - 2 do
    ignore (Sat.Solver.add_clause s [ ln v.(i); lp v.(i + 1) ])
  done;
  ignore (Sat.Solver.add_clause s [ lp v.(0) ]);
  check result_t "long chain sat" Sat.Solver.Sat (Sat.Solver.solve s);
  check (Alcotest.option bool) "last var forced" (Some true) (Sat.Solver.value s v.(n - 1))

(* ---------- DIMACS hardening and DIMACS-driven solver tests ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_dimacs_parse_errors () =
  (match Sat.Dimacs.parse_exn "p cnf x 2\n1 0\n" with
  | _ -> Alcotest.fail "malformed header accepted"
  | exception Sat.Dimacs.Parse_error { line; token; reason } ->
    check int "header: line" 1 line;
    check Alcotest.string "header: token" "p cnf x 2" token;
    check bool "header: reason mentions counts" true (contains reason "counts"));
  (match Sat.Dimacs.parse_exn "p cnf 2 1\n1 two 0\n" with
  | _ -> Alcotest.fail "non-integer literal accepted"
  | exception Sat.Dimacs.Parse_error { line; token; reason } ->
    check int "literal: line" 2 line;
    check Alcotest.string "literal: token" "two" token;
    check Alcotest.string "literal: reason" "literal is not an integer" reason);
  (match Sat.Dimacs.parse_exn "p cnf 2 1\np cnf 2 1\n1 0\n" with
  | _ -> Alcotest.fail "duplicate problem line accepted"
  | exception Sat.Dimacs.Parse_error { line; reason; _ } ->
    check int "duplicate p: line" 2 line;
    check Alcotest.string "duplicate p: reason" "duplicate problem line" reason);
  (match Sat.Dimacs.parse_exn "p cnf 3 1\n1 2\n3 " with
  | _ -> Alcotest.fail "unterminated clause accepted"
  | exception Sat.Dimacs.Parse_error { line; token; _ } ->
    check int "trailing: line points at clause start" 2 line;
    check Alcotest.string "trailing: no single token at fault" "" token);
  (* the structured error goes through the registered Printexc printer *)
  (match Sat.Dimacs.parse_exn "p cnf -1 0\n" with
  | _ -> Alcotest.fail "negative var count accepted"
  | exception e ->
    let s = Printexc.to_string e in
    check bool "printer names the exception" true (contains s "Dimacs.Parse_error");
    check bool "printer names the line" true (contains s "line 1"));
  (* parse folds the same diagnostics into a string *)
  match Sat.Dimacs.parse "p cnf 2 1\n1 two 0\n" with
  | Ok _ -> Alcotest.fail "parse accepted malformed input"
  | Error msg ->
    check bool "Error carries line" true (contains msg "line 2");
    check bool "Error carries token" true (contains msg "\"two\"")

let load_dimacs text =
  let p = Sat.Dimacs.parse_exn text in
  let s = Sat.Solver.create () in
  let ok = Sat.Dimacs.load s p in
  (s, ok)

let test_dimacs_incremental () =
  let s, ok = load_dimacs "p cnf 4 2\n1 2 3 4 0\n-1 -2 0\n" in
  check bool "load ok" true ok;
  check result_t "initial sat" Sat.Solver.Sat (Sat.Solver.solve s);
  (* strengthen between solve calls: forbid the low half... *)
  ignore (Sat.Solver.add_clause s [ ln 0 ]);
  ignore (Sat.Solver.add_clause s [ ln 1 ]);
  check result_t "still sat" Sat.Solver.Sat (Sat.Solver.solve s);
  (* ...then everything *)
  ignore (Sat.Solver.add_clause s [ ln 2 ]);
  ignore (Sat.Solver.add_clause s [ ln 3 ]);
  check result_t "strengthened to unsat" Sat.Solver.Unsat (Sat.Solver.solve s);
  check bool "database itself unsat" false (Sat.Solver.ok s)

let test_dimacs_assumption_core () =
  (* (¬1 ∨ ¬2): assuming 1, 2 and 4 together is inconsistent, but 4 is
     irrelevant — the reported core must already be inconsistent alone *)
  let s, ok = load_dimacs "p cnf 4 1\n-1 -2 0\n" in
  check bool "load ok" true ok;
  let a = [ lp 0; lp 1; lp 3 ] in
  check result_t "unsat under assumptions" Sat.Solver.Unsat (Sat.Solver.solve ~assumptions:a s);
  let core = Sat.Solver.failed_assumptions s in
  check bool "core non-empty" true (core <> []);
  List.iter
    (fun l -> check bool "core literal was assumed" true (List.mem l a))
    core;
  check result_t "core alone is already unsat" Sat.Solver.Unsat
    (Sat.Solver.solve ~assumptions:core s);
  check result_t "without assumptions the db is sat" Sat.Solver.Sat (Sat.Solver.solve s)

let php_dimacs holes =
  let pigeons = holes + 1 in
  let var p h = (p * holes) + h + 1 in
  let clauses = ref [] in
  for p = 0 to pigeons - 1 do
    clauses := List.init holes (fun h -> var p h) :: !clauses
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        clauses := [ -var p1 h; -var p2 h ] :: !clauses
      done
    done
  done;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" (pigeons * holes) (List.length !clauses));
  List.iter
    (fun c ->
      List.iter (fun d -> Buffer.add_string buf (string_of_int d ^ " ")) c;
      Buffer.add_string buf "0\n")
    !clauses;
  Buffer.contents buf

let test_dimacs_conflict_limit () =
  let text = php_dimacs 8 in
  (* render/parse roundtrip preserves the problem *)
  let p = Sat.Dimacs.parse_exn text in
  let p' = Sat.Dimacs.parse_exn (Sat.Dimacs.render p) in
  check int "roundtrip vars" p.Sat.Dimacs.num_vars p'.Sat.Dimacs.num_vars;
  check int "roundtrip clauses" (List.length p.Sat.Dimacs.clauses)
    (List.length p'.Sat.Dimacs.clauses);
  let s = Sat.Solver.create () in
  check bool "load ok" true (Sat.Dimacs.load s p');
  check result_t "tiny budget gives Unknown" Sat.Solver.Unknown
    (Sat.Solver.solve ~conflict_limit:5 s);
  check result_t "unbudgeted finishes the proof" Sat.Solver.Unsat (Sat.Solver.solve s)

(* ---------- arena-GC stress: forced DB reductions preserve verdicts ---------- *)

let test_gc_stress () =
  let vars = 60 in
  let prng = Util.Prng.create 0xdecaf in
  let rand_lit () = Sat.Lit.make (Util.Prng.int prng vars) (Util.Prng.bool prng) in
  let clauses = List.init 250 (fun _ -> List.init 3 (fun _ -> rand_lit ())) in
  let queries = List.init 40 (fun _ -> List.init 3 (fun _ -> rand_lit ())) in
  let stressed = Sat.Solver.create () in
  for _ = 1 to vars do
    ignore (Sat.Solver.new_var stressed)
  done;
  List.iter (fun c -> ignore (Sat.Solver.add_clause stressed c)) clauses;
  (* a budget this small forces a learnt-DB reduction every few conflicts,
     which in turn piles up arena waste and triggers compaction *)
  Sat.Solver.set_learnt_budget stressed 8;
  List.iteri
    (fun q assumptions ->
      let got = Sat.Solver.solve ~assumptions stressed in
      let reference = Sat.Solver.create () in
      for _ = 1 to vars do
        ignore (Sat.Solver.new_var reference)
      done;
      List.iter (fun c -> ignore (Sat.Solver.add_clause reference c)) clauses;
      check result_t
        (Printf.sprintf "query %d agrees with fresh solver" q)
        (Sat.Solver.solve ~assumptions reference)
        got)
    queries;
  let st = Sat.Solver.stats stressed in
  check bool "reductions were actually forced" true (st.Sat.Solver.db_reductions > 0)

let () =
  Alcotest.run "sat"
    [
      ("literals", [ Alcotest.test_case "encoding" `Quick test_lit_encoding ]);
      ( "basics",
        [
          Alcotest.test_case "trivial and units" `Quick test_trivial;
          Alcotest.test_case "tautology/duplicates" `Quick test_tautology_and_duplicates;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "propagation chain" `Quick test_propagation_chain;
          Alcotest.test_case "2000-var chain" `Quick test_many_vars;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "clause strengthening" `Quick test_incremental_strengthening;
          Alcotest.test_case "activation literals" `Quick test_activation_literals;
        ] );
      ( "hard instances",
        [
          Alcotest.test_case "pigeonhole" `Slow test_pigeonhole;
          Alcotest.test_case "graph coloring" `Quick test_graph_coloring;
          Alcotest.test_case "parity chain" `Quick test_parity_chain;
        ] );
      ( "budget",
        [
          Alcotest.test_case "conflict limit" `Quick test_conflict_limit;
          Alcotest.test_case "stats progress" `Quick test_stats_progress;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "structured parse errors" `Quick test_dimacs_parse_errors;
          Alcotest.test_case "incremental add-between-solves" `Quick test_dimacs_incremental;
          Alcotest.test_case "assumption core" `Quick test_dimacs_assumption_core;
          Alcotest.test_case "conflict-limit Unknown" `Quick test_dimacs_conflict_limit;
        ] );
      ( "stress",
        [ Alcotest.test_case "arena GC preserves verdicts" `Quick test_gc_stress ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest solver_matches_brute_force;
          QCheck_alcotest.to_alcotest model_satisfies_all_clauses;
          QCheck_alcotest.to_alcotest assumptions_match_added_units;
          QCheck_alcotest.to_alcotest incremental_equals_fresh;
          QCheck_alcotest.to_alcotest failed_assumptions_are_sound;
          QCheck_alcotest.to_alcotest dimacs_roundtrip_random;
        ] );
      ("encodings", [ Alcotest.test_case "xor systems" `Quick test_xor_system ]);
    ]
