(* Tseitin bridge and checker tests: SAT answers must agree with
   brute-force evaluation of the AIG cones, across one shared clause
   database. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let answer_t =
  Alcotest.testable
    (fun ppf -> function
      | Cnf.Checker.Yes -> Format.pp_print_string ppf "Yes"
      | Cnf.Checker.No -> Format.pp_print_string ppf "No"
      | Cnf.Checker.Maybe -> Format.pp_print_string ppf "Maybe")
    ( = )

let eval_mask aig l mask = Aig.eval aig l (fun v -> (mask lsr v) land 1 = 1)

let brute_sat aig nvars lits =
  let rec go mask =
    mask < 1 lsl nvars
    && (List.for_all (fun l -> eval_mask aig l mask) lits || go (mask + 1))
  in
  go 0

(* ---------- tseitin ---------- *)

let test_tseitin_basics () =
  let aig = Aig.create () in
  let ts = Cnf.Tseitin.create aig in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  let f = Aig.and_ aig x y in
  let sl = Cnf.Tseitin.sat_lit ts f in
  let solver = Cnf.Tseitin.solver ts in
  check bool "f satisfiable" true (Sat.Solver.solve ~assumptions:[ sl ] solver = Sat.Solver.Sat);
  check bool "model sets x" true (Cnf.Tseitin.model_var ts 0);
  check bool "model sets y" true (Cnf.Tseitin.model_var ts 1);
  (* ~f with f's clauses already loaded *)
  let nsl = Cnf.Tseitin.sat_lit ts (Aig.not_ f) in
  check bool "~f satisfiable" true (Sat.Solver.solve ~assumptions:[ nsl ] solver = Sat.Solver.Sat);
  check bool "f & ~f unsat" true
    (Sat.Solver.solve ~assumptions:[ sl; nsl ] solver = Sat.Solver.Unsat)

let test_tseitin_constants () =
  let aig = Aig.create () in
  let ts = Cnf.Tseitin.create aig in
  let solver = Cnf.Tseitin.solver ts in
  let t = Cnf.Tseitin.sat_lit ts Aig.true_ in
  check bool "true satisfiable" true (Sat.Solver.solve ~assumptions:[ t ] solver = Sat.Solver.Sat);
  let f = Cnf.Tseitin.sat_lit ts Aig.false_ in
  check bool "false unsatisfiable" true
    (Sat.Solver.solve ~assumptions:[ f ] solver = Sat.Solver.Unsat)

let test_tseitin_incremental_sharing () =
  let aig = Aig.create () in
  let ts = Cnf.Tseitin.create aig in
  let x = Aig.var aig 0 and y = Aig.var aig 1 and z = Aig.var aig 2 in
  let f = Aig.and_ aig x y in
  ignore (Cnf.Tseitin.sat_lit ts f);
  let encoded_before = Cnf.Tseitin.encoded_nodes ts in
  (* a cone that shares f adds only the new nodes *)
  let g = Aig.and_ aig f z in
  ignore (Cnf.Tseitin.sat_lit ts g);
  let encoded_after = Cnf.Tseitin.encoded_nodes ts in
  (* one new AND node and one new leaf; f's cone is reused *)
  check int "only the new nodes encoded" (encoded_before + 2) encoded_after;
  (* re-encoding is free *)
  ignore (Cnf.Tseitin.sat_lit ts g);
  check int "idempotent" encoded_after (Cnf.Tseitin.encoded_nodes ts)

(* ---------- checker ---------- *)

let test_checker_satisfiable () =
  let aig = Aig.create () in
  let ch = Cnf.Checker.create aig in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  check answer_t "x & y" Cnf.Checker.Yes (Cnf.Checker.satisfiable ch [ x; y ]);
  check answer_t "x & ~x" Cnf.Checker.No (Cnf.Checker.satisfiable ch [ x; Aig.not_ x ]);
  check answer_t "short-circuit constant false" Cnf.Checker.No
    (Cnf.Checker.satisfiable ch [ x; Aig.false_ ]);
  check answer_t "empty conjunction" Cnf.Checker.Yes (Cnf.Checker.satisfiable ch [])

let test_checker_equal () =
  let aig = Aig.create () in
  let ch = Cnf.Checker.create aig in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  (* De Morgan *)
  let lhs = Aig.not_ (Aig.and_ aig x y) in
  let rhs = Aig.or_ aig (Aig.not_ x) (Aig.not_ y) in
  check answer_t "de morgan" Cnf.Checker.Yes (Cnf.Checker.equal ch lhs rhs);
  check answer_t "x != y" Cnf.Checker.No (Cnf.Checker.equal ch x y);
  check answer_t "literal equality shortcut" Cnf.Checker.Yes (Cnf.Checker.equal ch x x);
  check answer_t "complement shortcut" Cnf.Checker.No (Cnf.Checker.equal ch x (Aig.not_ x))

let test_checker_equal_under () =
  let aig = Aig.create () in
  let ch = Cnf.Checker.create aig in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  (* under the care set x, the functions y and x&y coincide *)
  check answer_t "DC equality" Cnf.Checker.Yes
    (Cnf.Checker.equal_under ch ~care:x y (Aig.and_ aig x y));
  (* globally they differ *)
  check answer_t "global difference" Cnf.Checker.No
    (Cnf.Checker.equal ch y (Aig.and_ aig x y));
  (* under an unsatisfiable care set everything is equal *)
  check answer_t "empty care set" Cnf.Checker.Yes
    (Cnf.Checker.equal_under ch ~care:Aig.false_ x y)

let test_checker_model () =
  let aig = Aig.create () in
  let ch = Cnf.Checker.create aig in
  let x = Aig.var aig 0 and y = Aig.var aig 1 in
  let f = Aig.and_ aig x (Aig.not_ y) in
  check answer_t "sat" Cnf.Checker.Yes (Cnf.Checker.satisfiable ch [ f ]);
  check bool "model x" true (Cnf.Checker.model_var ch 0);
  check bool "model y" false (Cnf.Checker.model_var ch 1);
  let assignment = Cnf.Checker.model ch [ 0; 1 ] in
  check bool "model list" true (assignment = [ (0, true); (1, false) ])

let test_checker_budget () =
  let aig = Aig.create () in
  let ch = Cnf.Checker.create aig in
  (* encode a pigeonhole-like hard instance as an AIG *)
  let holes = 7 in
  let pigeons = holes + 1 in
  let var p h = Aig.var aig ((p * holes) + h) in
  let per_pigeon =
    List.init pigeons (fun p -> Aig.or_list aig (List.init holes (fun h -> var p h)))
  in
  let no_share =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then
                  Some (Aig.not_ (Aig.and_ aig (var p1 h) (var p2 h)))
                else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  let formula = Aig.and_list aig (per_pigeon @ no_share) in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false; Obs.reset ()) @@ fun () ->
  check answer_t "budget cuts off" Cnf.Checker.Maybe
    (Cnf.Checker.satisfiable ~conflict_limit:3 ch [ formula ]);
  check int "cutoff counted" 1 (Obs.value_of "cnf.budget_cutoffs");
  (* the budget belonged to that query alone: the next one, with no
     reset in between, is exact *)
  check answer_t "next query decides" Cnf.Checker.No (Cnf.Checker.satisfiable ch [ formula ])

let test_query_counter () =
  let aig = Aig.create () in
  let ch = Cnf.Checker.create aig in
  let x = Aig.var aig 0 in
  let q0 = Cnf.Checker.queries ch in
  ignore (Cnf.Checker.satisfiable ch [ x ]);
  ignore (Cnf.Checker.equal ch x (Aig.var aig 1));
  check bool "queries counted" true (Cnf.Checker.queries ch > q0)

(* ---------- properties: random cones vs brute force ---------- *)

let nvars = 4
let build = Gen_util.build_aig
let qc_expr = Gen_util.qc_expr ~size:16 nvars

let sat_matches_brute_force =
  QCheck.Test.make ~name:"checker satisfiable = enumeration" ~count:200 qc_expr (fun e ->
      let aig = Aig.create () in
      let ch = Cnf.Checker.create aig in
      let l = build aig e in
      let expected = brute_sat aig nvars [ l ] in
      match Cnf.Checker.satisfiable ch [ l ] with
      | Cnf.Checker.Yes -> expected
      | Cnf.Checker.No -> not expected
      | Cnf.Checker.Maybe -> false)

let equal_matches_semantics =
  QCheck.Test.make ~name:"checker equal = semantic equality" ~count:200
    (QCheck.pair qc_expr qc_expr) (fun (e1, e2) ->
      let aig = Aig.create () in
      let ch = Cnf.Checker.create aig in
      let a = build aig e1 and b = build aig e2 in
      let semantic =
        let rec go mask =
          mask >= 1 lsl nvars
          || (eval_mask aig a mask = eval_mask aig b mask && go (mask + 1))
        in
        go 0
      in
      match Cnf.Checker.equal ch a b with
      | Cnf.Checker.Yes -> semantic
      | Cnf.Checker.No -> not semantic
      | Cnf.Checker.Maybe -> false)

let model_is_witness =
  QCheck.Test.make ~name:"checker models satisfy the query" ~count:200 qc_expr (fun e ->
      let aig = Aig.create () in
      let ch = Cnf.Checker.create aig in
      let l = build aig e in
      match Cnf.Checker.satisfiable ch [ l ] with
      | Cnf.Checker.Yes -> Aig.eval aig l (fun v -> Cnf.Checker.model_var ch v)
      | Cnf.Checker.No | Cnf.Checker.Maybe -> true)

let shared_database_consistency =
  (* many queries on one checker must each be answered as if fresh *)
  QCheck.Test.make ~name:"query results independent of query history" ~count:50
    (QCheck.list_of_size (QCheck.Gen.int_range 2 8) qc_expr)
    (fun exprs ->
      let aig = Aig.create () in
      let shared = Cnf.Checker.create aig in
      let lits = List.map (build aig) exprs in
      List.for_all
        (fun l ->
          let expected = brute_sat aig nvars [ l ] in
          match Cnf.Checker.satisfiable shared [ l ] with
          | Cnf.Checker.Yes -> expected
          | Cnf.Checker.No -> not expected
          | Cnf.Checker.Maybe -> false)
        lits)

let equal_under_matches_semantics =
  QCheck.Test.make ~name:"equal_under = pointwise equality on the care onset" ~count:150
    (QCheck.triple qc_expr qc_expr qc_expr) (fun (ec, e1, e2) ->
      let aig = Aig.create () in
      let ch = Cnf.Checker.create aig in
      let care = build aig ec and a = build aig e1 and b = build aig e2 in
      let semantic =
        let rec go mask =
          mask >= 1 lsl nvars
          || (((not (eval_mask aig care mask))
              || eval_mask aig a mask = eval_mask aig b mask)
             && go (mask + 1))
        in
        go 0
      in
      match Cnf.Checker.equal_under ch ~care a b with
      | Cnf.Checker.Yes -> semantic
      | Cnf.Checker.No -> not semantic
      | Cnf.Checker.Maybe -> false)

let () =
  Alcotest.run "cnf"
    [
      ( "tseitin",
        [
          Alcotest.test_case "encode and solve" `Quick test_tseitin_basics;
          Alcotest.test_case "constants" `Quick test_tseitin_constants;
          Alcotest.test_case "incremental sharing" `Quick test_tseitin_incremental_sharing;
        ] );
      ( "checker",
        [
          Alcotest.test_case "satisfiable" `Quick test_checker_satisfiable;
          Alcotest.test_case "equal" `Quick test_checker_equal;
          Alcotest.test_case "equal under care set" `Quick test_checker_equal_under;
          Alcotest.test_case "model extraction" `Quick test_checker_model;
          Alcotest.test_case "conflict budget" `Quick test_checker_budget;
          Alcotest.test_case "query counter" `Quick test_query_counter;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest sat_matches_brute_force;
          QCheck_alcotest.to_alcotest equal_matches_semantics;
          QCheck_alcotest.to_alcotest model_is_witness;
          QCheck_alcotest.to_alcotest shared_database_consistency;
          QCheck_alcotest.to_alcotest equal_under_matches_semantics;
        ] );
    ]
