(* Shared builders for the test suite. Every module in
   this directory that is not itself a test entry point is linked into
   all the test executables, so the [expr] helpers that used to be
   copy-pasted per file live here once, and the random sequential
   machines come from the production generator ([Fuzz.Gen]) the
   differential fuzzer uses. *)

type expr = V of int | Not of expr | And of expr * expr | Or of expr * expr | Xor of expr * expr

(* [size] bounds the QCheck size parameter (gate count, roughly);
   BDD-heavy properties use a smaller default to keep runtimes flat *)
let expr_gen ?(size = 20) n =
  QCheck.Gen.(
    sized_size (int_bound size)
      (fix (fun self s ->
           if s <= 1 then map (fun v -> V v) (int_bound (n - 1))
           else
             frequency
               [
                 (1, map (fun v -> V v) (int_bound (n - 1)));
                 (2, map (fun e -> Not e) (self (s - 1)));
                 (2, map2 (fun a b -> And (a, b)) (self (s / 2)) (self (s / 2)));
                 (2, map2 (fun a b -> Or (a, b)) (self (s / 2)) (self (s / 2)));
                 (1, map2 (fun a b -> Xor (a, b)) (self (s / 2)) (self (s / 2)));
               ])))

let rec build_aig aig = function
  | V v -> Aig.var aig v
  | Not e -> Aig.not_ (build_aig aig e)
  | And (a, b) -> Aig.and_ aig (build_aig aig a) (build_aig aig b)
  | Or (a, b) -> Aig.or_ aig (build_aig aig a) (build_aig aig b)
  | Xor (a, b) -> Aig.xor_ aig (build_aig aig a) (build_aig aig b)

let rec build_bdd man = function
  | V v -> Bdd.var_node man v
  | Not e -> Bdd.not_ man (build_bdd man e)
  | And (a, b) -> Bdd.and_ man (build_bdd man a) (build_bdd man b)
  | Or (a, b) -> Bdd.or_ man (build_bdd man a) (build_bdd man b)
  | Xor (a, b) -> Bdd.xor_ man (build_bdd man a) (build_bdd man b)

let rec eval_expr env = function
  | V v -> env v
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Or (a, b) -> eval_expr env a || eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b

let qc_expr ?size nvars = QCheck.make ~print:(fun _ -> "<expr>") (expr_gen ?size nvars)

let qc_pair ?size nvars =
  QCheck.make ~print:(fun _ -> "<exprs>")
    QCheck.Gen.(pair (expr_gen ?size nvars) (expr_gen ?size nvars))

(* small machines every engine decides quickly without a budget: the
   shape the integration suite's cross-engine consistency checks ran on
   before the fuzzer existed *)
let machine_knobs =
  {
    Fuzz.Gen.default with
    Fuzz.Gen.min_latches = 3;
    max_latches = 4;
    min_inputs = 1;
    max_inputs = 2;
    property = Fuzz.Gen.Clause;
  }

let random_machine ?(knobs = machine_knobs) seed () = Fuzz.Gen.model ~knobs ~seed ()

(* BMC towards an arbitrary state set: at each depth the deepening loop
   asks whether [frontier], a literal over the state variables, holds on
   the unrolled frame *)
let bmc_to_frontier model ~frontier ~max_depth =
  let aig = Netlist.Model.aig model in
  let state_vars = Netlist.Model.state_vars model in
  Cbq.Unroll.deepen ~limits:Util.Limits.unlimited ~max_depth ~bound:"bound" model
    (fun checker ->
      let unroll = Cbq.Unroll.create model in
      fun k ->
        let subst v =
          if List.mem v state_vars then Some (Cbq.Unroll.state_lit unroll ~frame:k v) else None
        in
        Cbq.Unroll.cex_at unroll checker ~target:(Aig.compose aig frontier ~subst) ~depth:k)
