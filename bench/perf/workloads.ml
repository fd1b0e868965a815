(* The fixed job tables. A pass runs every entry [copies] times per
   round, for [rounds] rounds, in an order drawn from the seed and the
   pass number; the seed never changes which jobs run, so every seed
   measures the same work. Why each workload exists is written in
   README.md.

   The engine tables are sized so that one pass takes a few seconds
   and a run measures each job in several passes: on a shared machine
   load comes in bursts of several seconds, and the fastest of a job's
   passes is one that a burst missed. *)

type job = { model : string; param : int; engine : string }
type kind = Engine | Serve
type t = { name : string; kind : kind; table : (job * int) list; rounds : int }

let job engine model param = { model; param; engine }
let once engine jobs = List.map (fun (model, param) -> (job engine model param, 1)) jobs

let all =
  [
    {
      name = "bwd-deep";
      kind = Engine;
      rounds = 1;
      table =
        once "cbq-bwd"
          [
            ("counter", 5); ("tmr", 4); ("tmr", 3); ("accumulator", 5); ("fifo-buggy", 4);
            ("johnson", 10); ("arbiter", 12); ("mult-cmp", 12); ("mult-bug", 10);
          ];
    };
    {
      name = "fwd-image";
      kind = Engine;
      rounds = 1;
      table =
        once "cbq-fwd"
          [
            ("arbiter", 6); ("gray", 4); ("mult-cmp", 8); ("accumulator", 4); ("lfsr", 6);
            ("tmr", 2); ("johnson", 8); ("counter", 5);
          ];
    };
    {
      name = "baselines";
      kind = Engine;
      rounds = 1;
      table =
        once "bmc" [ ("johnson", 6); ("mult-cmp", 5) ]
        @ once "induction" [ ("tmr", 4); ("johnson", 10); ("mult-cmp", 8); ("fifo-buggy", 3) ]
        @ once "bdd-fwd" [ ("tmr", 3); ("arbiter", 8) ]
        @ once "bdd-bwd" [ ("tmr", 4); ("mult-cmp", 9) ];
    };
    {
      (* per round of 40 jobs: 50 % tiny, 30 % small, 20 % medium *)
      name = "serve-mix";
      kind = Serve;
      rounds = 25;
      table =
        List.map
          (fun (engine, model, param, copies) -> (job engine model param, copies))
          [
            ("cbq-bwd", "gray", 3, 5); ("bdd-bwd", "arbiter", 4, 5); ("bmc", "shift-pattern", 6, 5);
            ("cbq-bwd", "fifo", 3, 5);
            ("cbq-bwd", "counter", 3, 3); ("bmc", "counter", 4, 3); ("induction", "peterson", 0, 3);
            ("cbq-bwd", "mult-bug", 6, 3);
            ("cbq-bwd", "tmr", 3, 2); ("cbq-bwd", "johnson", 6, 2); ("cbq-fwd", "fifo-buggy", 2, 2);
            ("cbq-bwd", "accumulator", 4, 2);
          ];
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all
let distinct_jobs w = List.map fst w.table

(* The order of pass [pass]: indices into [distinct_jobs w], each
   repeated by its copies and the rounds, Fisher-Yates shuffled. *)
let sequence w ~seed ~pass =
  let indices =
    List.concat
      (List.mapi (fun i (_, copies) -> List.init (copies * w.rounds) (fun _ -> i)) w.table)
    |> Array.of_list
  in
  let rng = Random.State.make [| seed; pass |] in
  for i = Array.length indices - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = indices.(i) in
    indices.(i) <- indices.(j);
    indices.(j) <- x
  done;
  indices
