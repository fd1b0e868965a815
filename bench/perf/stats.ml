(* Summary statistics shared by the harness and its tests. *)

(* Nearest-rank percentile: the smallest sample with at least [p] per
   cent of the samples at or below it. [p] is in (0, 100]. The empty
   list has no percentile; callers report 0 for it. *)
let percentile p = function
  | [] -> 0.0
  | samples ->
    let sorted = Array.of_list samples in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* The middle sample, or the mean of the middle two: how repeated
   measurements of one quantity are summarised. *)
let median = function
  | [] -> 0.0
  | samples ->
    let sorted = Array.of_list samples in
    Array.sort compare sorted;
    let n = Array.length sorted in
    if n mod 2 = 1 then sorted.(n / 2) else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

(* Geometric mean of positive samples, so a 2x gain on a 5 ms job
   moves it as much as a 2x gain on a 5 s job. *)
let geomean = function
  | [] -> 0.0
  | samples ->
    let logs = List.fold_left (fun acc x -> acc +. log x) 0.0 samples in
    exp (logs /. float_of_int (List.length samples))

(* [ratio a b] is a / b, or 0 when nothing was attempted. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b
