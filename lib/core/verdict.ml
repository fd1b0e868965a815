type t = Proved | Falsified of int | Undecided of string

let agrees_with_oracle t ~safe ~depth =
  match (t, safe, depth) with
  | Proved, true, _ -> true
  | Falsified d, false, Some expected -> d = expected
  | Falsified _, false, None -> true
  | Undecided _, _, _ -> true (* inconclusive is never wrong *)
  | Proved, false, _ | Falsified _, true, _ -> false

let to_meta = function
  | Proved -> "proved"
  | Falsified d -> Printf.sprintf "falsified:%d" d
  | Undecided _ -> "undecided"

let pp ppf = function
  | Proved -> Format.pp_print_string ppf "PROVED"
  | Falsified d -> Format.fprintf ppf "FALSIFIED(%d)" d
  | Undecided why -> Format.fprintf ppf "UNDECIDED(%s)" why
