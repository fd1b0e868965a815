(* What one job's answer counts as. A decided verdict must agree with
   the registry's by-construction status, and a counterexample must
   replay. An engine's own method bound (BMC's depth ceiling, an
   aborted quantification) is an honest Undecided; an Undecided caused
   by the per-job governor tripping means the job ran out of time, and
   that counts as a failure like a wrong answer, a crash or a refusal. *)

type t = Decided | Bounded | Failed of string

let classify ~(status : Circuits.Registry.status) ~(verdict : Baselines.Verdict.t)
    ~(exhausted : Util.Limits.resource option) ~(trace_ok : bool option) =
  let safe, depth =
    match status with Circuits.Registry.Safe -> (true, None) | Unsafe d -> (false, Some d)
  in
  match verdict with
  | Baselines.Verdict.Undecided why -> (
    match exhausted with
    | Some r -> Failed (Printf.sprintf "governor tripped (%s): %s" (Util.Limits.resource_name r) why)
    | None -> Bounded)
  | v when not (Baselines.Verdict.agrees_with_oracle v ~safe ~depth) ->
    Failed (Format.asprintf "wrong verdict %a" Baselines.Verdict.pp v)
  | _ when trace_ok = Some false -> Failed "counterexample does not replay"
  | _ -> Decided

let is_failed = function Failed _ -> true | Decided | Bounded -> false
let count p outcomes = List.length (List.filter p outcomes)
let decided outcomes = count (( = ) Decided) outcomes
let failed outcomes = count is_failed outcomes

(* The harness's exit status: any failed job, or a traced run whose
   profile cannot be trusted, fails the whole run. *)
let exit_code ~failed ~profile_errors = if failed > 0 || profile_errors > 0 then 1 else 0
