type resource = Deadline | Conflicts | Aig_nodes | Bdd_nodes | Cancelled

(* Domain-safe: the pools are atomics drained with fetch-and-add, the
   sticky trip is a CAS whose winner fires the notify hook exactly once.
   Budget reads clamp at 0 — a pool that several domains drain
   concurrently may go transiently negative inside the atomic. *)
type t = {
  started : Stopwatch.t;
  deadline : float option; (* absolute monotonic time *)
  conflicts_left : int Atomic.t;
  conflicts_limited : bool;
  max_aig_nodes : int option;
  aig_seen : int Atomic.t; (* high-water node count from check_aig_nodes *)
  bdd_left : int Atomic.t;
  bdd_limited : bool;
  tripped : resource option Atomic.t; (* sticky: the first fatal trip *)
  mutable notify : resource -> unit;
}

let make ?timeout ?max_conflicts ?max_aig_nodes ?max_bdd_nodes () =
  let started = Stopwatch.start () in
  {
    started;
    deadline = Option.map (fun s -> Stopwatch.now () +. s) timeout;
    conflicts_left = Atomic.make (Option.value max_conflicts ~default:max_int);
    conflicts_limited = max_conflicts <> None;
    max_aig_nodes;
    aig_seen = Atomic.make 0;
    bdd_left = Atomic.make (Option.value max_bdd_nodes ~default:max_int);
    bdd_limited = max_bdd_nodes <> None;
    tripped = Atomic.make None;
    notify = ignore;
  }

let unlimited = make ()
let create = make

type budget = {
  timeout : float option;
  max_conflicts : int option;
  max_aig_nodes : int option;
  max_bdd_nodes : int option;
}

let no_budget = { timeout = None; max_conflicts = None; max_aig_nodes = None; max_bdd_nodes = None }

let of_budget b =
  make ?timeout:b.timeout ?max_conflicts:b.max_conflicts ?max_aig_nodes:b.max_aig_nodes
    ?max_bdd_nodes:b.max_bdd_nodes ()

let is_limited t =
  t.deadline <> None || t.conflicts_limited || t.max_aig_nodes <> None || t.bdd_limited

let exhausted t = Atomic.get t.tripped

let resource_name = function
  | Deadline -> "deadline"
  | Conflicts -> "conflict pool"
  | Aig_nodes -> "aig node ceiling"
  | Bdd_nodes -> "bdd node pool"
  | Cancelled -> "cancelled"


let maybe_reason t = resource_name (Option.value (Atomic.get t.tripped) ~default:Conflicts)

let trip t r =
  if Atomic.get t.tripped = None && Atomic.compare_and_set t.tripped None (Some r) then
    t.notify r

(* [unlimited] is a process-wide shared constant: cancelling it would
   poison every unbudgeted run in the process, so refuse loudly *)
let cancel t =
  if t == unlimited then invalid_arg "Limits.cancel: cannot cancel the shared unlimited governor";
  trip t Cancelled

let check t =
  (match (Atomic.get t.tripped, t.deadline) with
  | None, Some d -> if Stopwatch.now () >= d then trip t Deadline
  | (Some _ | None), _ -> ());
  Atomic.get t.tripped

(* remember the largest node count ever checked, so the sampler can
   report headroom without reaching into the AIG manager *)
let rec note_aig t n =
  let seen = Atomic.get t.aig_seen in
  if n > seen && not (Atomic.compare_and_set t.aig_seen seen n) then note_aig t n

let check_aig_nodes t n =
  note_aig t n;
  (match (Atomic.get t.tripped, t.max_aig_nodes) with
  | None, Some ceiling -> if n > ceiling then trip t Aig_nodes
  | (Some _ | None), _ -> ());
  check t

let conflict_budget t =
  if t.conflicts_limited then Some (max 0 (Atomic.get t.conflicts_left)) else None

let charge_conflicts t n =
  if t.conflicts_limited && n > 0 then begin
    let before = Atomic.fetch_and_add t.conflicts_left (-n) in
    if before - n <= 0 then trip t Conflicts
  end

let bdd_budget t = if t.bdd_limited then Some (max 0 (Atomic.get t.bdd_left)) else None

let charge_bdd_nodes t n =
  if t.bdd_limited && n > 0 then ignore (Atomic.fetch_and_add t.bdd_left (-n))

let remaining_time t =
  Option.map (fun d -> Float.max 0. (d -. Stopwatch.now ())) t.deadline

let aig_headroom t =
  Option.map (fun ceiling -> max 0 (ceiling - Atomic.get t.aig_seen)) t.max_aig_nodes

let elapsed t = Stopwatch.elapsed t.started
let set_notify t f = t.notify <- f
