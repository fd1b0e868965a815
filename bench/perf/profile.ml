(* Self-time profile of a trace-ring snapshot.

   Begin/end events pair up per emitting domain ([ev_tid]) on a stack.
   A phase's self time is its duration minus the durations of the
   phases nested directly inside it on the same lane. Broken nesting is
   counted, never repaired: an end whose name differs from the open
   begin, an end with nothing open, and a begin still open when the
   snapshot ends (the export's repair would stretch it to the last
   timestamp and invent time). A profile with any of these is not
   trustworthy and the traced run fails on it. *)

type phase = { mutable calls : int; mutable total : float; mutable self : float }

type t = {
  phases : (int * string, phase) Hashtbl.t;  (** (lane, name) → totals *)
  by_parent : (string * string, float) Hashtbl.t;
      (** (name, enclosing phase name, [""] at top level) → total seconds *)
  durations : (string, float list) Hashtbl.t;  (** name → every call's duration *)
  mutable events : int;
  mutable unclosed : int;
  mutable unmatched : int;
}

let create () =
  {
    phases = Hashtbl.create 64;
    by_parent = Hashtbl.create 64;
    durations = Hashtbl.create 16;
    events = 0;
    unclosed = 0;
    unmatched = 0;
  }

let phase t key =
  match Hashtbl.find_opt t.phases key with
  | Some p -> p
  | None ->
    let p = { calls = 0; total = 0.0; self = 0.0 } in
    Hashtbl.replace t.phases key p;
    p

let bump tbl key dt =
  Hashtbl.replace tbl key (dt +. Option.value (Hashtbl.find_opt tbl key) ~default:0.0)

type frame = { name : string; start : float; mutable children : float }

(* Fold one snapshot (oldest event first) into [t]. *)
let add t (events : Obs.Trace_events.event list) =
  let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 4 in
  let stack tid = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
  List.iter
    (fun (e : Obs.Trace_events.event) ->
      t.events <- t.events + 1;
      let ts = e.ev_ts *. 1e-6 in
      match e.ev_ph with
      | 'B' ->
        Hashtbl.replace stacks e.ev_tid ({ name = e.ev_name; start = ts; children = 0.0 } :: stack e.ev_tid)
      | 'E' -> (
        match stack e.ev_tid with
        | [] -> t.unmatched <- t.unmatched + 1
        | f :: rest ->
          Hashtbl.replace stacks e.ev_tid rest;
          if f.name <> e.ev_name then t.unmatched <- t.unmatched + 1
          else begin
            let dt = ts -. f.start in
            let p = phase t (e.ev_tid, f.name) in
            p.calls <- p.calls + 1;
            p.total <- p.total +. dt;
            p.self <- p.self +. (dt -. f.children);
            let parent =
              match rest with
              | up :: _ ->
                up.children <- up.children +. dt;
                up.name
              | [] -> ""
            in
            bump t.by_parent (f.name, parent) dt;
            Hashtbl.replace t.durations f.name
              (dt :: Option.value (Hashtbl.find_opt t.durations f.name) ~default:[])
          end)
      | _ -> ())
    events;
  Hashtbl.iter (fun _ s -> t.unclosed <- t.unclosed + List.length s) stacks

(* Fold [src] into [dst]. *)
let merge ~into:dst src =
  Hashtbl.iter
    (fun key p ->
      let q = phase dst key in
      q.calls <- q.calls + p.calls;
      q.total <- q.total +. p.total;
      q.self <- q.self +. p.self)
    src.phases;
  Hashtbl.iter (fun key dt -> bump dst.by_parent key dt) src.by_parent;
  Hashtbl.iter
    (fun name ds ->
      Hashtbl.replace dst.durations name
        (ds @ Option.value (Hashtbl.find_opt dst.durations name) ~default:[]))
    src.durations;
  dst.events <- dst.events + src.events;
  dst.unclosed <- dst.unclosed + src.unclosed;
  dst.unmatched <- dst.unmatched + src.unmatched

let sum_phases ?tid t name field =
  Hashtbl.fold
    (fun (lane, n) p acc ->
      if n = name && (tid = None || tid = Some lane) then acc +. field p else acc)
    t.phases 0.0

(* Across all lanes. *)
let self_s ?tid t name = sum_phases ?tid t name (fun p -> p.self)
let total_s ?tid t name = sum_phases ?tid t name (fun p -> p.total)
let calls t name = int_of_float (sum_phases t name (fun p -> float_of_int p.calls))

(* Seconds of [name] spent directly inside a phase accepted by [parent]. *)
let time_under t name ~parent =
  Hashtbl.fold
    (fun (n, up) dt acc -> if n = name && parent up then acc +. dt else acc)
    t.by_parent 0.0

let durations t name = Option.value (Hashtbl.find_opt t.durations name) ~default:[]

(* Sum of the self times of every phase on lane [tid] except the
   [excluded] ones. When nesting is sound, the self times of a phase
   and everything inside it add up to the phase's own duration. *)
let lane_self_s t ~tid ~excluded =
  Hashtbl.fold
    (fun (lane, n) p acc -> if lane = tid && not (List.mem n excluded) then acc +. p.self else acc)
    t.phases 0.0
