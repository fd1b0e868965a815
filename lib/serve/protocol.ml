(* Wire protocol of the job daemon: newline-delimited JSON frames, one
   request or event per line, over a Unix or TCP stream socket.

   Requests flow client -> server, events server -> client. A [Submit]
   carries the model as ASCII AIGER bytes (text, unlike the binary
   AIGER that [Par.Clone] freezes through, which is raw bytes), the
   engine name from [Baselines.Suite.names], and an optional
   per-resource budget that the server caps against its own ceiling
   ({!cap}). Every accepted job's lifecycle is streamed back as events
   correlated by the server-assigned id: [Accepted] (paired to the
   submit by its client tag), then [Started], zero or more [Progress]
   frames, and exactly one terminal [Done] or [Failed].

   The codec is total: {!request_of_line}/{!event_of_line} return
   [Error] on malformed frames instead of raising, so a hostile peer
   cannot kill the daemon with garbage. *)

type budget = Util.Limits.budget = {
  timeout : float option;
  max_conflicts : int option;
  max_aig_nodes : int option;
  max_bdd_nodes : int option;
}

let no_budget = Util.Limits.no_budget

(* The server-enforced ceiling: a client may ask for less than the
   ceiling, never more; an omitted client resource inherits the ceiling
   bound. *)
let cap ~ceiling b =
  let capf c v = match (c, v) with
    | None, v -> v
    | (Some _ as c), None -> c
    | Some c, Some v -> Some (Float.min c v)
  in
  let capi c v = match (c, v) with
    | None, v -> v
    | (Some _ as c), None -> c
    | Some c, Some v -> Some (min c v)
  in
  {
    timeout = capf ceiling.timeout b.timeout;
    max_conflicts = capi ceiling.max_conflicts b.max_conflicts;
    max_aig_nodes = capi ceiling.max_aig_nodes b.max_aig_nodes;
    max_bdd_nodes = capi ceiling.max_bdd_nodes b.max_bdd_nodes;
  }

type address = Unix_path of string | Tcp of string * int

let pp_address ppf = function
  | Unix_path p -> Format.fprintf ppf "unix:%s" p
  | Tcp (h, p) -> Format.fprintf ppf "%s:%d" h p

type request =
  | Submit of {
      tag : string;  (** client-chosen correlation key for the [Accepted] reply *)
      model_name : string;
      aig : string;  (** ASCII AIGER bytes *)
      engine : string;
      budget : budget;
      quantify_backend : string option;
          (* optional on the wire, and only ever ["circuit"] *)
    }
  | Cancel of { id : int }
  | Ping
  | Stats
  | Shutdown

let submit ~tag ~model_name ~aig ~engine ~budget =
  Submit { tag; model_name; aig; engine; budget; quantify_backend = None }

type event =
  | Accepted of { tag : string; id : int }
  | Rejected of { tag : string; reason : string }
  | Started of { id : int }
  | Progress of { id : int; frame : int; nodes : int }
  | Done of {
      id : int;
      verdict : Baselines.Verdict.t;
      seconds : float;
      report : int option;  (** id in the server's run-report store, when stored *)
    }
  | Failed of { id : int; message : string }
  | Pong
  | Stats_reply of { queued : int; running : int; completed : int; workers : int }
  | Bye
  | Protocol_error of { message : string }

(* ---------- encoding ---------- *)

module J = Obs.Json

let budget_fields b =
  let f k = function Some v -> [ (k, J.Float v) ] | None -> [] in
  let i k = function Some v -> [ (k, J.Int v) ] | None -> [] in
  f "timeout" b.timeout
  @ i "max_conflicts" b.max_conflicts
  @ i "max_aig_nodes" b.max_aig_nodes
  @ i "max_bdd_nodes" b.max_bdd_nodes

let request_json = function
  | Submit { tag; model_name; aig; engine; budget; quantify_backend } ->
    J.Obj
      ([
         ("type", J.String "submit");
         ("tag", J.String tag);
         ("model", J.String model_name);
         ("engine", J.String engine);
         ("aig", J.String aig);
       ]
      @ (match quantify_backend with
        | Some b -> [ ("quantify_backend", J.String b) ]
        | None -> [])
      @ budget_fields budget)
  | Cancel { id } -> J.Obj [ ("type", J.String "cancel"); ("id", J.Int id) ]
  | Ping -> J.Obj [ ("type", J.String "ping") ]
  | Stats -> J.Obj [ ("type", J.String "stats") ]
  | Shutdown -> J.Obj [ ("type", J.String "shutdown") ]

let verdict_fields = function
  | Baselines.Verdict.Proved -> [ ("verdict", J.String "proved") ]
  | Baselines.Verdict.Falsified d -> [ ("verdict", J.String "falsified"); ("depth", J.Int d) ]
  | Baselines.Verdict.Undecided r -> [ ("verdict", J.String "undecided"); ("reason", J.String r) ]

let event_json = function
  | Accepted { tag; id } ->
    J.Obj [ ("type", J.String "accepted"); ("tag", J.String tag); ("id", J.Int id) ]
  | Rejected { tag; reason } ->
    J.Obj [ ("type", J.String "rejected"); ("tag", J.String tag); ("reason", J.String reason) ]
  | Started { id } -> J.Obj [ ("type", J.String "started"); ("id", J.Int id) ]
  | Progress { id; frame; nodes } ->
    J.Obj
      [ ("type", J.String "progress"); ("id", J.Int id); ("frame", J.Int frame); ("nodes", J.Int nodes) ]
  | Done { id; verdict; seconds; report } ->
    J.Obj
      ([ ("type", J.String "done"); ("id", J.Int id) ]
      @ verdict_fields verdict
      @ [ ("seconds", J.Float seconds) ]
      @ match report with Some r -> [ ("report", J.Int r) ] | None -> [])
  | Failed { id; message } ->
    J.Obj [ ("type", J.String "failed"); ("id", J.Int id); ("message", J.String message) ]
  | Pong -> J.Obj [ ("type", J.String "pong") ]
  | Stats_reply { queued; running; completed; workers } ->
    J.Obj
      [
        ("type", J.String "stats");
        ("queued", J.Int queued);
        ("running", J.Int running);
        ("completed", J.Int completed);
        ("workers", J.Int workers);
      ]
  | Bye -> J.Obj [ ("type", J.String "bye") ]
  | Protocol_error { message } ->
    J.Obj [ ("type", J.String "error"); ("message", J.String message) ]

let request_to_line r = J.to_string (request_json r)
let event_to_line e = J.to_string (event_json e)

(* ---------- decoding ---------- *)

let ( let* ) r f = Result.bind r f

(* An absent field is [None]; a present one of the wrong JSON type is an
   error naming the field, never a silent default. *)
let field ty decode key j =
  match J.member key j with
  | None -> Ok None
  | Some v -> (
    match decode v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "%S must be %s" key ty))

let str = field "a string" (function J.String s -> Some s | _ -> None)
let int = field "an integer" (function J.Int i -> Some i | _ -> None)

let float_ =
  field "a number" (function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None)

let required decode key j =
  let* v = decode key j in
  Option.to_result ~none:(Printf.sprintf "missing %S" key) v

let optional decode key j ~default = Result.map (Option.value ~default) (decode key j)

let budget_of_json j =
  let* timeout = float_ "timeout" j in
  let* max_conflicts = int "max_conflicts" j in
  let* max_aig_nodes = int "max_aig_nodes" j in
  let* max_bdd_nodes = int "max_bdd_nodes" j in
  Ok { timeout; max_conflicts; max_aig_nodes; max_bdd_nodes }

(* [circuit] is the only quantification backend; the field stays on the
   wire so frames that name it keep working, and any other name is
   refused rather than ignored *)
let quantify_backend_of_json j =
  let* backend = str "quantify_backend" j in
  match backend with
  | None | Some "circuit" -> Ok backend
  | Some other ->
    Error
      (Printf.sprintf "\"quantify_backend\" must be \"circuit\", the only backend (got %S)" other)

let parse line ~kind of_json =
  match J.of_string line with
  | Error msg -> Error (Printf.sprintf "%s frame is not JSON: %s" kind msg)
  | Ok (J.Obj _ as j) -> (
    match str "type" j with
    | Ok None -> Error (Printf.sprintf "%s frame has no \"type\"" kind)
    | Ok (Some ty) -> of_json ty j
    | Error msg -> Error msg)
  | Ok _ -> Error (Printf.sprintf "%s frame is not a JSON object" kind)

let request_of_line line =
  parse line ~kind:"request" (fun ty j ->
      match ty with
      | "submit" ->
        let* tag = required str "tag" j in
        let* model_name = required str "model" j in
        let* engine = required str "engine" j in
        let* aig = required str "aig" j in
        let* budget = budget_of_json j in
        let* quantify_backend = quantify_backend_of_json j in
        Ok (Submit { tag; model_name; aig; engine; budget; quantify_backend })
      | "cancel" ->
        let* id = required int "id" j in
        Ok (Cancel { id })
      | "ping" -> Ok Ping
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "unknown request type %S" other))

let verdict_of_json j =
  let* verdict = required str "verdict" j in
  match verdict with
  | "proved" -> Ok Baselines.Verdict.Proved
  | "falsified" ->
    let* d = required int "depth" j in
    Ok (Baselines.Verdict.Falsified d)
  | "undecided" ->
    let* reason = optional str "reason" j ~default:"" in
    Ok (Baselines.Verdict.Undecided reason)
  | other -> Error (Printf.sprintf "unknown verdict %S" other)

let event_of_line line =
  parse line ~kind:"event" (fun ty j ->
      match ty with
      | "accepted" ->
        let* tag = required str "tag" j in
        let* id = required int "id" j in
        Ok (Accepted { tag; id })
      | "rejected" ->
        let* tag = required str "tag" j in
        let* reason = optional str "reason" j ~default:"" in
        Ok (Rejected { tag; reason })
      | "started" ->
        let* id = required int "id" j in
        Ok (Started { id })
      | "progress" ->
        let* id = required int "id" j in
        let* frame = required int "frame" j in
        let* nodes = required int "nodes" j in
        Ok (Progress { id; frame; nodes })
      | "done" ->
        let* id = required int "id" j in
        let* verdict = verdict_of_json j in
        let* seconds = required float_ "seconds" j in
        let* report = int "report" j in
        Ok (Done { id; verdict; seconds; report })
      | "failed" ->
        let* id = required int "id" j in
        let* message = optional str "message" j ~default:"" in
        Ok (Failed { id; message })
      | "pong" -> Ok Pong
      | "stats" ->
        let* queued = required int "queued" j in
        let* running = required int "running" j in
        let* completed = required int "completed" j in
        let* workers = required int "workers" j in
        Ok (Stats_reply { queued; running; completed; workers })
      | "bye" -> Ok Bye
      | "error" ->
        let* message = optional str "message" j ~default:"" in
        Ok (Protocol_error { message })
      | other -> Error (Printf.sprintf "unknown event type %S" other))
