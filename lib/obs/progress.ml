(* Live traversal progress on stderr: one line per reachability frame
   with the frame index, the AIG node count of the frontier, the merge
   counts by provenance (read from the registry, so collection must be
   enabled) and the elapsed wall time. On a TTY the line is rewritten in
   place; on a pipe each frame gets its own line.

   The traversal engines notify through [frame]; its disabled path (no
   [start] call, no listener) is a domain-local load and two branches,
   once per frame. *)

let active = ref false
let out = ref stderr
let is_tty = ref false
let watch = ref (Util.Stopwatch.start ())
let last_width = ref 0

(* [?tty] overrides the isatty detection — tests exercising the
   in-place rewrite path capture output through a pipe *)
let start ?(channel = stderr) ?tty () =
  out := channel;
  is_tty :=
    (match tty with
    | Some b -> b
    | None -> (
      try Unix.isatty (Unix.descr_of_out_channel channel) with Unix.Unix_error _ -> false));
  watch := Util.Stopwatch.start ();
  last_width := 0;
  active := true

let render ~index ~nodes =
  Printf.sprintf "frame %4d  frontier=%d nodes  merges hash=%d sim=%d bdd=%d sat=%d  %.1fs"
    index nodes
    (Registry.value_of "sweep.merge.hash")
    (Registry.value_of "sweep.merge.sim")
    (Registry.value_of "sweep.merge.bdd")
    (Registry.value_of "sweep.merge.sat")
    (Util.Stopwatch.elapsed !watch)

let emit line =
  if !is_tty then begin
    (* pad with spaces so a shorter line fully overwrites the previous *)
    let pad = max 0 (!last_width - String.length line) in
    Printf.fprintf !out "\r%s%s%!" line (String.make pad ' ');
    last_width := String.length line
  end
  else Printf.fprintf !out "%s\n%!" line

(* The frame listener of the calling domain: a serve worker binds its
   job's for the length of the engine run, so every frame the run emits
   on that domain reaches that job's client and no other. *)
let listener : (index:int -> nodes:int -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_listener f run =
  let outer = Domain.DLS.get listener in
  Domain.DLS.set listener (Some f);
  Fun.protect ~finally:(fun () -> Domain.DLS.set listener outer) run

let frame ~index ~nodes =
  (match Domain.DLS.get listener with Some f -> f ~index ~nodes | None -> ());
  if !active then emit (render ~index ~nodes)

(* Traversal engines notify here at run entry: without it, back-to-back
   runs in one process (bench rows, tests) would report elapsed times
   measured from the single explicit [start] call — stale by however
   long the earlier runs took. *)
let begin_run () =
  if !active then begin
    watch := Util.Stopwatch.start ();
    if !is_tty && !last_width > 0 then Printf.fprintf !out "\n%!";
    last_width := 0
  end

let finish () =
  if !active then begin
    if !is_tty && !last_width > 0 then Printf.fprintf !out "\n%!";
    active := false;
    last_width := 0
  end
