(* ---------- writing ---------- *)

let write m =
  let aig = Model.aig m in
  let next_lits = List.map (fun l -> l.Model.next) m.Model.latches in
  let bad = Aig.not_ m.Model.property in
  let roots = bad :: next_lits in
  let and_nodes = Aig.cone aig roots in
  (* AIGER variable numbering: inputs, then latches, then AND gates *)
  let var_index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* our node id -> aiger variable *)
  let counter = ref 0 in
  let assign_var node =
    incr counter;
    Hashtbl.replace var_index node !counter
  in
  List.iter (fun v -> assign_var (Aig.node_of_lit (Aig.var aig v))) m.Model.inputs;
  List.iter
    (fun l -> assign_var (Aig.node_of_lit (Aig.var aig l.Model.state_var)))
    m.Model.latches;
  List.iter assign_var and_nodes;
  let lit_to_aiger l =
    let n = Aig.node_of_lit l in
    if n = 0 then if Aig.is_complemented l then 1 else 0
    else
      match Hashtbl.find_opt var_index n with
      | Some v -> (2 * v) + if Aig.is_complemented l then 1 else 0
      | None -> failwith "Aiger.write: node outside the model cone"
  in
  let buf = Buffer.create 1024 in
  let ni = List.length m.Model.inputs and nl = List.length m.Model.latches in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d %d 1 %d\n" !counter ni nl (List.length and_nodes));
  List.iteri
    (fun i _ -> Buffer.add_string buf (Printf.sprintf "%d\n" (2 * (i + 1))))
    m.Model.inputs;
  List.iteri
    (fun i l ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n"
           (2 * (ni + i + 1))
           (lit_to_aiger l.Model.next)
           (if l.Model.init then 1 else 0)))
    m.Model.latches;
  Buffer.add_string buf (Printf.sprintf "%d\n" (lit_to_aiger bad));
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let lhs = 2 * Hashtbl.find var_index n in
      (* aag convention: lhs > rhs0 >= rhs1 *)
      let r0 = lit_to_aiger f0 and r1 = lit_to_aiger f1 in
      let r0, r1 = if r0 >= r1 then (r0, r1) else (r1, r0) in
      Buffer.add_string buf (Printf.sprintf "%d %d %d\n" lhs r0 r1))
    and_nodes;
  Buffer.add_string buf (Printf.sprintf "c\nmodel %s\n" (Model.name m));
  Buffer.contents buf

let write_file m path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write m))

(* ---------- reading ---------- *)

exception Parse_error of { line : int; token : string; reason : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; token; reason } ->
      Some
        (Printf.sprintf "Aiger.Parse_error (line %d%s): %s" line
           (if token = "" then "" else Printf.sprintf ", token %S" token)
           reason)
    | _ -> None)

let parse_error ~line ~token reason = raise (Parse_error { line; token; reason })

type header = { max_var : int; ni : int; nl : int; no : int; na : int }

(* parse tokens one by one so the diagnostic can name the offender *)
let int_field ~lineno token =
  match int_of_string_opt token with
  | Some n -> n
  | None -> parse_error ~line:lineno ~token "expected an integer"

let parse_header ~lineno line =
  match String.split_on_char ' ' (String.trim line) with
  | [ ("aag" | "aig"); m; i; l; o; a ] ->
    let count token =
      let n = int_field ~lineno token in
      if n < 0 then parse_error ~line:lineno ~token "expected a non-negative count";
      n
    in
    (* in field order, so the diagnostic names the first bad count *)
    let max_var = count m in
    let ni = count i in
    let nl = count l in
    let no = count o in
    let na = count a in
    { max_var; ni; nl; no; na }
  | _ -> parse_error ~line:lineno ~token:(String.trim line) "expected 'aag M I L O A' header"

let ints_of_line ~lineno line =
  List.map (int_field ~lineno) (String.split_on_char ' ' (String.trim line))

let read ~name text =
  if String.length text >= 4 && String.sub text 0 4 = "aig " then
    parse_error ~line:1 ~token:"aig" "binary document; use read_binary (or read_file)";
  let lines = String.split_on_char '\n' text in
  let lines = Array.of_list lines in
  if Array.length lines = 0 then parse_error ~line:1 ~token:"" "empty document";
  let h = parse_header ~lineno:1 lines.(0) in
  (* every input, latch, output and AND has a line of its own: bound each
     count by the document before summing, so the sum cannot overflow *)
  List.iter
    (fun n ->
      if n > Array.length lines then
        parse_error ~line:1 ~token:(string_of_int n)
          (Printf.sprintf "header count exceeds the document's %d lines" (Array.length lines)))
    [ h.ni; h.nl; h.no; h.na ];
  let expect_lines = 1 + h.ni + h.nl + h.no + h.na in
  if Array.length lines < expect_lines then
    parse_error ~line:(Array.length lines) ~token:""
      (Printf.sprintf "truncated document (expected %d lines)" expect_lines);
  let b = Builder.create name in
  let aig = Builder.aig b in
  (* aiger var -> our literal *)
  let lit_of_var : (int, Aig.lit) Hashtbl.t = Hashtbl.create 64 in
  let our_lit ~line al =
    if al = 0 then Aig.false_
    else if al = 1 then Aig.true_
    else
      match Hashtbl.find_opt lit_of_var (al / 2) with
      | Some l -> if al land 1 = 1 then Aig.not_ l else l
      | None -> parse_error ~line ~token:(string_of_int al) "undefined literal"
  in
  (* inputs *)
  let idx = ref 1 in
  for _ = 1 to h.ni do
    (match ints_of_line ~lineno:(!idx + 1) lines.(!idx) with
    | [ l ] when l mod 2 = 0 && l > 0 -> Hashtbl.replace lit_of_var (l / 2) (Builder.input b)
    | _ ->
      parse_error ~line:(!idx + 1) ~token:(String.trim lines.(!idx))
        "expected an input line: one even positive literal");
    incr idx
  done;
  (* latches: allocate state vars first, connect after ANDs are read *)
  let pending = ref [] in
  for _ = 1 to h.nl do
    (match ints_of_line ~lineno:(!idx + 1) lines.(!idx) with
    | [ cur; next ] when cur mod 2 = 0 && cur > 0 ->
      let q = Builder.latch b ~init:false in
      Hashtbl.replace lit_of_var (cur / 2) q;
      pending := (q, next, !idx + 1) :: !pending
    | [ cur; next; init ] when cur mod 2 = 0 && cur > 0 && (init = 0 || init = 1) ->
      let q = Builder.latch b ~init:(init = 1) in
      Hashtbl.replace lit_of_var (cur / 2) q;
      pending := (q, next, !idx + 1) :: !pending
    | _ ->
      parse_error ~line:(!idx + 1) ~token:(String.trim lines.(!idx))
        "expected a latch line: 'current next [init]'");
    incr idx
  done;
  (* outputs *)
  let outputs = ref [] in
  for _ = 1 to h.no do
    (match ints_of_line ~lineno:(!idx + 1) lines.(!idx) with
    | [ l ] -> outputs := (l, !idx + 1) :: !outputs
    | _ ->
      parse_error ~line:(!idx + 1) ~token:(String.trim lines.(!idx))
        "expected an output line: one literal");
    incr idx
  done;
  (* and gates; aag files list them with defined operands (topological) *)
  for _ = 1 to h.na do
    (match ints_of_line ~lineno:(!idx + 1) lines.(!idx) with
    | [ lhs; r0; r1 ] when lhs mod 2 = 0 && lhs > 0 ->
      let line = !idx + 1 in
      let g = Aig.and_ aig (our_lit ~line r0) (our_lit ~line r1) in
      Hashtbl.replace lit_of_var (lhs / 2) g
    | _ ->
      parse_error ~line:(!idx + 1) ~token:(String.trim lines.(!idx))
        "expected an AND line: 'lhs rhs0 rhs1' with even positive lhs");
    incr idx
  done;
  List.iter (fun (q, next, line) -> Builder.connect b q (our_lit ~line next)) (List.rev !pending);
  (match List.rev !outputs with
  | (bad, line) :: _ -> Builder.set_property b (Aig.not_ (our_lit ~line bad))
  | [] -> parse_error ~line:1 ~token:"" "no output to use as the bad-state function");
  ignore h.max_var;
  Builder.finish b

(* ---------- binary format ---------- *)

(* The "aig" format fixes the variable numbering — inputs 1..I, latches
   I+1..I+L, ANDs above — drops the input and current-state fields, and
   encodes each AND as two LEB128 deltas: lhs - rhs0 and rhs0 - rhs1 with
   lhs > rhs0 >= rhs1. Our writer assigns indices in topological order, so
   the ordering constraint holds by construction. *)

let push_leb128 buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let write_binary m =
  let aig = Model.aig m in
  let next_lits = List.map (fun l -> l.Model.next) m.Model.latches in
  let bad = Aig.not_ m.Model.property in
  let and_nodes = Aig.cone aig (bad :: next_lits) in
  let var_index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let counter = ref 0 in
  let assign_var node =
    incr counter;
    Hashtbl.replace var_index node !counter
  in
  List.iter (fun v -> assign_var (Aig.node_of_lit (Aig.var aig v))) m.Model.inputs;
  List.iter (fun l -> assign_var (Aig.node_of_lit (Aig.var aig l.Model.state_var))) m.Model.latches;
  List.iter assign_var and_nodes;
  let lit_to_aiger l =
    let n = Aig.node_of_lit l in
    if n = 0 then if Aig.is_complemented l then 1 else 0
    else
      match Hashtbl.find_opt var_index n with
      | Some v -> (2 * v) + if Aig.is_complemented l then 1 else 0
      | None -> failwith "Aiger.write_binary: node outside the model cone"
  in
  let buf = Buffer.create 1024 in
  let ni = List.length m.Model.inputs and nl = List.length m.Model.latches in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d %d 1 %d\n" !counter ni nl (List.length and_nodes));
  List.iter
    (fun l ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d\n" (lit_to_aiger l.Model.next) (if l.Model.init then 1 else 0)))
    m.Model.latches;
  Buffer.add_string buf (Printf.sprintf "%d\n" (lit_to_aiger bad));
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let lhs = 2 * Hashtbl.find var_index n in
      let r0 = lit_to_aiger f0 and r1 = lit_to_aiger f1 in
      let r0, r1 = if r0 >= r1 then (r0, r1) else (r1, r0) in
      push_leb128 buf (lhs - r0);
      push_leb128 buf (r0 - r1))
    and_nodes;
  Buffer.add_string buf (Printf.sprintf "c\nmodel %s\n" (Model.name m));
  Buffer.contents buf

let max_binary_inputs = 1 lsl 20

let read_binary ~name text =
  (* split the textual prefix (header, latches, outputs) from the binary
     AND section, which starts right after the output lines *)
  let len = String.length text in
  let pos = ref 0 in
  let read_line () =
    let start = !pos in
    while !pos < len && text.[!pos] <> '\n' do
      incr pos
    done;
    let line = String.sub text start (!pos - start) in
    if !pos < len then incr pos;
    line
  in
  let h = parse_header ~lineno:1 (read_line ()) in
  (* the header is untrusted: before anything is allocated, the payload
     must hold a line per latch and output and two bytes per AND, and
     the inputs, which have no payload, are capped *)
  let count_error n what = parse_error ~line:1 ~token:(string_of_int n) what in
  if h.ni > max_binary_inputs then
    count_error h.ni (Printf.sprintf "more than %d inputs" max_binary_inputs);
  let rest = len - !pos in
  let lines = ref (if rest > 0 && text.[len - 1] <> '\n' then 1 else 0) in
  for i = !pos to len - 1 do
    if text.[i] = '\n' then incr lines
  done;
  if h.nl > !lines || h.no > !lines - h.nl then
    count_error (if h.nl > !lines then h.nl else h.no)
      (Printf.sprintf "latch and output lines beyond the document's %d" !lines);
  if h.na > rest / 2 then
    count_error h.na (Printf.sprintf "ANDs beyond the document's %d payload bytes" rest);
  (* absolute 1-based line numbers in the textual prefix: header on line 1,
     latch i on line 1+i, output i on line 1+L+i; the binary AND section
     is reported against the line where it starts *)
  let latch_line i = 1 + i in
  let output_line i = 1 + h.nl + i in
  let and_section_line = 1 + h.nl + h.no + 1 in
  let b = Builder.create name in
  let aig = Builder.aig b in
  let lit_of_var : (int, Aig.lit) Hashtbl.t = Hashtbl.create 64 in
  let our_lit ~line al =
    if al = 0 then Aig.false_
    else if al = 1 then Aig.true_
    else
      match Hashtbl.find_opt lit_of_var (al / 2) with
      | Some l -> if al land 1 = 1 then Aig.not_ l else l
      | None -> parse_error ~line ~token:(string_of_int al) "undefined literal"
  in
  (* implicit inputs: variables 1..I *)
  for i = 1 to h.ni do
    Hashtbl.replace lit_of_var i (Builder.input b)
  done;
  (* latch lines: "next [init]", current literal implicit *)
  let pending = ref [] in
  for i = 1 to h.nl do
    let line_text = read_line () in
    match ints_of_line ~lineno:(latch_line i) line_text with
    | [ next ] | [ next; 0 ] ->
      let q = Builder.latch b ~init:false in
      Hashtbl.replace lit_of_var (h.ni + i) q;
      pending := (q, next, latch_line i) :: !pending
    | [ next; 1 ] ->
      let q = Builder.latch b ~init:true in
      Hashtbl.replace lit_of_var (h.ni + i) q;
      pending := (q, next, latch_line i) :: !pending
    | _ ->
      parse_error ~line:(latch_line i) ~token:(String.trim line_text)
        "expected a binary-format latch line: 'next [init]'"
  done;
  let outputs = ref [] in
  for i = 1 to h.no do
    let line_text = read_line () in
    match ints_of_line ~lineno:(output_line i) line_text with
    | [ l ] -> outputs := (l, output_line i) :: !outputs
    | _ ->
      parse_error ~line:(output_line i) ~token:(String.trim line_text)
        "expected an output line: one literal"
  done;
  (* binary AND section *)
  let read_leb128 () =
    let value = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      if !pos >= len then
        parse_error ~line:and_section_line ~token:"" "truncated AND section";
      let byte = Char.code text.[!pos] in
      incr pos;
      value := !value lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      if byte land 0x80 = 0 then continue := false
    done;
    !value
  in
  for i = 1 to h.na do
    let lhs = 2 * (h.ni + h.nl + i) in
    let delta0 = read_leb128 () in
    let delta1 = read_leb128 () in
    let r0 = lhs - delta0 in
    let r1 = r0 - delta1 in
    if r0 < 0 || r1 < 0 then
      parse_error ~line:and_section_line
        ~token:(Printf.sprintf "%d %d" delta0 delta1)
        (Printf.sprintf "malformed deltas for AND %d" i);
    Hashtbl.replace lit_of_var (lhs / 2)
      (Aig.and_ aig (our_lit ~line:and_section_line r0) (our_lit ~line:and_section_line r1))
  done;
  List.iter (fun (q, next, line) -> Builder.connect b q (our_lit ~line next)) (List.rev !pending);
  (match List.rev !outputs with
  | (bad, line) :: _ -> Builder.set_property b (Aig.not_ (our_lit ~line bad))
  | [] -> parse_error ~line:1 ~token:"" "no output to use as the bad-state function");
  Builder.finish b

let write_binary_file m path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (write_binary m))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      let name = Filename.remove_extension (Filename.basename path) in
      if String.length s >= 4 && String.sub s 0 4 = "aig " then read_binary ~name s
      else read ~name s)
