(* One writer and one reader serve both AIGER encodings. The binary form
   ("aig") fixes the variable numbering (inputs 1..I, latches I+1..I+L,
   ANDs above), drops the input lines and the latches' current-state
   field, and encodes each AND as two LEB128 deltas, lhs - rhs0 and
   rhs0 - rhs1 with lhs > rhs0 >= rhs1. The writer numbers every model
   that way, so the ascii form ("aag") differs from it only in its header
   tag, those lines and its AND lines. *)

type encoding = Ascii | Binary

(* ---------- writing ---------- *)

let rec push_leb128 buf n =
  if n lsr 7 = 0 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr ((n land 0x7f) lor 0x80));
    push_leb128 buf (n lsr 7)
  end

let render encoding m =
  let aig = Model.aig m in
  let bad = Aig.not_ m.Model.property in
  let and_nodes = Aig.cone aig (bad :: List.map (fun l -> l.Model.next) m.Model.latches) in
  (* AIGER variable numbering: inputs, then latches, then AND gates in
     cone order, which puts every fanin first *)
  let var_index : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* our node id -> aiger variable *)
  let counter = ref 0 in
  let number node =
    incr counter;
    Hashtbl.replace var_index node !counter
  in
  let var_node v = Aig.node_of_lit (Aig.var aig v) in
  List.iter (fun v -> number (var_node v)) m.Model.inputs;
  List.iter (fun l -> number (var_node l.Model.state_var)) m.Model.latches;
  List.iter number and_nodes;
  let lit_to_aiger l =
    let n = Aig.node_of_lit l in
    let sign = if Aig.is_complemented l then 1 else 0 in
    if n = 0 then sign
    else
      match Hashtbl.find_opt var_index n with
      | Some v -> (2 * v) + sign
      | None -> failwith "Aiger.write: node outside the model cone"
  in
  let buf = Buffer.create 1024 in
  let ni = List.length m.Model.inputs in
  Printf.bprintf buf "%s %d %d %d 1 %d\n"
    (match encoding with Ascii -> "aag" | Binary -> "aig")
    !counter ni (List.length m.Model.latches) (List.length and_nodes);
  if encoding = Ascii then
    for i = 1 to ni do
      Printf.bprintf buf "%d\n" (2 * i)
    done;
  List.iteri
    (fun i l ->
      if encoding = Ascii then Printf.bprintf buf "%d " (2 * (ni + i + 1));
      Printf.bprintf buf "%d %d\n" (lit_to_aiger l.Model.next) (Bool.to_int l.Model.init))
    m.Model.latches;
  Printf.bprintf buf "%d\n" (lit_to_aiger bad);
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let lhs = 2 * Hashtbl.find var_index n in
      let r0 = lit_to_aiger f0 and r1 = lit_to_aiger f1 in
      let r0, r1 = if r0 >= r1 then (r0, r1) else (r1, r0) in
      match encoding with
      | Ascii -> Printf.bprintf buf "%d %d %d\n" lhs r0 r1
      | Binary ->
        push_leb128 buf (lhs - r0);
        push_leb128 buf (r0 - r1))
    and_nodes;
  Printf.bprintf buf "c\nmodel %s\n" (Model.name m);
  Buffer.contents buf

let write m = render Ascii m
let write_binary m = render Binary m

let save text path = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let write_file m path = save (write m) path
let write_binary_file m path = save (write_binary m) path

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

type header = { m : int; ni : int; nl : int; no : int; na : int }

(* parse tokens one by one so the diagnostic can name the offender *)
let int_field ~lineno token =
  match int_of_string_opt token with
  | Some n -> n
  | None -> parse_error ~line:lineno ~token "expected an integer"

let parse_header line =
  match String.split_on_char ' ' (String.trim line) with
  | [ ("aag" | "aig"); m; i; l; o; a ] ->
    let count token =
      let n = int_field ~lineno:1 token in
      if n < 0 then parse_error ~line:1 ~token "expected a non-negative count";
      n
    in
    (* in field order, so the diagnostic names the first bad count *)
    let m = count m in
    let ni = count i in
    let nl = count l in
    let no = count o in
    let na = count a in
    { m; ni; nl; no; na }
  | _ -> parse_error ~line:1 ~token:(String.trim line) "expected 'aag M I L O A' header"

let ints_of_line ~lineno line =
  List.map (int_field ~lineno) (String.split_on_char ' ' (String.trim line))

let max_binary_inputs = 1 lsl 20

let parse encoding ~name text =
  let len = String.length text in
  (* the one line cursor: line [!lineno + 1] starts at [!pos] *)
  let pos = ref 0 and lineno = ref 0 in
  let next_line () =
    let start = !pos in
    let stop = Option.value (String.index_from_opt text start '\n') ~default:len in
    pos := min len (stop + 1);
    incr lineno;
    String.sub text start (stop - start)
  in
  let newlines_from i =
    let n = ref 0 in
    for j = i to len - 1 do
      if text.[j] = '\n' then incr n
    done;
    !n
  in
  let h = parse_header (next_line ()) in
  (* the header is untrusted: bound every count by the document before
     anything is allocated *)
  let count_error n reason = parse_error ~line:1 ~token:(string_of_int n) reason in
  (match encoding with
  | Ascii ->
    (* every input, latch, output and AND has a line of its own: bound
       each count before summing, so the sum cannot overflow *)
    let lines = 1 + newlines_from 0 in
    List.iter
      (fun n ->
        if n > lines then
          count_error n (Printf.sprintf "header count exceeds the document's %d lines" lines))
      [ h.ni; h.nl; h.no; h.na ];
    let expect_lines = 1 + h.ni + h.nl + h.no + h.na in
    if lines < expect_lines then
      parse_error ~line:lines ~token:""
        (Printf.sprintf "truncated document (expected %d lines)" expect_lines)
  | Binary ->
    (* the inputs have no payload and are capped; the payload must hold a
       line per latch and output and two bytes per AND *)
    if h.ni > max_binary_inputs then
      count_error h.ni (Printf.sprintf "more than %d inputs" max_binary_inputs);
    let rest = len - !pos in
    let lines = newlines_from !pos + if rest > 0 && text.[len - 1] <> '\n' then 1 else 0 in
    if h.nl > lines || h.no > lines - h.nl then
      count_error
        (if h.nl > lines then h.nl else h.no)
        (Printf.sprintf "latch and output lines beyond the document's %d" lines);
    if h.na > rest / 2 then
      count_error h.na (Printf.sprintf "ANDs beyond the document's %d payload bytes" rest);
    (* the numbering is implicit, so M is fixed by the other counts *)
    if h.m <> h.ni + h.nl + h.na then
      count_error h.m (Printf.sprintf "expected M = I + L + A = %d" (h.ni + h.nl + h.na)));
  let b = Builder.create name in
  let aig = Builder.aig b in
  (* aiger var -> our literal: keyed by variable, since M is untrusted.
     A variable is defined once and at most M; a literal on a variable
     nobody defined is reported where it is used. *)
  let lit_of_var : (int, Aig.lit) Hashtbl.t = Hashtbl.create 64 in
  let define ~line var l =
    let refuse reason = parse_error ~line ~token:(string_of_int (2 * var)) reason in
    if var > h.m then refuse (Printf.sprintf "variable %d above the header's M = %d" var h.m);
    if Hashtbl.mem lit_of_var var then refuse (Printf.sprintf "variable %d defined twice" var);
    Hashtbl.replace lit_of_var var l
  in
  let our_lit ~line al =
    if al = 0 then Aig.false_
    else if al = 1 then Aig.true_
    else
      match Hashtbl.find_opt lit_of_var (al / 2) with
      | Some l -> if al land 1 = 1 then Aig.not_ l else l
      | None -> parse_error ~line ~token:(string_of_int al) "undefined literal"
  in
  (* the next line as integers; [malformed] names the whole line when its
     shape is wrong *)
  let line_text = ref "" in
  let ints () =
    line_text := next_line ();
    ints_of_line ~lineno:!lineno !line_text
  in
  let malformed what = parse_error ~line:!lineno ~token:(String.trim !line_text) what in
  (match encoding with
  | Ascii ->
    for _ = 1 to h.ni do
      match ints () with
      | [ l ] when l mod 2 = 0 && l > 0 -> define ~line:!lineno (l / 2) (Builder.input b)
      | _ -> malformed "expected an input line: one even positive literal"
    done
  | Binary ->
    for i = 1 to h.ni do
      define ~line:1 i (Builder.input b)
    done);
  (* latches: allocate state vars first, connect after ANDs are read *)
  let pending = ref [] in
  for i = 1 to h.nl do
    let var, next, init =
      match (encoding, ints ()) with
      | Ascii, [ cur; next ] when cur mod 2 = 0 && cur > 0 -> (cur / 2, next, false)
      | Ascii, [ cur; next; init ] when cur mod 2 = 0 && cur > 0 && (init = 0 || init = 1) ->
        (cur / 2, next, init = 1)
      | Ascii, _ -> malformed "expected a latch line: 'current next [init]'"
      | Binary, ([ next ] | [ next; 0 ]) -> (h.ni + i, next, false)
      | Binary, [ next; 1 ] -> (h.ni + i, next, true)
      | Binary, _ -> malformed "expected a binary-format latch line: 'next [init]'"
    in
    let q = Builder.latch b ~init in
    define ~line:!lineno var q;
    pending := (q, next, !lineno) :: !pending
  done;
  (* outputs: the first is the bad-state function *)
  let bad = ref None in
  for _ = 1 to h.no do
    match ints () with
    | [ l ] -> if !bad = None then bad := Some (l, !lineno)
    | _ -> malformed "expected an output line: one literal"
  done;
  let and_gate ~line lhs r0 r1 =
    define ~line (lhs / 2) (Aig.and_ aig (our_lit ~line r0) (our_lit ~line r1))
  in
  (match encoding with
  | Ascii ->
    (* aag files list the ANDs with defined operands (topological) *)
    for _ = 1 to h.na do
      match ints () with
      | [ lhs; r0; r1 ] when lhs mod 2 = 0 && lhs > 0 -> and_gate ~line:!lineno lhs r0 r1
      | _ -> malformed "expected an AND line: 'lhs rhs0 rhs1' with even positive lhs"
    done
  | Binary ->
    (* the AND section is reported against the line where it starts *)
    let line = !lineno + 1 in
    let rec read_leb128 value shift =
      if !pos >= len then parse_error ~line ~token:"" "truncated AND section";
      let byte = Char.code text.[!pos] in
      incr pos;
      let value = value lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then value else read_leb128 value (shift + 7)
    in
    for i = 1 to h.na do
      let lhs = 2 * (h.ni + h.nl + i) in
      let delta0 = read_leb128 0 0 in
      let delta1 = read_leb128 0 0 in
      let r0 = lhs - delta0 in
      let r1 = r0 - delta1 in
      if r0 < 0 || r1 < 0 then
        parse_error ~line
          ~token:(Printf.sprintf "%d %d" delta0 delta1)
          (Printf.sprintf "malformed deltas for AND %d" i);
      and_gate ~line lhs r0 r1
    done);
  List.iter (fun (q, next, line) -> Builder.connect b q (our_lit ~line next)) (List.rev !pending);
  (match !bad with
  | Some (l, line) -> Builder.set_property b (Aig.not_ (our_lit ~line l))
  | None -> parse_error ~line:1 ~token:"" "no output to use as the bad-state function");
  Builder.finish b

let is_binary text = String.starts_with ~prefix:"aig " text

let read ~name text =
  if is_binary text then
    parse_error ~line:1 ~token:"aig" "binary document; use read_binary (or read_file)";
  parse Ascii ~name text

let read_binary ~name text = parse Binary ~name text

let read_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let name = Filename.remove_extension (Filename.basename path) in
  (if is_binary text then read_binary else read) ~name text
