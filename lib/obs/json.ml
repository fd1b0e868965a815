(* Zero-dependency JSON values, serializer and parser — enough to write
   run reports and trace files and read them back in tests and table
   generators. Exposed to users as [Obs.Json]; the sibling modules
   ([Registry], [Trace_events], [Regress]) use it directly so the facade
   module stays dependency-free of them. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* JSON has no inf/nan; telemetry times are finite unless a clock
   misbehaves, in which case 0 is the least-misleading stand-in. *)
let float_repr f =
  if Float.is_nan f || Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" (if Float.is_nan f then 0.0 else f)
  else if Float.abs f = Float.infinity then "0.0"
  else Printf.sprintf "%.9g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let rec pp ppf = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> Format.pp_print_string ppf (to_string v)
  | List [] -> Format.pp_print_string ppf "[]"
  | List items ->
    Format.fprintf ppf "[@;<0 2>@[<v>%a@]@,]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,") pp)
      items
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj fields ->
    let field ppf (k, v) = Format.fprintf ppf "%s: %a" (to_string (String k)) pp v in
    Format.fprintf ppf "{@;<0 2>@[<v>%a@]@,}"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@,") field)
      fields

exception Parse_error of int * string

(* The parser recurses once per open bracket, so an unbounded nesting
   depth lets a frame of a few megabytes of '[' exhaust the stack. The
   deepest document this project writes (a bench baseline) nests 5
   levels. *)
let max_depth = 64

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          (* report strings are ASCII; decode the BMP subset as UTF-8 *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end;
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with Some f -> Float f | None -> fail "bad number")
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('{' | '[') when depth = max_depth ->
      fail (Printf.sprintf "nesting deeper than %d levels" max_depth)
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected , or }"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected , or ]"
        in
        List (items [])
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "at byte %d: %s" at msg)
  | exception Failure msg -> Error msg

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

(* [of_file path] reads and parses a whole file; used by the regression
   differ and the tests. *)
let of_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string (String.trim text)
