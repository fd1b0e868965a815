(** AIGER interchange in both encodings, ascii ("aag") and binary
    ("aig"): one writer and one reader, each taking the encoding as a
    parameter, so the variable numbering, the header bounds and the model
    construction exist once.

    The single output of the written file is the {e bad-state} function
    [¬P], following the common model-checking convention, and ascii latch
    lines carry the AIGER-1.9 three-field form [current next init]. The
    reader accepts both two- and three-field latch lines (two-field
    latches reset to 0) and takes output 0 as the bad-state function.
    Reading time is linear in the document: every header count is bounded
    by the document before anything is allocated, and building the model
    looks each latch up in a table and walks the combined cone once. *)

(** Malformed input: [line] is the 1-based line number (for the binary
    AND section, the line where that section starts), [token] the
    offending token ([""] when the problem is not tied to one token) and
    [reason] what was expected. A printer is registered with [Printexc],
    so uncaught parse errors render readably. *)
exception Parse_error of { line : int; token : string; reason : string }

(** [write m] renders the model as an aag document. *)
val write : Model.t -> string

val write_file : Model.t -> string -> unit

(** [read ~name s] parses an aag document. Raises {!Parse_error} with a
    line-numbered diagnostic on malformed input, including a negative
    header count or one larger than the document's line count. *)
val read : name:string -> string -> Model.t

(** [write_binary m] renders the compact binary ("aig") format: implicit
    input/latch literals and LEB128-delta-encoded AND gates. *)
val write_binary : Model.t -> string

(** The most inputs a binary document may declare. Binary inputs are
    implicit, with no payload to bound them; 2{^20}, far above every
    registry and corpus model. *)
val max_binary_inputs : int

(** [read_binary ~name s] parses the binary format. Raises
    {!Parse_error} on line 1, before allocating the model, for a header
    declaring more than {!max_binary_inputs} inputs, more latch and
    output lines than the document has, or more ANDs than half its
    payload bytes. *)
val read_binary : name:string -> string -> Model.t

(** [read_file path] dispatches on the header ("aag" vs "aig"). *)
val read_file : string -> Model.t

val write_binary_file : Model.t -> string -> unit
