let obs_added = Obs.counter "sweep.bank.added"
let obs_size = Obs.histogram "sweep.bank.size"

type t = {
  capacity : int; (* max patterns, multiple of 64 *)
  words_per_var : int; (* capacity / 64 *)
  rows : int64 array Util.Int_tbl.t; (* var -> one bit per pattern slot *)
  mutable size : int; (* patterns currently stored *)
  mutable next : int; (* ring cursor once full *)
  mutable added : int; (* total patterns ever distilled *)
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Pattern_bank.create: capacity must be positive";
  let capacity = (capacity + 63) / 64 * 64 in
  {
    capacity;
    words_per_var = capacity / 64;
    rows = Util.Int_tbl.create 64;
    size = 0;
    next = 0;
    added = 0;
  }

let size t = t.size
let n_words t = (t.size + 63) / 64
let added t = t.added

let row t v =
  match Util.Int_tbl.find_opt t.rows v with
  | Some r -> r
  | None ->
    let r = Array.make t.words_per_var 0L in
    Util.Int_tbl.replace t.rows v r;
    r

let add t model =
  let slot =
    if t.size < t.capacity then begin
      let s = t.size in
      t.size <- t.size + 1;
      s
    end
    else begin
      (* ring overwrite: recycle the oldest slot so the bank stays bounded
         across arbitrarily many reachability frames *)
      let s = t.next in
      t.next <- (t.next + 1) mod t.capacity;
      s
    end
  in
  let w = slot lsr 6 and bit = Int64.shift_left 1L (slot land 63) in
  let clear = Int64.lognot bit in
  (* the slot may carry a stale pattern: clear its bit everywhere first *)
  Util.Int_tbl.iter (fun _ r -> r.(w) <- Int64.logand r.(w) clear) t.rows;
  List.iter (fun (v, b) -> if b then (row t v).(w) <- Int64.logor (row t v).(w) bit) model;
  t.added <- t.added + 1;
  Obs.incr obs_added;
  Obs.observe obs_size t.size

let word t v w =
  if w < 0 || w >= n_words t then 0L
  else match Util.Int_tbl.find_opt t.rows v with Some r -> r.(w) | None -> 0L
