type pending_latch = { state_var : Aig.var; init : bool; mutable next : Aig.lit option }

type t = {
  name : string;
  aig : Aig.t;
  mutable inputs_rev : Aig.var list;
  mutable latches_rev : pending_latch list;
  latch_of_var : (Aig.var, pending_latch) Hashtbl.t;
  mutable property : Aig.lit option;
}

let create name =
  let latch_of_var = Hashtbl.create 64 in
  { name; aig = Aig.create (); inputs_rev = []; latches_rev = []; latch_of_var; property = None }

let aig b = b.aig

let input b =
  let v = Aig.fresh_var b.aig in
  b.inputs_rev <- v :: b.inputs_rev;
  Aig.var b.aig v

let inputs b n = List.init n (fun _ -> input b)

let latch b ~init =
  let v = Aig.fresh_var b.aig in
  let l = { state_var = v; init; next = None } in
  b.latches_rev <- l :: b.latches_rev;
  Hashtbl.replace b.latch_of_var v l;
  Aig.var b.aig v

let latches b ~init n = List.init n (fun _ -> latch b ~init)

let connect b q next =
  match Aig.var_of_lit b.aig q with
  | None -> invalid_arg "Builder.connect: not a latch literal"
  | Some v -> (
    if Aig.is_complemented q then invalid_arg "Builder.connect: use the positive phase";
    match Hashtbl.find_opt b.latch_of_var v with
    | None -> invalid_arg "Builder.connect: not a latch literal"
    | Some l -> (
      match l.next with
      | Some _ -> invalid_arg "Builder.connect: latch already connected"
      | None -> l.next <- Some next))

let set_property b p = b.property <- Some p

let finish b =
  let latches =
    List.rev_map
      (fun l ->
        match l.next with
        | None -> failwith (Printf.sprintf "%s: latch %d left unconnected" b.name l.state_var)
        | Some next -> { Model.state_var = l.state_var; next; init = l.init })
      b.latches_rev
  in
  let property =
    match b.property with
    | None -> failwith (Printf.sprintf "%s: no property declared" b.name)
    | Some p -> p
  in
  let m =
    {
      Model.name = b.name;
      aig = b.aig;
      inputs = List.rev b.inputs_rev;
      latches;
      property;
    }
  in
  match Model.validate m with
  | Ok () -> m
  | Error msg -> failwith (Printf.sprintf "%s: %s" b.name msg)
