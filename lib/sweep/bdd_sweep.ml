let translator ?(on_node = fun _ _ -> ()) man aig =
  let memo = Util.Int_tbl.create 64 in
  Util.Int_tbl.replace memo 0 Bdd.zero;
  let bdd l =
    let b = Util.Int_tbl.find memo (Aig.node_of_lit l) in
    if Aig.is_complemented l then Bdd.not_ man b else b
  in
  let build n b =
    Util.Int_tbl.replace memo n b;
    on_node n b
  in
  fun roots ->
    List.iter
      (fun v ->
        let n = Aig.node_of_lit (Aig.var aig v) in
        if not (Util.Int_tbl.mem memo n) then build n (Bdd.var_node man v))
      (Aig.support_list aig roots);
    List.iter
      (fun n ->
        if not (Util.Int_tbl.mem memo n) then begin
          let f0, f1 = Aig.fanins aig n in
          build n (Bdd.and_ man (bdd f0) (bdd f1))
        end)
      (Aig.cone aig roots);
    bdd

type result = {
  merges : (int * Aig.lit) list;
  nodes_built : int;
  bdd_nodes : int;
  aborted : bool;
}

let run aig ~roots ~max_nodes =
  let man = Bdd.create () in
  (* canonical BDD -> literal that denotes it *)
  let seen : (Bdd.node, Aig.lit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace seen Bdd.zero Aig.false_;
  let merges = ref [] in
  let built = ref 0 in
  let register n b =
    incr built;
    let nb = Bdd.not_ man b in
    let canon, phase = if nb < b then (nb, 1) else (b, 0) in
    (* [rep] denotes the canonical BDD; the merge must always point from
       the younger node to the older one, or rebuilding could cycle *)
    match Hashtbl.find_opt seen canon with
    | Some rep ->
      let rn = Aig.node_of_lit rep in
      if rn < n then merges := (n, rep lxor phase) :: !merges
      else if rn > n then begin
        let lit_n_canonical = Aig.lit_of_node n lxor phase in
        merges := (rn, lit_n_canonical lxor (rep land 1)) :: !merges;
        Hashtbl.replace seen canon lit_n_canonical
      end
    | None -> Hashtbl.replace seen canon (Aig.lit_of_node n lxor phase)
  in
  let aborted =
    match
      Bdd.with_limit man ~max_nodes (fun () ->
          let (_ : Aig.lit -> Bdd.node) = translator ~on_node:register man aig roots in
          ())
    with
    | Ok () -> false
    | Error `Node_limit -> true
  in
  { merges = List.rev !merges; nodes_built = !built; bdd_nodes = Bdd.num_nodes man; aborted }
