type report = {
  nodes_seen : int;
  resubstitutions : int;
  constants_folded : int;
  projections_folded : int;
  size_before : int;
  size_after : int;
}

let pp_report ppf r =
  Format.fprintf ppf "nodes=%d resub=%d const=%d proj=%d size %d -> %d" r.nodes_seen
    r.resubstitutions r.constants_folded r.projections_folded r.size_before r.size_after

(* truth-table input masks for up to 4 cut leaves (16-bit tables) *)
let leaf_masks = [| 0xAAAA; 0xCCCC; 0xF0F0; 0xFF00 |]
let tt_mask = 0xFFFF
let cut_width = 4

(* sorted-array union, [None] when the result exceeds [cut_width] *)
let cut_union a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make cut_width 0 in
  let rec go i j k =
    if k > cut_width then None
    else if i = la && j = lb then Some (Array.sub out 0 k)
    else if k = cut_width then None
    else if i = la then begin
      out.(k) <- b.(j);
      go i (j + 1) (k + 1)
    end
    else if j = lb then begin
      out.(k) <- a.(i);
      go (i + 1) j (k + 1)
    end
    else if a.(i) = b.(j) then begin
      out.(k) <- a.(i);
      go (i + 1) (j + 1) (k + 1)
    end
    else if a.(i) < b.(j) then begin
      out.(k) <- a.(i);
      go (i + 1) j (k + 1)
    end
    else begin
      out.(k) <- b.(j);
      go i (j + 1) (k + 1)
    end
  in
  go 0 0 0

(* local truth table of [n] over [cut] (an array of node ids that covers
   every path from the leaves to [n]) *)
let truth_table aig n cut =
  let memo = Hashtbl.create 8 in
  Array.iteri (fun i leaf -> Hashtbl.replace memo leaf leaf_masks.(i)) cut;
  let rec node_tt m =
    match Hashtbl.find_opt memo m with
    | Some tt -> tt
    | None ->
      let f0, f1 = Aig.fanins aig m in
      let tt = lit_tt f0 land lit_tt f1 land tt_mask in
      Hashtbl.replace memo m tt;
      tt
  and lit_tt l =
    let tt = node_tt (Aig.node_of_lit l) in
    if Aig.is_complemented l then lnot tt land tt_mask else tt
  in
  node_tt n

(* cuts kept per node, the trivial cut included *)
let max_cuts = 8

let resubstitute aig root =
  let size_before = Aig.size aig root in
  let nodes = Aig.cone aig [ root ] in
  (* node -> cuts (sorted leaf arrays, trivial cut first) *)
  let cuts : (int, int array list) Hashtbl.t = Hashtbl.create 64 in
  let cuts_of l =
    let n = Aig.node_of_lit l in
    match Hashtbl.find_opt cuts n with
    | Some cs -> cs
    | None -> [ [| n |] ] (* leaf or constant: trivial cut only *)
  in
  (* (sorted leaves, normalized tt) -> literal computing it *)
  let seen : (int list * int, Aig.lit) Hashtbl.t = Hashtbl.create 256 in
  let repl : (int, Aig.lit) Hashtbl.t = Hashtbl.create 16 in
  let resubs = ref 0 and consts = ref 0 and projs = ref 0 in
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins aig n in
      let candidate_cuts =
        List.concat_map
          (fun c0 -> List.filter_map (fun c1 -> cut_union c0 c1) (cuts_of f1))
          (cuts_of f0)
      in
      (* dedupe, prefer small cuts, cap the list, keep the trivial cut *)
      let candidate_cuts =
        List.sort_uniq compare candidate_cuts
        |> List.sort (fun a b -> compare (Array.length a) (Array.length b))
        |> List.filteri (fun i _ -> i < max_cuts - 1)
      in
      Hashtbl.replace cuts n ([| n |] :: candidate_cuts);
      if not (Hashtbl.mem repl n) then begin
        let replaced = ref false in
        List.iter
          (fun cut ->
            if not !replaced then begin
              let tt = truth_table aig n cut in
              (* normalize the phase on bit 0 *)
              let tt_n, phase = if tt land 1 = 1 then (lnot tt land tt_mask, 1) else (tt, 0) in
              if tt_n = 0 then begin
                (* constant on this (complete) cut = constant everywhere *)
                Hashtbl.replace repl n (Aig.false_ lxor phase);
                incr consts;
                replaced := true
              end
              else begin
                (* projection onto one leaf *)
                let width = Array.length cut in
                let proj = ref (-1) in
                for i = 0 to width - 1 do
                  if tt_n land tt_mask = leaf_masks.(i) land tt_mask then proj := i
                done;
                if !proj >= 0 && cut.(!proj) <> n then begin
                  Hashtbl.replace repl n (Aig.lit_of_node cut.(!proj) lxor phase);
                  incr projs;
                  replaced := true
                end
                else begin
                  let key = (Array.to_list cut, tt_n) in
                  match Hashtbl.find_opt seen key with
                  | Some older when Aig.node_of_lit older < n ->
                    Hashtbl.replace repl n (older lxor phase);
                    incr resubs;
                    replaced := true
                  | Some older when Aig.node_of_lit older > n ->
                    (* the first-registered node is the younger one (DFS
                       order is not id order): redirect it to us so the
                       substitution stays acyclic *)
                    let on = Aig.node_of_lit older in
                    if not (Hashtbl.mem repl on) then begin
                      Hashtbl.replace repl on
                        (Aig.lit_of_node n lxor phase lxor (older land 1));
                      incr resubs
                    end;
                    Hashtbl.replace seen key (Aig.lit_of_node n lxor phase)
                  | Some _ -> ()
                  | None -> Hashtbl.replace seen key (Aig.lit_of_node n lxor phase)
                end
              end
            end)
          (Hashtbl.find cuts n)
      end)
    nodes;
  let repl_fun n =
    match Hashtbl.find_opt repl n with Some l -> l | None -> Aig.lit_of_node n
  in
  let rewritten = Aig.rebuild aig ~repl:repl_fun root in
  let result = if Aig.size aig rewritten <= size_before then rewritten else root in
  ( result,
    {
      nodes_seen = List.length nodes;
      resubstitutions = !resubs;
      constants_folded = !consts;
      projections_folded = !projs;
      size_before;
      size_after = Aig.size aig result;
    } )
