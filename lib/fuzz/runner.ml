let c_models = Obs.counter "fuzz.models"
let c_failures = Obs.counter "fuzz.failures"
let c_shrink_candidates = Obs.counter "fuzz.shrink.candidates"
let c_shrink_accepted = Obs.counter "fuzz.shrink.accepted"
let c_corpus_saved = Obs.counter "fuzz.corpus.saved"

type failure_report = {
  seed : int;
  original_failure : Oracle.failure;
  failure : Oracle.failure;
  model : Netlist.Model.t;
  shrunk : Shrink.result option;
  entry : Corpus.entry option;
}

type result = { count : int; failures : failure_report list }

(* candidate models one shrink may try *)
let max_shrink_candidates = 400

let run ?(knobs = Gen.default) ?(config = Oracle.default_config) ?corpus_dir ?(shrink = true)
    ?on_model ?(jobs = 1) ~seed ~count () =
  let jobs = max 1 (min jobs (max 1 count)) in
  let on_model_lock = Mutex.create () in
  let notify i model_seed =
    match on_model with
    | None -> ()
    | Some f when jobs = 1 -> f i model_seed
    | Some f ->
      Mutex.lock on_model_lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock on_model_lock) (fun () -> f i model_seed)
  in
  (* one campaign index: generate, oracle-check, shrink. Runs on whichever
     domain owns the index's shard; everything it touches is index-local
     (per-model seed via Gen.derive_seed, fresh managers throughout), so
     index [i] produces the same report at any [jobs] *)
  let check i =
    let model_seed = Gen.derive_seed ~master:seed i in
    notify i model_seed;
    let m = Gen.model ~knobs ~seed:model_seed () in
    Obs.incr c_models;
    match Oracle.check ~config m with
    | None -> None
    | Some original_failure ->
      Obs.incr c_failures;
      Obs.incr (Obs.counter ("fuzz.fail." ^ Oracle.failure_label original_failure));
      let shrunk =
        if shrink then begin
          let r = Shrink.shrink ~config ~max_candidates:max_shrink_candidates m original_failure in
          Obs.add c_shrink_candidates r.Shrink.candidates;
          Obs.add c_shrink_accepted r.Shrink.accepted;
          Some r
        end
        else None
      in
      let final_model, failure =
        match shrunk with
        | Some r -> (r.Shrink.model, r.Shrink.failure)
        | None -> (m, original_failure)
      in
      Some (model_seed, original_failure, failure, final_model, shrunk)
  in
  let partials = Array.make count None in
  (* static shards keep the index→domain mapping deterministic; jobs = 1
     degenerates to the plain ascending loop on the calling domain *)
  Par.Pool.run_shards ~jobs (fun w ->
      let i = ref w in
      while !i < count do
        partials.(!i) <- check !i;
        i := !i + jobs
      done);
  (* corpus writes are funnelled through the calling domain, in campaign
     index order — the corpus a parallel campaign leaves behind is
     byte-for-byte the sequential one's *)
  let failures = ref [] in
  Array.iter
    (fun slot ->
      match slot with
      | None -> ()
      | Some (model_seed, original_failure, failure, final_model, shrunk) ->
        let entry =
          match corpus_dir with
          | None -> None
          | Some dir ->
            let verdicts =
              match failure with
              | Oracle.Disagreement { verdicts } -> verdicts
              | _ -> Oracle.run_engines ~config final_model
            in
            let e = Corpus.save ~dir ~seed:model_seed final_model failure ~verdicts in
            Obs.incr c_corpus_saved;
            Some e
        in
        failures :=
          { seed = model_seed; original_failure; failure; model = final_model; shrunk; entry }
          :: !failures)
    partials;
  { count; failures = List.rev !failures }
