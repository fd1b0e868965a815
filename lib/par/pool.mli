(** Fork/join sharding over OCaml 5 domains.

    The primitive under sharded fuzz campaigns ([cbq_mc fuzz --jobs]):
    run one shard per domain, each with a static index, and join them
    all. The calling domain runs shard 0, so [jobs = 1] spawns no domain
    and [jobs = n] spawns [n - 1].

    Exceptions raised by a shard are re-raised in the calling domain
    after every shard has been joined; no domain is ever left
    running. *)

(** [Domain.recommended_domain_count ()] — the whole-machine default
    for a [--jobs] flag. *)
val default_jobs : unit -> int

(** [run_shards ~jobs f] runs [f 0], …, [f (jobs-1)] concurrently, shard 0
    on the calling domain and each other shard on its own fresh domain,
    and waits for all of them. The shard index is a {e static} identity:
    each worker carries its own state (a solver, a manager copy) and the
    mapping of work to worker state is a deterministic function of
    [jobs] — e.g. worker [w] takes items [w], [w+jobs], [w+2*jobs], …
    The first exception (by shard index) is re-raised after all shards
    finish. *)
val run_shards : jobs:int -> (int -> unit) -> unit
