(** Per-engine model cloning for parallel verification.

    Engines grow their model's AIG manager while they run, and a
    manager shared between two engines would let one engine's nodes
    perturb the other's heuristics — or, across domains, race outright.
    Every parallel consumer therefore verifies a {e clone}: a
    structurally equal model in a fresh manager with no mutable state
    shared with the original (this is the fuzz oracle's per-engine
    clone discipline, lifted here so the portfolio, the fuzz oracle and
    the tests share one implementation).

    Cloning goes through the binary AIGER writer/reader
    ({!Netlist.Aiger.write_binary}, {!Netlist.Aiger.read_binary}): a
    thawed clone is node for node the model an ASCII round-trip gives
    (same rendering, node numbering, variable indices and latch order),
    in about a quarter of the bytes and with a faster thaw.

    For cross-domain use, {!freeze} on the owning domain and {!thaw}
    on each worker: the frozen form is an immutable byte string, safe
    to share without synchronization, and each [thaw] builds a manager
    owned entirely by the thawing domain. *)

(** An immutable serialized model, safe to share across domains. *)
type frozen

val freeze : Netlist.Model.t -> frozen

(** Build a fresh model from the frozen bytes. Every call returns a new
    manager; thawing on the consuming domain keeps allocation local. *)
val thaw : frozen -> Netlist.Model.t

(** [model m] is [thaw (freeze m)]: a same-domain clone. *)
val model : Netlist.Model.t -> Netlist.Model.t
