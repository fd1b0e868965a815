(** Seeded random generator for sequential AIG models.

    Every model is a pure function of its [seed] and the [knobs], built
    from independent splitmix64 streams ({!Util.Prng.split}) for the
    interface shape, each latch cone and the property — so shrinking a
    knob perturbs only the stream it governs, and a corpus entry can name
    the exact seed that produced it.

    The knobs deliberately bias generation towards the structures where
    the CBQ pipeline historically hides bugs: near-duplicate cones (merge
    candidates for the sweeping engine), hidden constants (redundancy the
    two-level rewrite rules cannot fold), and XOR-heavy logic (worst case
    for Shannon-expansion growth, exercising partial-quantification
    aborts). *)

type property_shape =
  | Clause  (** disjunction of random latch literals *)
  | Cube  (** conjunction of random latch literals *)
  | Cone  (** a random combinational cone over the latches *)
  | Mixed  (** pick one of the above per model *)

type knobs = {
  min_latches : int;
  max_latches : int;
  min_inputs : int;
  max_inputs : int;
  cone_depth : int;  (** maximum gate depth of each next-state cone *)
  and_density : float;
      (** probability that an internal gate is a plain AND; the rest
          splits evenly between OR and XOR *)
  constant_cones : float;
      (** probability that a latch's next-state cone is a {e hidden}
          constant — semantically constant but structurally opaque to the
          hashing front-end *)
  duplicate_cones : float;
      (** probability that a latch's cone is a structurally different
          rebuild of an earlier latch's cone (a guaranteed merge point) *)
  property : property_shape;
  property_literals : int;  (** literals of a [Clause]/[Cube] property *)
  shared_subcones : float;
      (** probability that a latch's cone is a mux of xor/xnor over two
          shared deep subcones — a cofactor disjunction that is a
          near-tautology the rewrite rules cannot fold, so the merge
          phase has to find the collapse. At [0.0] (the
          default) generation draws no extra PRNG bits, so existing
          seeds reproduce byte-identical models *)
  wide_support : float;
      (** probability that a latch's cone is one gate over the {e whole}
          variable pool — maximal support width, so every cofactor pair
          spans every variable. Stream-neutral at [0.0]
          like [shared_subcones] *)
}

val default : knobs

(** [default] sized for the differential oracle: at most 5 latches and
    3 inputs, so every engine decides within a small budget. *)

(** Reject inconsistent ranges and probabilities outside [0,1]. *)
val validate_knobs : knobs -> (unit, string) result

(** [model ~knobs ~seed ()] builds one random model, named
    ["fuzz-<seed>"]. Same seed and knobs always yield a structurally
    identical model. Raises [Invalid_argument] on invalid knobs. *)
val model : ?knobs:knobs -> seed:int -> unit -> Netlist.Model.t

(** [derive_seed ~master i] is the seed of the [i]-th model of a fuzzing
    run: one splitmix64 step per index, so runs over [0..k] and [0..k']
    agree on their common prefix. *)
val derive_seed : master:int -> int -> int
