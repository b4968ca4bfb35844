(** Incremental ranked join of conjunct answer streams.

    Multi-conjunct CRP queries are answered by joining the per-conjunct
    streams on their shared variables and returning combined bindings in
    non-decreasing {e total} distance (the sum of the conjuncts' distances) —
    the "ranked join" of the system layer (§3).

    The algorithm is a hash-rank join in the HRJN style (Ilyas et al.): pull
    one answer at a time from the stream with the smallest last-seen
    distance, join it against the answers already pulled from the other
    streams, buffer the combinations, and release a buffered combination
    once its total is at most the threshold
    [min_i (last_i + Σ_{j≠i} top_j)] — a lower bound on the total of any
    combination not yet formed.

    {b Slot layout.}  The join fixes one slot per variable, numbered in order
    of first appearance across the streams' variable lists, so a binding is
    an [int array] of node oids indexed by slot ({!slot}).

    {b Bucket index.}  A fresh answer from stream [i] is extended through
    the other streams in index order.  When stream [j] is reached, which of
    its variables are already bound depends only on [i] and [j], so it is
    fixed when the join is created: that set is the {e key shape} [j] is
    probed with.  Each stream keeps one hash index per key shape (one for
    two streams, at most n−1 in general), mapping the key's oids to the
    stream's pulled answers with those oids, newest first.  The empty key
    is a single bucket holding every pulled answer, which serves cross
    products and streams with no variable.  A probe therefore visits
    exactly the compatible answers, in the order a scan of every pulled
    answer would meet them. *)

type source = {
  vars : string list;  (** the stream's variables, each listed once *)
  pull : int array -> (int * Witness.t list) option;
      (** the next answer's distance and witnesses, the oids of [vars]
          written, in order, into the given array *)
}
(** One input stream, in non-decreasing distance. *)

type t

val create : ?governor:Governor.t -> ?metrics:Obs.Metrics.t -> source list -> t
(** [create sources] — the pull loop polls [governor] (default: unlimited)
    and every buffered combination ticks its tuple budget, so the join's own
    memory draws on the same per-query ceiling as the conjuncts' [D_R].
    [metrics] (default: a fresh private registry) receives the
    [join_combos] histogram — combinations produced per input pull.
    @raise Invalid_argument on the empty list, when no stream has a
    variable, or when a stream lists a variable twice. *)

val slot : t -> string -> int option
(** The slot of a variable in the bindings {!next} returns; [None] if no
    stream has the variable. *)

val next : t -> (int array * int * Witness.t list) option
(** Next joined binding (oids by {!slot}; every slot is bound) with its
    total distance and the witnesses of the participating conjunct answers
    (empty unless provenance is on), in non-decreasing total order.
    Identical bindings arising from different answer combinations are
    emitted once, at their smallest total.  Returns [None] when the inputs
    are exhausted {e or the governor tripped} (the emitted prefix stays
    valid).
    @raise Failpoints.Injected when the [Join_pull] failpoint fires. *)
