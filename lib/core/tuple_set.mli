(** A set of fixed-width tuples of non-negative ints — the query path's one
    de-duplication structure (the conjunct's visited triples and answer
    pairs, the ψ-restart suppress set, the parallel merge's seen pairs and
    the engine's projected bindings).

    Open addressing over one flat [int array]: [width] slots per entry, [-1]
    marking an empty entry, linear probing, doubling when more than three
    quarters of the entries are used.  A tuple is passed as the first
    [width] elements of a caller-owned key array, so a probe allocates
    nothing. *)

type t

val create : width:int -> int -> t
(** [create ~width n]: an empty set of [width]-tuples whose table starts
    with [n] entries, rounded up to a power of two (at least 2).
    @raise Invalid_argument if [width < 1]. *)

val cardinal : t -> int
(** Number of tuples in the set. *)

val mem : t -> int array -> bool
(** [mem s key]: is the tuple [key.(0) .. key.(width - 1)] in [s]? *)

val add_new : t -> int array -> bool
(** [add_new s key] adds the tuple [key.(0) .. key.(width - 1)] and returns
    [true] if it was not already in [s]; returns [false] and leaves [s]
    unchanged otherwise.  The tuple is copied: [key] may be reused.
    @raise Invalid_argument if [key.(0) < 0]. *)
