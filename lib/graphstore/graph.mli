(** The data-graph store.

    This is the substrate that stands in for Sparksee in the paper's
    architecture (Fig. 1).  It stores a directed edge-labelled graph
    [G = (V_G, E_G, Sigma)]:

    - every node has a unique string label (the paper stores it as an indexed
      Sparksee attribute; here it is an inverted index from label to oid);
    - every edge has a label drawn from [Sigma ∪ {type}], interned to an
      [int]; per-label adjacency is indexed in both directions, which mirrors
      Sparksee's "indexed neighbours" configuration the paper enables;
    - the functions {!neighbors}, {!heads_by_label}, {!tails_by_label} and
      {!tails_and_heads} correspond to the Sparksee API calls [Neighbors],
      [Heads], [Tails] and [TailsAndHeads] that Omega uses (§3.1).

    Oids are dense integers allocated from 0, so client code can use arrays
    and {!Oid_set} bitmaps keyed by oid.

    Edges are kept in an insertion-ordered log, the store's only source of
    truth.  Every read goes through one compressed sparse row (CSR) index
    built from the log — per used label and direction, an offsets/targets
    int-array pair with each node's row sorted ascending — so every
    traversal function is a zero-allocation range scan over it.  {!freeze}
    builds the index; a lookup on a graph with no current index builds it
    first.  Mutation ({!add_node}, {!add_edge}) is allowed at any time and
    drops the index, which the next {!freeze} or lookup rebuilds. *)

type t

type dir = Out | In | Both
(** Traversal direction relative to a node: outgoing edges, incoming edges,
    or both. *)

val create : ?initial_nodes:int -> unit -> t

val interner : t -> Interner.t
(** The label interner shared with the ontology. *)

val type_label : t -> int
(** The interned id of the distinguished [type] label. *)

(** {1 Construction} *)

val add_node : t -> string -> int
(** [add_node g label] returns the oid of the node with the given unique
    label, creating it if needed (idempotent). *)

val add_edge : t -> int -> int -> int -> unit
(** [add_edge g src label dst] adds a directed edge.  Duplicate edges are
    stored as given; generators are responsible for dedup. *)

val add_edge_s : t -> int -> string -> int -> unit
(** [add_edge_s g src label dst] interns [label] and adds the edge. *)

(** {1 The index}

    Call {!freeze} once the graph is loaded, before running queries, so the
    first query does not pay for the build.  The index is built on the
    calling domain: freeze before sharing a graph between domains. *)

val freeze : t -> unit
(** Build the CSR index from the edge log, by counting sort.  Idempotent
    until the next {!add_node}/{!add_edge}. *)

val csr_bytes : t -> int
(** Heap footprint of the CSR index in bytes (built first if needed). *)

(** {1 Lookup} *)

val find_node : t -> string -> int option
(** Inverted-index lookup: oid of the node labelled [label], if any. *)

val node_label : t -> int -> string
(** @raise Invalid_argument on an unallocated oid. *)

val n_nodes : t -> int
val n_edges : t -> int

val labels : t -> int list
(** All edge labels present in the graph ([Sigma ∪ {type}] if [type] edges
    exist), in interned-id order. *)

val mem_edge : t -> int -> int -> int -> bool
(** [mem_edge g src label dst] — a binary search in the out-row of [src]
    under [label]. *)

(** {1 Traversal (the Sparksee API surface)} *)

val neighbors : t -> int -> int -> dir -> int list
(** [neighbors g n label dir]: nodes connected to [n] by a [label] edge in
    the given direction.  [Both] concatenates outgoing then incoming.  Each
    direction comes out in ascending oid order; prefer
    {!iter_neighbors}, which allocates nothing. *)

val iter_neighbors : t -> int -> int -> dir -> (int -> unit) -> unit
(** Allocation-free variant of {!neighbors}: a single offset-range scan. *)

val iter_neighbors_any : t -> int -> (int -> unit) -> unit
(** All neighbours of [n] over every label, both directions — the retrieval
    pattern Omega uses for the APPROX wildcard [*] (the paper issues
    [Neighbors] over the generic ['edge'] type plus [type], in both
    directions).  Nodes reachable via several labels are visited once per
    connecting edge. *)

val iter_neighbors_all_labels : t -> int -> dir -> (int -> unit) -> unit
(** Neighbours of [n] under {e every} label in one direction (the APPROX
    [Any_dir] transition): a merged scan of the per-label ranges. *)

val iter_neighbors_labels : t -> int -> int array -> dir -> (int -> unit) -> unit
(** Neighbours of [n] under a restricted label set (the RELAX sub-property
    closure), visiting the labels' ranges in the order given. *)

val has_adjacent : t -> int -> int -> dir -> bool
(** [has_adjacent g n label dir]: whether [n] carries at least one [label]
    edge in the given direction — O(1).  Seeding uses this
    to enumerate start nodes without materialising oid sets. *)

val tails_by_label : t -> int -> Oid_set.t
(** Sources of all edges carrying [label] (Sparksee [Tails]). *)

val heads_by_label : t -> int -> Oid_set.t
(** Targets of all edges carrying [label] (Sparksee [Heads]). *)

val tails_and_heads : t -> int -> Oid_set.t
(** Union of {!tails_by_label} and {!heads_by_label}. *)

val out_degree : t -> int -> int -> int
(** [out_degree g n label]. *)

val in_degree : t -> int -> int -> int

(** {1 Whole-graph iteration} *)

val iter_nodes : t -> (int -> unit) -> unit
(** Visit every oid in increasing order. *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] applies [f src label dst] to every stored edge, in
    insertion order (duplicates included). *)

(** {1 Statistics} *)

type stats = {
  nodes : int;
  edges : int;
  distinct_labels : int;
  max_out_degree : int;  (** largest out-degree under a single label *)
  max_in_degree : int;  (** largest in-degree under a single label *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
