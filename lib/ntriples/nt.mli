(** On-disk persistence for data graphs and ontologies, in an N-Triples-like
    line format.

    The paper's data model is RDF minus blank nodes, so a triple-per-line
    text format round-trips it exactly:

    {v
      <node label> <edge label> <node label> .
      <sub class>  <sc>         <super class> .
      <sub prop>   <sp>         <super prop> .
      <property>   <dom>        <class> .
      <property>   <range>      <class> .
    v}

    Each term is enclosed in angle brackets; [>] and [\\] inside labels are
    backslash-escaped.  Ontology triples use the reserved predicates [sc],
    [sp], [dom], [range] (§2: these are disjoint from the graph alphabet),
    and may be mixed freely with data triples in one file. *)

exception Parse_error of string * int
(** [(message, line_number)]. *)

(** {1 Writing} *)

val write_graph : out_channel -> Graphstore.Graph.t -> unit

val write_ontology : out_channel -> Ontology.t -> unit

val save :
  string -> graph:Graphstore.Graph.t -> ontology:Ontology.t -> unit
(** [save path ~graph ~ontology] writes both into one file: the graph's
    edges in insertion order (see {!Graphstore.Graph.iter_edges}), then a
    marker triple for every isolated node in oid order, then the ontology.
    Since {!load} inserts edges in file order, [save] output is a fixed
    point: loading and saving it again reproduces it byte for byte. *)

(** {1 Reading} *)

val read : in_channel -> Graphstore.Graph.t * Ontology.t
(** Parse a (possibly mixed) triple stream into a fresh graph and ontology
    sharing one interner.  Nodes mentioned only in ontology triples become
    graph nodes too (they are class nodes of [V_G ∩ V_K]).
    @raise Parse_error on malformed lines. *)

val load : string -> Graphstore.Graph.t * Ontology.t

type report = {
  triples : int;  (** well-formed triples ingested *)
  malformed : int;  (** malformed lines skipped (always 0 when strict) *)
  errors : (string * int) list;
      (** the first few [(message, line)] parse errors, oldest first, for
          diagnostics — capped so a thoroughly broken file cannot blow up
          memory *)
}

val default_max_line_bytes : int
(** The default line-length cap (1 MiB).  [input_line] would materialise a
    multi-gigabyte line in full before the parser could reject it; the
    bounded reader retains at most this many bytes per line and treats
    anything longer as a typed oversized-line [Parse_error] (strict) or a
    counted malformed line (lenient — the rest of the line is consumed, so
    the load resumes at the next line). *)

val input_line_bounded : in_channel -> int -> [ `Line of string | `Oversized | `Eof ]
(** The bounded replacement for [input_line] behind {!read_report}, exposed
    for other line-oriented readers (the query server's request framing): at
    most [cap] bytes of one line are retained; a longer line is consumed to
    its newline (so the stream resumes at the next line) and reported as
    [`Oversized] instead of materialised. *)

val read_report :
  ?lenient:bool -> ?max_line_bytes:int -> in_channel -> (Graphstore.Graph.t * Ontology.t) * report
(** Like {!read}, also returning an ingestion {!report}.  With
    [~lenient:true] (default [false]) malformed lines — including lines
    longer than [max_line_bytes] (default {!default_max_line_bytes}) — are
    counted and skipped instead of aborting the load: real-world triple
    dumps routinely contain a handful of broken lines, and a robust loader
    should salvage the rest.  Strict mode still raises [Parse_error] on the
    first bad or oversized line. *)

val read_string_report :
  ?lenient:bool -> ?max_line_bytes:int -> string -> (Graphstore.Graph.t * Ontology.t) * report
(** {!read_report} over an in-memory document (the fuzzing harness's entry
    point — no temp files). *)

val load_report :
  ?lenient:bool -> ?max_line_bytes:int -> string -> (Graphstore.Graph.t * Ontology.t) * report
(** {!read_report} on a file. *)
