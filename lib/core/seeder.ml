module Graph = Graphstore.Graph
module Oid_set = Graphstore.Oid_set
module Nfa = Automaton.Nfa

type t = {
  mutable scans : (int -> bool) list;
      (* the candidate stages: each delivers, in ascending order, the oids of
         [0, n_nodes) it accepts — scanned lazily, possibly with duplicates *)
  mutable pos : int; (* next oid of the head scan *)
  n_nodes : int;
  delivered : Oid_set.t;
  batch_size : int;
  mutable fixed : (int * int) list option; (* Some: constant-subject seeds *)
  mutable finished : bool;
  governor : Governor.t;
}

let of_list ?filter seeds =
  let seeds =
    match filter with None -> seeds | Some f -> List.filter (fun (oid, _) -> f oid) seeds
  in
  {
    scans = [];
    pos = 0;
    n_nodes = 0;
    delivered = Oid_set.create ();
    batch_size = max_int;
    fixed = Some seeds;
    finished = false;
    governor = Governor.unlimited ();
  }

(* Nodes carrying an edge compatible with [lbl] (the Sparksee Heads/Tails
   calls of §3.3).  Instead of materialising per-label oid sets, each label
   contributes an ascending scan filtered by {!Graph.has_adjacent} — an O(1)
   offset-range check on the CSR index — so unneeded batches cost nothing
   downstream. *)
let scans_of_label graph (lbl : Nfa.tlabel) =
  let with_label dir a n = Graph.has_adjacent graph n a dir in
  let all_labels dir = List.map (with_label dir) (Graph.labels graph) in
  let dir_of : Nfa.dir -> Graph.dir = function Fwd -> Graph.Out | Bwd -> Graph.In in
  match lbl with
  | Nfa.Eps -> [] (* removed before evaluation *)
  | Nfa.Sym (d, a) -> [ with_label (dir_of d) a ]
  | Nfa.Any -> all_labels Graph.Both
  | Nfa.Any_dir d -> all_labels (dir_of d)
  | Nfa.Sub_closure (d, ls) -> List.map (with_label (dir_of d)) (Array.to_list ls)
  | Nfa.Type_to c -> [ (fun n -> Graph.mem_edge graph n (Graph.type_label graph) c) ]

let of_initial_state ?(governor = Governor.unlimited ()) ?filter ~graph ~nfa ~batch_size () =
  let s0 = Nfa.initial nfa in
  let by_start_labels =
    List.concat_map (fun (tr : Nfa.transition) -> scans_of_label graph tr.lbl) (Nfa.out nfa s0)
  in
  let all_nodes _ = true in
  let scans =
    match Nfa.final_weight nfa s0 with
    | Some 0 -> [ all_nodes ]
    | Some _ -> by_start_labels @ [ all_nodes ]
    | None -> by_start_labels
  in
  (* Shard partitioning (parallel evaluation): candidates outside the
     filter are skipped before the delivered-set dedup, so a shard's seeder
     behaves exactly like a sequential seeder over its own seed subset. *)
  let scans =
    match filter with None -> scans | Some f -> List.map (fun keep n -> keep n && f n) scans
  in
  {
    scans;
    pos = 0;
    n_nodes = Graph.n_nodes graph;
    delivered = Oid_set.create ();
    batch_size = max 1 batch_size;
    fixed = None;
    finished = false;
    governor;
  }

(* The next candidate, or -1 once every scan is done. *)
let rec next_candidate t =
  match t.scans with
  | [] -> -1
  | keep :: rest ->
    if t.pos >= t.n_nodes then begin
      t.scans <- rest;
      t.pos <- 0;
      next_candidate t
    end
    else begin
      let oid = t.pos in
      t.pos <- oid + 1;
      if keep oid then oid else next_candidate t
    end

let next_batch t =
  Failpoints.check Failpoints.Seed_batch;
  match t.fixed with
  | Some seeds ->
    t.fixed <- None;
    t.finished <- true;
    List.filter
      (fun (oid, _) ->
        let fresh = Oid_set.add_new t.delivered oid in
        if fresh then Governor.charge_mem t.governor Mem.seed_entry_bytes;
        fresh)
      seeds
  | None ->
    if t.finished then []
    else begin
      let batch = ref [] and count = ref 0 in
      (* Deliver a short batch when the governor trips mid-scan: the
         remaining candidates stay queued, and the caller's own poll stops
         it from asking again. *)
      while (not t.finished) && !count < t.batch_size && Governor.poll t.governor do
        let oid = next_candidate t in
        if oid < 0 then t.finished <- true
        else if Oid_set.add_new t.delivered oid then begin
          (* the delivered set grows for the life of the conjunct —
             charged against the memory budget like the visited sets *)
          Governor.charge_mem t.governor Mem.seed_entry_bytes;
          batch := (oid, 0) :: !batch;
          incr count
        end
      done;
      List.rev !batch
    end

let exhausted t = t.finished && t.fixed = None
