(* The approximate live-bytes accountant behind [Governor]'s memory budget.

   Omega never asks the GC how big it is: walking the heap is expensive and
   non-deterministic, and `Gc.stat` words include garbage awaiting
   collection.  Instead the evaluation layers charge the accountant at the
   allocation sites of the structures that dominate a query's footprint —
   D_R distance buckets, visited tables, the provenance arena, seed
   delivery sets, join buffers and the trace ring — and release on the
   matching pops/drops.  The model is deliberately coarse (a handful of
   words per entry, below) but it is *monotone in the real footprint* and
   fully deterministic, which is what a budget needs: the same query at the
   same budget degrades at the same point on every run, so the chaos suite
   can pin exact-ranked-prefix behaviour under memory pressure. *)

type t = { mutable live : int; mutable peak : int }

let create () = { live = 0; peak = 0 }

let charge t bytes =
  t.live <- t.live + bytes;
  if t.live > t.peak then t.peak <- t.live

let release t bytes =
  t.live <- t.live - bytes;
  if t.live < 0 then t.live <- 0

let live t = t.live
let peak t = t.peak

(* --- the cost model --------------------------------------------------

   Sizes are in bytes on a 64-bit runtime (word = 8).  Each constant is
   the approximate retained size of ONE entry of the named structure,
   including container overhead (list cons cells, spare table slots) — not
   just the payload.  The numbers are documented in DESIGN.md ("Resource
   safety"); they only need to be stable and roughly proportional, not
   exact, and they are kept fixed so that a budget trips at the same point
   whatever the structures' layout. *)

let word = 8

(* A D_R tuple: (node, state, dist, prov) block + its bucket cons cell. *)
let tuple_bytes = 9 * word

(* The cost unit of one entry of a conjunct's dedup sets (visited triples,
   emitted and ψ-suppressed pairs): a flat [Tuple_set] entry of up to three
   words, with the table's spare entries and its share of the doubling
   copy. *)
let visited_entry_bytes = 8 * word

(* One provenance arena entry: a slot in each of the three parallel int
   arrays (parent/node/edge). *)
let prov_entry_bytes = 3 * word

(* One oid recorded in a seeder's delivered set. *)
let seed_entry_bytes = 4 * word

(* The cost unit of one answer pulled into the ranked join: its bucket
   entry (the oids of the input's variables, distance and witnesses) and a
   bucket cons cell.  Charged once per pulled answer, however many of the
   input's indexes hold the entry. *)
let join_seen_bytes = 8 * word

(* The cost unit of one buffered join combination: its slot array of oids,
   the queued (binding, total, witnesses) block and the queue cell. *)
let join_combo_bytes = 12 * word

(* The cost unit of one emitted binding: an entry of the engine's
   projected-oid [Tuple_set], or of the ranked join's emitted-binding
   table. *)
let answer_entry_bytes = 8 * word

let of_mb mb = mb * 1024 * 1024
