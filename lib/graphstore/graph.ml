type dir = Out | In | Both

(* One direction of the index: for every used label, a CSR row group.
   [off] has [node_count + 1] entries; the neighbours of node [n] under this
   label are [tgt.(off.(n)) .. tgt.(off.(n+1) - 1)], sorted ascending so
   lookups are mergeable and [mem_edge] can bisect. *)
type csr_rows = { off : int array; tgt : int array }

type csr = {
  slot_of_label : int array; (* label id -> dense slot, or -1 *)
  label_of_slot : int array; (* dense slot -> label id *)
  fwd : csr_rows array; (* slot -> out-adjacency *)
  bwd : csr_rows array; (* slot -> in-adjacency *)
}

(* The edge log is the source of truth: [log.(3i), log.(3i+1), log.(3i+2)]
   is the [i]-th edge added, as (src, label, dst).  Every read goes through
   the [csr] index, which is built from the log on demand and dropped by
   every mutation. *)
type t = {
  interner : Interner.t;
  type_label : int;
  mutable node_labels : string array;
  mutable node_count : int;
  node_index : (string, int) Hashtbl.t;
  mutable log : int array;
  mutable edge_count : int;
  mutable label_counts : int array; (* label id -> number of edges *)
  mutable csr : csr option;
}

let create ?(initial_nodes = 1024) () =
  let interner = Interner.create () in
  let type_label = Interner.intern interner "type" in
  {
    interner;
    type_label;
    node_labels = Array.make (max 1 initial_nodes) "";
    node_count = 0;
    node_index = Hashtbl.create initial_nodes;
    log = Array.make (3 * max 1 initial_nodes) 0;
    edge_count = 0;
    label_counts = Array.make 16 0;
    csr = None;
  }

let interner t = t.interner
let type_label t = t.type_label

let add_node t label =
  match Hashtbl.find_opt t.node_index label with
  | Some oid -> oid
  | None ->
    t.csr <- None;
    let cap = Array.length t.node_labels in
    if t.node_count >= cap then begin
      let labels = Array.make (2 * cap) "" in
      Array.blit t.node_labels 0 labels 0 t.node_count;
      t.node_labels <- labels
    end;
    let oid = t.node_count in
    t.node_labels.(oid) <- label;
    t.node_count <- t.node_count + 1;
    Hashtbl.add t.node_index label oid;
    oid

let check_oid t oid ctx =
  if oid < 0 || oid >= t.node_count then
    invalid_arg (Printf.sprintf "Graph.%s: unknown oid %d" ctx oid)

let add_edge t src label dst =
  check_oid t src "add_edge";
  check_oid t dst "add_edge";
  t.csr <- None;
  let i = 3 * t.edge_count in
  if i + 3 > Array.length t.log then begin
    let log = Array.make (2 * Array.length t.log) 0 in
    Array.blit t.log 0 log 0 i;
    t.log <- log
  end;
  t.log.(i) <- src;
  t.log.(i + 1) <- label;
  t.log.(i + 2) <- dst;
  t.edge_count <- t.edge_count + 1;
  let cap = Array.length t.label_counts in
  if label >= cap then begin
    let counts = Array.make (max (2 * cap) (label + 1)) 0 in
    Array.blit t.label_counts 0 counts 0 cap;
    t.label_counts <- counts
  end;
  t.label_counts.(label) <- t.label_counts.(label) + 1

let add_edge_s t src label dst = add_edge t src (Interner.intern t.interner label) dst

let find_node t label = Hashtbl.find_opt t.node_index label

let node_label t oid =
  check_oid t oid "node_label";
  t.node_labels.(oid)

let n_nodes t = t.node_count
let n_edges t = t.edge_count

let labels t =
  let acc = ref [] in
  for label = Array.length t.label_counts - 1 downto 0 do
    if t.label_counts.(label) > 0 then acc := label :: !acc
  done;
  !acc

let iter_edges t f =
  for i = 0 to t.edge_count - 1 do
    f t.log.(3 * i) t.log.((3 * i) + 1) t.log.((3 * i) + 2)
  done

(* --- the CSR index ------------------------------------------------- *)

(* Prefix-sum per-node counts (held at [off.(n + 1)]) into row offsets. *)
let offsets_of_counts off =
  for i = 1 to Array.length off - 1 do
    off.(i) <- off.(i) + off.(i - 1)
  done

(* Counting-sort transpose: row [v] of the result lists every [u] with [v]
   in row [u] of [rows].  Rows are filled while [u] ascends, so each comes
   out sorted whatever the order within [rows]. *)
let transpose rows off =
  let tgt = Array.make (Array.length rows.tgt) 0 in
  let cursor = Array.copy off in
  for u = 0 to Array.length rows.off - 2 do
    for i = rows.off.(u) to rows.off.(u + 1) - 1 do
      let v = rows.tgt.(i) in
      tgt.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  { off; tgt }

(* One counting-sort pass over the log buckets each used label's edges by
   source, in insertion order; transposing twice then sorts both
   directions' rows without a comparison. *)
let build t =
  let n = t.node_count in
  let label_of_slot = Array.of_list (labels t) in
  let slot_of_label = Array.make (Array.length t.label_counts) (-1) in
  Array.iteri (fun slot label -> slot_of_label.(label) <- slot) label_of_slot;
  let fwd_off = Array.map (fun _ -> Array.make (n + 1) 0) label_of_slot in
  let bwd_off = Array.map (fun _ -> Array.make (n + 1) 0) label_of_slot in
  iter_edges t (fun src label dst ->
      let slot = slot_of_label.(label) in
      fwd_off.(slot).(src + 1) <- fwd_off.(slot).(src + 1) + 1;
      bwd_off.(slot).(dst + 1) <- bwd_off.(slot).(dst + 1) + 1);
  Array.iter offsets_of_counts fwd_off;
  Array.iter offsets_of_counts bwd_off;
  let by_src = Array.map (fun off -> { off; tgt = Array.make off.(n) 0 }) fwd_off in
  let cursor = Array.map Array.copy fwd_off in
  iter_edges t (fun src label dst ->
      let slot = slot_of_label.(label) in
      let c = cursor.(slot) in
      by_src.(slot).tgt.(c.(src)) <- dst;
      c.(src) <- c.(src) + 1);
  let bwd = Array.mapi (fun slot rows -> transpose rows bwd_off.(slot)) by_src in
  let fwd = Array.mapi (fun slot rows -> transpose rows fwd_off.(slot)) bwd in
  { slot_of_label; label_of_slot; fwd; bwd }

let index t =
  match t.csr with
  | Some c -> c
  | None ->
    let c = build t in
    t.csr <- Some c;
    c

let freeze t = ignore (index t)

let csr_bytes t =
  let c = index t in
  let side rows =
    Array.fold_left
      (fun acc r -> acc + (Sys.word_size / 8 * (Array.length r.off + Array.length r.tgt)))
      0 rows
  in
  side c.fwd + side c.bwd
  + (Sys.word_size / 8 * (Array.length c.slot_of_label + Array.length c.label_of_slot))

(* The rows of a label no edge carries: every node's row is empty. *)
let no_rows = { off = [||]; tgt = [||] }

(* A label's rows in one direction.  Lookups run once per expansion, so no
   option is allocated: an unknown or unused label reads [no_rows]. *)
let slot_rows c label dir =
  if label < 0 || label >= Array.length c.slot_of_label then no_rows
  else
    let slot = c.slot_of_label.(label) in
    if slot < 0 then no_rows
    else match dir with Out -> c.fwd.(slot) | In -> c.bwd.(slot) | Both -> assert false

let iter_row rows n f =
  if n + 1 < Array.length rows.off then
    for i = rows.off.(n) to rows.off.(n + 1) - 1 do
      f rows.tgt.(i)
    done

let row_length rows n =
  if n + 1 < Array.length rows.off then rows.off.(n + 1) - rows.off.(n) else 0

(* --- lookups ------------------------------------------------------- *)

let iter_neighbors t n label dir f =
  let c = index t in
  match dir with
  | Both ->
    iter_row (slot_rows c label Out) n f;
    iter_row (slot_rows c label In) n f
  | d -> iter_row (slot_rows c label d) n f

let neighbors t n label dir =
  let acc = ref [] in
  iter_neighbors t n label dir (fun m -> acc := m :: !acc);
  List.rev !acc

(* One direction, every label: a slot-major sweep of per-label ranges (the
   merged range scan of Any_dir). *)
let iter_neighbors_all_labels t n dir f =
  let c = index t in
  let dirs = match dir with Out -> [ Out ] | In -> [ In ] | Both -> [ Out; In ] in
  List.iter
    (fun d ->
      let side = match d with Out -> c.fwd | In -> c.bwd | Both -> assert false in
      Array.iter (fun rows -> iter_row rows n f) side)
    dirs

(* A restricted label set (the RELAX sub-property closure): merged scan of
   the labels' ranges, in the order given. *)
let iter_neighbors_labels t n labels dir f =
  Array.iter (fun label -> iter_neighbors t n label dir f) labels

let iter_neighbors_any t n f =
  iter_neighbors_all_labels t n Out f;
  iter_neighbors_all_labels t n In f

let row_mem rows n dst =
  (* bisect the sorted row *)
  let lo = ref rows.off.(n) and hi = ref rows.off.(n + 1) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let v = rows.tgt.(mid) in
    if v = dst then found := true else if v < dst then lo := mid + 1 else hi := mid
  done;
  !found

let mem_edge t src label dst =
  let rows = slot_rows (index t) label Out in
  src + 1 < Array.length rows.off && row_mem rows src dst

let degree t n label dir =
  row_length (slot_rows (index t) label dir) n

let out_degree t n label = degree t n label Out
let in_degree t n label = degree t n label In

let has_adjacent t n label dir =
  match dir with
  | Both -> degree t n label Out > 0 || degree t n label In > 0
  | d -> degree t n label d > 0

let keys_of t label dir =
  Oid_set.of_iter (fun add ->
      let rows = slot_rows (index t) label dir in
      for n = 0 to t.node_count - 1 do
        if row_length rows n > 0 then add n
      done)

let tails_by_label t label = keys_of t label Out
let heads_by_label t label = keys_of t label In

let tails_and_heads t label =
  let set = tails_by_label t label in
  Oid_set.union_into set (heads_by_label t label);
  set

let iter_nodes t f =
  for oid = 0 to t.node_count - 1 do
    f oid
  done

type stats = {
  nodes : int;
  edges : int;
  distinct_labels : int;
  max_out_degree : int;
  max_in_degree : int;
}

let stats t =
  let c = index t in
  let max_deg side =
    Array.fold_left
      (fun best rows ->
        let best = ref best in
        for n = 0 to t.node_count - 1 do
          best := max !best (row_length rows n)
        done;
        !best)
      0 side
  in
  {
    nodes = t.node_count;
    edges = t.edge_count;
    distinct_labels = Array.length c.label_of_slot;
    max_out_degree = max_deg c.fwd;
    max_in_degree = max_deg c.bwd;
  }

let pp_stats ppf s =
  Format.fprintf ppf "nodes=%d edges=%d labels=%d max_out=%d max_in=%d" s.nodes s.edges
    s.distinct_labels s.max_out_degree s.max_in_degree
