type source = { vars : string list; pull : int array -> (int * Witness.t list) option }

(* One pulled answer: the oids of its input's variables, in [vars] order. *)
type entry = { vals : int array; dist : int; wits : Witness.t list }

(* An input's entries grouped by the oids at [key_pos] (positions in the
   input's [vars]), each bucket newest first.  [key_slots] are the same
   variables' join slots, where a probe reads its key; [key] is the reused
   array both insertion and probes build the key in. *)
type index = {
  key_pos : int array;
  key_slots : int array;
  key : int array;
  buckets : (int array, entry list ref) Hashtbl.t;
}

type input = {
  pull : int array -> (int * Witness.t list) option;
  out : int array; (* the buffer [pull] writes its oids into *)
  slots : int array; (* the join slot of each of the input's variables *)
  mutable indexes : index list; (* one per key shape the input is probed with *)
  mutable top : int; (* smallest distance pulled; -1 before the first pull *)
  mutable last : int; (* largest distance pulled *)
  mutable exhausted : bool;
}

(* How a fresh answer of one input is joined: the other inputs in index
   order, each with the index it is probed through. *)
type step = { other : input; via : index }

type t = {
  inputs : input array;
  plans : step array array; (* [plans.(idx)]: the steps for a fresh answer of input [idx] *)
  names : string list; (* the variable of each join slot *)
  binding : int array; (* reused: the binding the combinations are assembled in *)
  buffer : (int array * int * Witness.t list) Dr_queue.t; (* keyed by total distance *)
  emitted : Tuple_set.t; (* the bindings emitted so far *)
  governor : Governor.t;
  h_combos : Obs.Metrics.histogram; (* combinations produced per input pull *)
}

let slot t v = List.find_index (String.equal v) t.names

(* The index of [input] keyed on [key_pos], shared by every plan that
   probes the input with that key shape. *)
let index_for input key_pos =
  match List.find_opt (fun ix -> ix.key_pos = key_pos) input.indexes with
  | Some ix -> ix
  | None ->
    let ix =
      {
        key_pos;
        key_slots = Array.map (fun p -> input.slots.(p)) key_pos;
        key = Array.make (Array.length key_pos) 0;
        buckets = Hashtbl.create 64;
      }
    in
    input.indexes <- ix :: input.indexes;
    ix

(* For a fresh answer of input [idx], input [j]'s key is its variables bound
   by [idx] or by an input visited before it. *)
let plan inputs width idx =
  let bound = Array.make width false in
  let bind input = Array.iter (fun s -> bound.(s) <- true) input.slots in
  bind inputs.(idx);
  let steps = ref [] in
  Array.iteri
    (fun j other ->
      if j <> idx then begin
        let key_pos =
          Array.of_list
            (List.filter (fun p -> bound.(other.slots.(p))) (List.init (Array.length other.slots) Fun.id))
        in
        steps := { other; via = index_for other key_pos } :: !steps;
        bind other
      end)
    inputs;
  Array.of_list (List.rev !steps)

let create ?(governor = Governor.unlimited ()) ?metrics sources =
  if sources = [] then invalid_arg "Ranked_join.create: no streams";
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  List.iter
    (fun (s : source) ->
      if List.length (List.sort_uniq String.compare s.vars) < List.length s.vars then
        invalid_arg "Ranked_join.create: a stream lists a variable twice")
    sources;
  (* one slot per variable, in order of first appearance *)
  let names =
    List.fold_left
      (fun acc (s : source) ->
        List.fold_left (fun acc v -> if List.mem v acc then acc else acc @ [ v ]) acc s.vars)
      [] sources
  in
  let width = List.length names in
  if width = 0 then invalid_arg "Ranked_join.create: no variables";
  let inputs =
    Array.of_list
      (List.map
         (fun (s : source) ->
           {
             pull = s.pull;
             out = Array.make (List.length s.vars) 0;
             slots = Array.of_list (List.filter_map (fun v -> List.find_index (String.equal v) names) s.vars);
             indexes = [];
             top = -1;
             last = 0;
             exhausted = false;
           })
         sources)
  in
  {
    inputs;
    plans = Array.init (Array.length inputs) (plan inputs width);
    names;
    binding = Array.make width 0;
    buffer = Dr_queue.create ();
    emitted = Tuple_set.create ~width 64;
    governor;
    h_combos = Obs.Metrics.histogram metrics "join_combos";
  }

(* Lower bound on the total distance of any joined combination that uses at
   least one answer not yet pulled: min over live inputs [i] of
   [last_i + Σ_{j≠i} top_j], defined only when every other input has pulled. *)
let threshold t =
  let sum = ref 0 and unpulled = ref 0 in
  for i = 0 to Array.length t.inputs - 1 do
    let top = t.inputs.(i).top in
    if top < 0 then incr unpulled else sum := !sum + top
  done;
  let bound = ref max_int in
  for i = 0 to Array.length t.inputs - 1 do
    let input = t.inputs.(i) in
    let others_pulled = !unpulled = if input.top < 0 then 1 else 0 in
    if (not input.exhausted) && others_pulled then begin
      let b = input.last + !sum - max input.top 0 in
      if b < !bound then bound := b
    end
  done;
  !bound

let insert e ix =
  for k = 0 to Array.length ix.key_pos - 1 do
    ix.key.(k) <- e.vals.(ix.key_pos.(k))
  done;
  match Hashtbl.find ix.buckets ix.key with
  | bucket -> bucket := e :: !bucket
  | exception Not_found -> Hashtbl.add ix.buckets (Array.copy ix.key) (ref [ e ])

let write t input vals =
  for p = 0 to Array.length vals - 1 do
    t.binding.(input.slots.(p)) <- vals.(p)
  done

(* Every combination of the binding in [t.binding] with the entries of
   [steps.(l ..)] that agree with it, prepended to [combos] in reverse
   visiting order.  Witness lists concatenate: a combined binding's
   provenance is one witness per participating conjunct answer. *)
let rec extend t steps l dist wits combos =
  if l = Array.length steps then (Array.copy t.binding, dist, wits) :: combos
  else begin
    let { other; via } = steps.(l) in
    for k = 0 to Array.length via.key_slots - 1 do
      via.key.(k) <- t.binding.(via.key_slots.(k))
    done;
    match Hashtbl.find via.buckets via.key with
    | bucket -> extend_each t steps l other !bucket dist wits combos
    | exception Not_found -> combos
  end

and extend_each t steps l other entries dist wits combos =
  match entries with
  | [] -> combos
  | e :: rest ->
    write t other e.vals;
    let combos = extend t steps (l + 1) (dist + e.dist) (wits @ e.wits) combos in
    extend_each t steps l other rest dist wits combos

let rec insert_all e = function
  | [] -> ()
  | ix :: rest ->
    insert e ix;
    insert_all e rest

(* Queue [combos] in list order; returns [n] plus their number. *)
let rec buffer_all t combos n =
  match combos with
  | [] -> n
  | ((_, total, _) as combo) :: rest ->
    Dr_queue.push t.buffer ~dist:total ~final:false combo;
    (* buffered join combinations are held in memory just like D_R tuples,
       so they draw on the same governor budgets (tuple and memory; the
       bytes are released when the combination is popped) *)
    Governor.charge_mem t.governor Mem.join_combo_bytes;
    Governor.tick_tuple t.governor;
    buffer_all t rest (n + 1)

let pull_one t idx =
  Failpoints.check Failpoints.Join_pull;
  let input = t.inputs.(idx) in
  let start_ns = if Obs.Trace.enabled () then !Obs.Clock.now_ns () else 0 in
  match input.pull input.out with
  | None ->
    input.exhausted <- true;
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~cat:"join" ~start_ns
        ~args:[ ("input", Obs.Trace.Num idx); ("combos", Obs.Trace.Num 0) ]
        "join.pull"
  | Some (d, ws) ->
    let e = { vals = Array.copy input.out; dist = d; wits = ws } in
    insert_all e input.indexes;
    (* pulled answers are retained for the life of the join: charged once,
       however many indexes hold the entry, and never released *)
    Governor.charge_mem t.governor Mem.join_seen_bytes;
    input.last <- max input.last d;
    if input.top < 0 || d < input.top then input.top <- d;
    write t input e.vals;
    let n = buffer_all t (extend t t.plans.(idx) 0 d ws []) 0 in
    Obs.Metrics.observe t.h_combos n;
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~cat:"join" ~start_ns
        ~args:[ ("input", Obs.Trace.Num idx); ("combos", Obs.Trace.Num n) ]
        "join.pull"

(* Inputs that have produced nothing yet weigh least, so every stream gets
   a first pull. *)
let weight input = if input.top < 0 then min_int else input.last

(* The non-exhausted input with the smallest weight, the first on ties;
   -1 when every input is exhausted. *)
let next_source t =
  let best = ref (-1) in
  for i = 0 to Array.length t.inputs - 1 do
    let input = t.inputs.(i) in
    if (not input.exhausted) && (!best < 0 || weight input < weight t.inputs.(!best)) then
      best := i
  done;
  !best

(* Pop the cheapest buffered combination (the buffer is non-empty) and
   return it unless its binding was already emitted. *)
let rec emit t =
  let ((binding, _, _) as combo) = Dr_queue.pop t.buffer in
  Governor.release_mem t.governor Mem.join_combo_bytes;
  if not (Tuple_set.add_new t.emitted binding) then next t
  else begin
    Governor.charge_mem t.governor Mem.answer_entry_bytes;
    Some combo
  end

and next t =
  if not (Governor.poll t.governor) then None
  else
  let releasable =
    match Dr_queue.min_distance t.buffer with
    | Some d -> d <= threshold t
    | None -> false
  in
  if releasable then emit t
  else
    match next_source t with
    | -1 ->
      (* every input exhausted: flush the buffer *)
      if Dr_queue.is_empty t.buffer then None else emit t
    | idx ->
      pull_one t idx;
      next t
