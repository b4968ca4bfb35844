(* A brute-force differential oracle for single-conjunct evaluation.

   [answers] computes the full ranked answer set of a conjunct by naive
   Dijkstra over the explicit (automaton x graph) product: the product's
   adjacency is rebuilt from the raw edge list ([Graph.iter_edges]) for
   every query, so the oracle shares nothing with the engine's physical
   layer — no CSR index, no seeder, no D_R queue, no U-cache, no visited
   set.  Only the automaton compiler is shared, which is exactly what the
   differential tests want to pin down: the engine's Open/GetNext/Succ
   machinery against the textbook semantics of the same automaton.

   The query-level semantics of [Conjunct.open_] are mirrored here
   independently:
   - case 2 rewriting: (?X, R, C) becomes (C, R-, ?X) with answers swapped
     back;
   - unknown subject or object constants yield the empty answer set;
   - RELAX seeds a class-named subject constant at every super-class node,
     at distance depth * beta;
   - an object constant keeps only answers landing on its node, and a
     repeated variable (?X, R, ?X) keeps only loops. *)

module Graph = Graphstore.Graph
module Interner = Graphstore.Interner
module Nfa = Automaton.Nfa
module Q = Core.Query

(* Product adjacency from the raw edge list: for each transition label of
   the automaton, the nodes reachable from each node in one step.  One scan
   of the edge list per distinct label. *)
let label_adjacency g nfa =
  let n = Graph.n_nodes g in
  let type_l = Graph.type_label g in
  let table : (Nfa.tlabel, int list array) Hashtbl.t = Hashtbl.create 8 in
  Nfa.iter_transitions nfa (fun _ tr ->
      if not (Hashtbl.mem table tr.Nfa.lbl) then begin
        let adj = Array.make n [] in
        Graph.iter_edges g (fun src l dst ->
            match tr.Nfa.lbl with
            | Nfa.Eps -> ()
            | Nfa.Sym (Fwd, a) -> if l = a then adj.(src) <- dst :: adj.(src)
            | Nfa.Sym (Bwd, a) -> if l = a then adj.(dst) <- src :: adj.(dst)
            | Nfa.Any ->
              adj.(src) <- dst :: adj.(src);
              adj.(dst) <- src :: adj.(dst)
            | Nfa.Any_dir Fwd -> adj.(src) <- dst :: adj.(src)
            | Nfa.Any_dir Bwd -> adj.(dst) <- src :: adj.(dst)
            | Nfa.Sub_closure (Fwd, ls) ->
              if Array.exists (fun x -> x = l) ls then adj.(src) <- dst :: adj.(src)
            | Nfa.Sub_closure (Bwd, ls) ->
              if Array.exists (fun x -> x = l) ls then adj.(dst) <- src :: adj.(dst)
            | Nfa.Type_to c -> if l = type_l && dst = c then adj.(src) <- dst :: adj.(src));
        Hashtbl.add table tr.Nfa.lbl adj
      end);
  table

module Frontier = Set.Make (struct
  type t = int * int * int (* dist, node, state *)

  let compare = compare
end)

(* Dijkstra over (node, state) from one start node; returns the distance
   array indexed by node * n_states + state, or -1 when unreachable. *)
let product_distances g nfa adjacency start =
  let n_states = Nfa.n_states nfa in
  let dist = Array.make (Graph.n_nodes g * n_states) (-1) in
  let key n s = (n * n_states) + s in
  dist.(key start (Nfa.initial nfa)) <- 0;
  let frontier = ref (Frontier.singleton (0, start, Nfa.initial nfa)) in
  while not (Frontier.is_empty !frontier) do
    let ((d, n, s) as min) = Frontier.min_elt !frontier in
    frontier := Frontier.remove min !frontier;
    if d = dist.(key n s) then
      List.iter
        (fun (tr : Nfa.transition) ->
          List.iter
            (fun m ->
              let nd = d + tr.Nfa.cost in
              let k = key m tr.Nfa.dst in
              if dist.(k) < 0 || nd < dist.(k) then begin
                dist.(k) <- nd;
                frontier := Frontier.add (nd, m, tr.Nfa.dst) !frontier
              end)
            (Hashtbl.find adjacency tr.Nfa.lbl).(n))
        (Nfa.out nfa s)
  done;
  dist

(* RELAX class-ancestor seeding, mirroring [Conjunct.relax_ancestor_seeds]:
   a class-named constant also starts from every super-class node, at
   distance depth * beta. *)
let relax_seeds g k ~beta oid =
  let interner = Graph.interner g in
  let label_id = Interner.intern interner (Graph.node_label g oid) in
  if not (Ontology.is_class k label_id) then [ (oid, 0) ]
  else
    List.filter_map
      (fun (cls, depth) ->
        match Graph.find_node g (Interner.name interner cls) with
        | Some node -> Some (node, depth * beta)
        | None -> None)
      (Ontology.ancestors_by_specificity k label_id)

(* The full ranked answer set [(x, y, dist)] of a conjunct, sorted. *)
let answers g k (options : Core.Options.t) (conjunct : Q.conjunct) =
  let subj, regex, obj, swap =
    match (conjunct.Q.subj, conjunct.Q.obj) with
    | Q.Var _, Q.Const _ ->
      (conjunct.Q.obj, Rpq_regex.Regex.reverse conjunct.Q.regex, conjunct.Q.subj, true)
    | _ -> (conjunct.Q.subj, conjunct.Q.regex, conjunct.Q.obj, false)
  in
  let mode = Core.Options.compile_mode options conjunct.Q.cmode in
  let nfa = Automaton.Compile.conjunct_automaton ~graph:g ~ontology:k ~mode regex in
  let starts =
    match subj with
    | Q.Const c -> (
      match Graph.find_node g c with
      | None -> []
      | Some oid ->
        if conjunct.Q.cmode = Q.Relax then
          relax_seeds g k ~beta:options.Core.Options.costs.beta oid
        else [ (oid, 0) ])
    | Q.Var _ -> List.init (Graph.n_nodes g) (fun i -> (i, 0))
  in
  let target =
    match obj with
    | Q.Const c -> ( match Graph.find_node g c with Some oid -> `Node oid | None -> `Unsat)
    | Q.Var _ -> `Free
  in
  let same_var = match (subj, obj) with Q.Var a, Q.Var b -> a = b | _ -> false in
  match target with
  | `Unsat -> []
  | _ ->
    let n_states = Nfa.n_states nfa in
    let finals = Nfa.finals nfa in
    let adjacency = label_adjacency g nfa in
    let best = Hashtbl.create 64 in
    List.iter
      (fun (v, seed_cost) ->
        let dist = product_distances g nfa adjacency v in
        Graph.iter_nodes g (fun n ->
            let keep =
              (match target with `Node oid -> n = oid | _ -> true)
              && ((not same_var) || v = n)
            in
            if keep then
              List.iter
                (fun (s, weight) ->
                  let d = dist.((n * n_states) + s) in
                  if d >= 0 then begin
                    let total = seed_cost + d + weight in
                    match Hashtbl.find_opt best (v, n) with
                    | Some t when t <= total -> ()
                    | _ -> Hashtbl.replace best (v, n) total
                  end)
                finals))
      starts;
    Hashtbl.fold
      (fun (v, n) d acc -> (if swap then (n, v, d) else (v, n, d)) :: acc)
      best []
    |> List.sort compare

(* The engine's answers in emission order, drained to exhaustion. *)
let engine_stream g k options conjunct =
  let ev = Core.Evaluator.create ~graph:g ~ontology:k ~options conjunct in
  let rec drain acc =
    match Core.Evaluator.next ev with
    | Some (a : Core.Conjunct.answer) -> drain ((a.x, a.y, a.dist) :: acc)
    | None -> List.rev acc
  in
  drain []

(* --- whole queries ----------------------------------------------------- *)

(* The ranked answer multiset of a whole CRP query, brute force: each
   conjunct's oracle answer set as variable bindings, joined by nested loops
   over the conjuncts, distances summed, projected onto the head keeping
   each head binding's least distance.  Sorted [(head labels, distance)]. *)
let query_answers g k options (q : Q.t) =
  let rows (c : Q.conjunct) =
    let var term oid = match term with Q.Var v -> [ (v, oid) ] | Q.Const _ -> [] in
    List.map (fun (x, y, d) -> (var c.Q.subj x @ var c.Q.obj y, d)) (answers g k options c)
  in
  let agree b1 b2 =
    List.for_all (fun (v, x) -> match List.assoc_opt v b2 with Some y -> x = y | None -> true) b1
  in
  let joined =
    List.fold_left
      (fun partial c ->
        let rows = rows c in
        List.concat_map
          (fun (b, d) ->
            List.filter_map (fun (b', d') -> if agree b b' then Some (b @ b', d + d') else None) rows)
          partial)
      [ ([], 0) ] q.Q.conjuncts
  in
  let best = Hashtbl.create 64 in
  List.iter
    (fun (b, d) ->
      let key = List.map (fun v -> List.assoc v b) q.Q.head in
      match Hashtbl.find_opt best key with
      | Some d0 when d0 <= d -> ()
      | _ -> Hashtbl.replace best key d)
    joined;
  Hashtbl.fold (fun key d acc -> (List.map (Graph.node_label g) key, d) :: acc) best []
  |> List.sort compare

(* The engine's answers to a whole query as the same sorted multiset. *)
let engine_answers g k options q =
  (Core.Engine.run ~graph:g ~ontology:k ~options q).Core.Engine.answers
  |> List.map (fun (a : Core.Engine.answer) -> (List.map snd a.bindings, a.distance))
  |> List.sort compare
