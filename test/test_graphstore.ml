(* Unit and property tests for the graph store substrate: interner, oid
   bitsets and the Sparksee-like adjacency API. *)

module Interner = Graphstore.Interner
module Oid_set = Graphstore.Oid_set
module Graph = Graphstore.Graph

let check = Alcotest.check

(* --- Interner ------------------------------------------------------- *)

let test_intern_dense_ids () =
  let t = Interner.create () in
  check Alcotest.int "first" 0 (Interner.intern t "a");
  check Alcotest.int "second" 1 (Interner.intern t "b");
  check Alcotest.int "repeat" 0 (Interner.intern t "a");
  check Alcotest.int "cardinal" 2 (Interner.cardinal t)

let test_intern_name_roundtrip () =
  let t = Interner.create ~initial_capacity:1 () in
  let words = List.init 100 (fun i -> Printf.sprintf "label-%d" i) in
  let ids = List.map (Interner.intern t) words in
  List.iter2 (fun w id -> check Alcotest.string "name" w (Interner.name t id)) words ids;
  check Alcotest.(option int) "find known" (Some 42) (Interner.find t "label-42");
  check Alcotest.(option int) "find unknown" None (Interner.find t "nope")

let test_intern_bad_id () =
  let t = Interner.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Interner.name: unknown id -1") (fun () ->
      ignore (Interner.name t (-1)))

let test_intern_iter_order () =
  let t = Interner.create () in
  List.iter (fun w -> ignore (Interner.intern t w)) [ "x"; "y"; "z" ];
  let seen = ref [] in
  Interner.iter t (fun id name -> seen := (id, name) :: !seen);
  check
    Alcotest.(list (pair int string))
    "in id order"
    [ (0, "x"); (1, "y"); (2, "z") ]
    (List.rev !seen)

(* --- Oid_set -------------------------------------------------------- *)

let test_oid_set_basics () =
  let s = Oid_set.create ~capacity:4 () in
  check Alcotest.bool "empty" true (Oid_set.is_empty s);
  Oid_set.add s 3;
  Oid_set.add s 1000;
  (* beyond capacity: grows *)
  check Alcotest.bool "mem 3" true (Oid_set.mem s 3);
  check Alcotest.bool "mem 1000" true (Oid_set.mem s 1000);
  check Alcotest.bool "mem 4" false (Oid_set.mem s 4);
  check Alcotest.int "cardinal" 2 (Oid_set.cardinal s);
  check Alcotest.(list int) "sorted iteration" [ 3; 1000 ] (Oid_set.to_list s);
  Oid_set.remove s 3;
  check Alcotest.bool "removed" false (Oid_set.mem s 3);
  check Alcotest.int "cardinal after remove" 1 (Oid_set.cardinal s);
  Oid_set.clear s;
  check Alcotest.bool "cleared" true (Oid_set.is_empty s)

let test_oid_set_add_new () =
  let s = Oid_set.create () in
  check Alcotest.bool "fresh" true (Oid_set.add_new s 7);
  check Alcotest.bool "dup" false (Oid_set.add_new s 7);
  check Alcotest.int "cardinal" 1 (Oid_set.cardinal s)

let test_oid_set_union () =
  let a = Oid_set.create () and b = Oid_set.create () in
  List.iter (Oid_set.add a) [ 1; 5; 9 ];
  List.iter (Oid_set.add b) [ 5; 6 ];
  Oid_set.union_into a b;
  check Alcotest.(list int) "union" [ 1; 5; 6; 9 ] (Oid_set.to_list a)

(* Model-based property: a random sequence of add/remove agrees with a
   reference implementation over int sets. *)
let oid_set_model =
  QCheck2.Test.make ~name:"Oid_set agrees with a model set" ~count:200
    QCheck2.Gen.(list (pair bool (int_bound 500)))
    (fun ops ->
      let s = Oid_set.create ~capacity:1 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, x) ->
          if add then begin
            Oid_set.add s x;
            Hashtbl.replace model x ()
          end
          else begin
            Oid_set.remove s x;
            Hashtbl.remove model x
          end)
        ops;
      let expected = Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare in
      Oid_set.to_list s = expected && Oid_set.cardinal s = List.length expected)

(* --- Graph ---------------------------------------------------------- *)

let small_graph () =
  let g = Graph.create ~initial_nodes:2 () in
  let a = Graph.add_node g "a"
  and b = Graph.add_node g "b"
  and c = Graph.add_node g "c" in
  Graph.add_edge_s g a "p" b;
  Graph.add_edge_s g b "p" c;
  Graph.add_edge_s g a "q" c;
  Graph.add_edge_s g c "type" a;
  (g, a, b, c)

let test_graph_nodes () =
  let g, a, _, _ = small_graph () in
  check Alcotest.int "n_nodes" 3 (Graph.n_nodes g);
  check Alcotest.int "idempotent add" a (Graph.add_node g "a");
  check Alcotest.int "n_nodes unchanged" 3 (Graph.n_nodes g);
  check Alcotest.(option int) "find" (Some a) (Graph.find_node g "a");
  check Alcotest.(option int) "find missing" None (Graph.find_node g "zzz");
  check Alcotest.string "label" "a" (Graph.node_label g a)

let test_graph_neighbors () =
  let g, a, b, c = small_graph () in
  let p = Interner.intern (Graph.interner g) "p" in
  check Alcotest.(list int) "out" [ b ] (Graph.neighbors g a p Graph.Out);
  check Alcotest.(list int) "in" [ a ] (Graph.neighbors g b p Graph.In);
  check Alcotest.(list int) "both" [ c; a ] (Graph.neighbors g b p Graph.Both);
  check Alcotest.(list int) "none" [] (Graph.neighbors g c p Graph.Out)

let test_graph_neighbors_any () =
  let g, a, _, _ = small_graph () in
  let acc = ref [] in
  Graph.iter_neighbors_any g a (fun m -> acc := m :: !acc);
  (* a: out p->b, out q->c, in type<-c *)
  check Alcotest.int "three incident edges" 3 (List.length !acc)

let test_graph_heads_tails () =
  let g, a, b, c = small_graph () in
  let p = Interner.intern (Graph.interner g) "p" in
  check Alcotest.(list int) "tails p" [ a; b ] (Oid_set.to_list (Graph.tails_by_label g p));
  check Alcotest.(list int) "heads p" [ b; c ] (Oid_set.to_list (Graph.heads_by_label g p));
  check
    Alcotest.(list int)
    "tails-and-heads p" [ a; b; c ]
    (Oid_set.to_list (Graph.tails_and_heads g p))

let test_graph_mem_edge_degrees () =
  let g, a, b, c = small_graph () in
  let p = Interner.intern (Graph.interner g) "p" in
  check Alcotest.bool "mem" true (Graph.mem_edge g a p b);
  check Alcotest.bool "not mem (reverse)" false (Graph.mem_edge g b p a);
  check Alcotest.int "out degree" 1 (Graph.out_degree g a p);
  check Alcotest.int "in degree" 1 (Graph.in_degree g c p);
  check Alcotest.int "n_edges" 4 (Graph.n_edges g)

let test_graph_labels_and_type () =
  let g, _, _, _ = small_graph () in
  let names =
    List.map (Interner.name (Graph.interner g)) (Graph.labels g) |> List.sort compare
  in
  check Alcotest.(list string) "labels" [ "p"; "q"; "type" ] names;
  check Alcotest.string "type label interned" "type"
    (Interner.name (Graph.interner g) (Graph.type_label g))

let test_graph_iter_edges () =
  let g, _, _, _ = small_graph () in
  let n = ref 0 in
  Graph.iter_edges g (fun _ _ _ -> incr n);
  check Alcotest.int "edge count" 4 !n

let test_graph_stats () =
  let g, _, _, _ = small_graph () in
  let s = Graph.stats g in
  check Alcotest.int "nodes" 3 s.Graph.nodes;
  check Alcotest.int "edges" 4 s.Graph.edges;
  check Alcotest.int "labels" 3 s.Graph.distinct_labels;
  (* degrees are per label: a has one p-edge and one q-edge *)
  check Alcotest.int "max out" 1 s.Graph.max_out_degree

let test_graph_bad_oid () =
  let g, _, _, _ = small_graph () in
  Alcotest.check_raises "bad oid" (Invalid_argument "Graph.node_label: unknown oid 99") (fun () ->
      ignore (Graph.node_label g 99))

(* --- the CSR index ---------------------------------------------------- *)

(* Reads need no explicit [freeze], and every mutation is visible to the
   next read, whether or not the index was built in between. *)
let test_freeze_lifecycle () =
  let g, a, b, c = small_graph () in
  let q = Interner.intern (Graph.interner g) "q" in
  check Alcotest.(list int) "read before any freeze" [ c ] (Graph.neighbors g a q Graph.Out);
  Graph.freeze g;
  check Alcotest.bool "index has bytes" true (Graph.csr_bytes g > 0);
  Graph.freeze g;
  check Alcotest.(list int) "freeze is idempotent" [ c ] (Graph.neighbors g a q Graph.Out);
  let d = Graph.add_node g "d" in
  check Alcotest.(list int) "add_node: new node readable" [] (Graph.neighbors g d q Graph.Out);
  check Alcotest.int "add_node: stats see it" 4 (Graph.stats g).Graph.nodes;
  Graph.freeze g;
  Graph.add_edge_s g b "q" a;
  check Alcotest.(list int) "add_edge after freeze is read" [ b ] (Graph.neighbors g a q Graph.In);
  check Alcotest.bool "add_edge: mem_edge sees it" true (Graph.mem_edge g b q a);
  Graph.add_edge_s g d "q" a;
  check Alcotest.(list int) "add_edge after a read is read" [ b; d ]
    (Graph.neighbors g a q Graph.In)

let test_frozen_adjacency () =
  let g, a, b, c = small_graph () in
  Graph.freeze g;
  let p = Interner.intern (Graph.interner g) "p" in
  check Alcotest.(list int) "out" [ b ] (Graph.neighbors g a p Graph.Out);
  check Alcotest.(list int) "in" [ a ] (Graph.neighbors g b p Graph.In);
  check Alcotest.(list int) "both" [ c; a ] (Graph.neighbors g b p Graph.Both);
  check Alcotest.(list int) "none" [] (Graph.neighbors g c p Graph.Out);
  check Alcotest.bool "mem" true (Graph.mem_edge g a p b);
  check Alcotest.bool "not mem (reverse)" false (Graph.mem_edge g b p a);
  check Alcotest.int "out degree" 1 (Graph.out_degree g a p);
  check Alcotest.int "in degree" 1 (Graph.in_degree g c p);
  check Alcotest.bool "has_adjacent out" true (Graph.has_adjacent g a p Graph.Out);
  check Alcotest.bool "has_adjacent none" false (Graph.has_adjacent g c p Graph.Out);
  check Alcotest.bool "has_adjacent in" true (Graph.has_adjacent g c p Graph.In);
  check Alcotest.(list int) "tails p" [ a; b ] (Oid_set.to_list (Graph.tails_by_label g p));
  check Alcotest.(list int) "heads p" [ b; c ] (Oid_set.to_list (Graph.heads_by_label g p));
  check
    Alcotest.(list int)
    "tails-and-heads p" [ a; b; c ]
    (Oid_set.to_list (Graph.tails_and_heads g p))

let test_frozen_label_sweeps () =
  let g, a, _, c = small_graph () in
  Graph.freeze g;
  let intern = Interner.intern (Graph.interner g) in
  let collect f =
    let acc = ref [] in
    f (fun m -> acc := m :: !acc);
    List.sort compare !acc
  in
  (* a: out p->b, out q->c, in type<-c *)
  check Alcotest.int "any: all incident edges" 3
    (List.length (collect (Graph.iter_neighbors_any g a)));
  check Alcotest.int "all labels, out only" 2
    (List.length (collect (Graph.iter_neighbors_all_labels g a Graph.Out)));
  check Alcotest.(list int) "label subset" [ c ]
    (collect (Graph.iter_neighbors_labels g a [| intern "q"; intern "type" |] Graph.Out));
  (* a label the index never saw is simply empty *)
  check Alcotest.(list int) "unused label" []
    (collect (fun f -> Graph.iter_neighbors g a (intern "ghost") Graph.Out f))

(* Model-based property: every adjacency query agrees with a list model
   built from the generated edge list (duplicates included).  The graph is
   read once, optionally frozen, then one more edge is added; the next read
   must see it. *)
let adjacency_matches_model =
  let n_nodes = 12 and n_labels = 4 in
  let gen_edge =
    QCheck2.Gen.(
      triple (int_bound (n_nodes - 1)) (int_bound (n_labels - 1)) (int_bound (n_nodes - 1)))
  in
  QCheck2.Test.make ~name:"adjacency = edge-list model" ~count:100
    QCheck2.Gen.(quad (list_size (int_range 0 60) gen_edge) (int_bound 10) gen_edge bool)
    (fun (edges, n_dups, extra, freeze) ->
      (* repeat a prefix so duplicate edges are always exercised *)
      let edges = edges @ List.filteri (fun i _ -> i < n_dups) edges in
      let g = Graph.create ~initial_nodes:1 () in
      for i = 0 to n_nodes - 1 do
        ignore (Graph.add_node g (Printf.sprintf "v%d" i))
      done;
      let label l = Interner.intern (Graph.interner g) (Printf.sprintf "l%d" l) in
      let labels = List.init n_labels label and nodes = List.init n_nodes Fun.id in
      let sorted = List.sort compare and uniq = List.sort_uniq compare in
      let collect f =
        let acc = ref [] in
        f (fun m -> acc := m :: !acc);
        sorted !acc
      in
      let agrees edges =
        let edges = List.map (fun (s, l, d) -> (s, label l, d)) edges in
        let under l = List.filter (fun (_, l', _) -> l' = l) edges in
        let ends n l pick = sorted (List.filter_map (pick n) (under l)) in
        let outs n l = ends n l (fun n (s, _, d) -> if s = n then Some d else None)
        and ins n l = ends n l (fun n (s, _, d) -> if d = n then Some s else None) in
        let per_node l n =
          let o = outs n l and i = ins n l in
          Graph.neighbors g n l Graph.Out = o
          && Graph.neighbors g n l Graph.In = i
          && Graph.neighbors g n l Graph.Both = o @ i
          && Graph.out_degree g n l = List.length o
          && Graph.in_degree g n l = List.length i
          && Graph.has_adjacent g n l Graph.Out = (o <> [])
          && Graph.has_adjacent g n l Graph.In = (i <> [])
          && Graph.has_adjacent g n l Graph.Both = (o <> [] || i <> [])
          && List.for_all (fun m -> Graph.mem_edge g n l m = List.mem m o) nodes
        in
        let per_label l =
          let tails = uniq (List.map (fun (s, _, _) -> s) (under l))
          and heads = uniq (List.map (fun (_, _, d) -> d) (under l)) in
          Oid_set.to_list (Graph.tails_by_label g l) = tails
          && Oid_set.to_list (Graph.heads_by_label g l) = heads
          && Oid_set.to_list (Graph.tails_and_heads g l) = uniq (tails @ heads)
          && List.for_all (per_node l) nodes
        in
        let sweeps n =
          let over ls f = sorted (List.concat_map f ls) in
          let both l = outs n l @ ins n l in
          collect (Graph.iter_neighbors_any g n) = over labels both
          && collect (Graph.iter_neighbors_all_labels g n Graph.Out) = over labels (outs n)
          && collect (Graph.iter_neighbors_all_labels g n Graph.In) = over labels (ins n)
          && collect (Graph.iter_neighbors_labels g n [| label 0; label 2 |] Graph.Both)
             = over [ label 0; label 2 ] both
        in
        let max_degree f =
          List.fold_left (fun acc (n, l) -> max acc (List.length (f n l))) 0
            (List.concat_map (fun n -> List.map (fun l -> (n, l)) labels) nodes)
        in
        let logged = ref [] in
        Graph.iter_edges g (fun s l d -> logged := (s, l, d) :: !logged);
        let used = uniq (List.map (fun (_, l, _) -> l) edges) in
        List.for_all per_label labels
        && List.for_all sweeps nodes
        && List.rev !logged = edges
        && Graph.labels g = used
        && Graph.stats g
           = {
               Graph.nodes = n_nodes;
               edges = List.length edges;
               distinct_labels = List.length used;
               max_out_degree = max_degree outs;
               max_in_degree = max_degree ins;
             }
      in
      let add (s, l, d) = Graph.add_edge g s (label l) d in
      List.iter add edges;
      let before = agrees edges in
      if freeze then Graph.freeze g;
      add extra;
      before && agrees (edges @ [ extra ]))

(* Property: adjacency is symmetric — m is an Out-neighbour of n under l
   iff n is an In-neighbour of m under l, for random graphs. *)
let graph_adjacency_symmetry =
  QCheck2.Test.make ~name:"out/in adjacency symmetry" ~count:50
    QCheck2.Gen.(list_size (int_range 1 60) (triple (int_bound 9) (int_bound 2) (int_bound 9)))
    (fun edges ->
      let g = Graph.create () in
      let node i = Graph.add_node g (string_of_int i) in
      List.iter (fun (s, l, d) -> Graph.add_edge_s g (node s) (Printf.sprintf "l%d" l) (node d)) edges;
      List.for_all
        (fun (s, l, d) ->
          let l = Interner.intern (Graph.interner g) (Printf.sprintf "l%d" l) in
          let s = node s and d = node d in
          List.mem d (Graph.neighbors g s l Graph.Out) && List.mem s (Graph.neighbors g d l Graph.In))
        edges)

let () =
  Alcotest.run "graphstore"
    [
      ( "interner",
        [
          Alcotest.test_case "dense ids" `Quick test_intern_dense_ids;
          Alcotest.test_case "name roundtrip" `Quick test_intern_name_roundtrip;
          Alcotest.test_case "bad id" `Quick test_intern_bad_id;
          Alcotest.test_case "iter order" `Quick test_intern_iter_order;
        ] );
      ( "oid_set",
        [
          Alcotest.test_case "basics" `Quick test_oid_set_basics;
          Alcotest.test_case "add_new" `Quick test_oid_set_add_new;
          Alcotest.test_case "union" `Quick test_oid_set_union;
          QCheck_alcotest.to_alcotest oid_set_model;
        ] );
      ( "graph",
        [
          Alcotest.test_case "nodes" `Quick test_graph_nodes;
          Alcotest.test_case "neighbors" `Quick test_graph_neighbors;
          Alcotest.test_case "neighbors any" `Quick test_graph_neighbors_any;
          Alcotest.test_case "heads/tails" `Quick test_graph_heads_tails;
          Alcotest.test_case "mem_edge and degrees" `Quick test_graph_mem_edge_degrees;
          Alcotest.test_case "labels and type" `Quick test_graph_labels_and_type;
          Alcotest.test_case "iter_edges" `Quick test_graph_iter_edges;
          Alcotest.test_case "stats" `Quick test_graph_stats;
          Alcotest.test_case "bad oid" `Quick test_graph_bad_oid;
          QCheck_alcotest.to_alcotest graph_adjacency_symmetry;
        ] );
      ( "frozen graph",
        [
          Alcotest.test_case "freeze lifecycle" `Quick test_freeze_lifecycle;
          Alcotest.test_case "frozen adjacency" `Quick test_frozen_adjacency;
          Alcotest.test_case "frozen label sweeps" `Quick test_frozen_label_sweeps;
          QCheck_alcotest.to_alcotest adjacency_matches_model;
        ] );
    ]
