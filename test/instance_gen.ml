(* Random single-conjunct instances over small graphs with a fixed
   class/property hierarchy — the shared generator behind the differential
   oracle suite (test_oracle) and the chaos suite (test_chaos).

   Instances cover every conjunct shape the engine distinguishes: variable
   and constant subjects and objects (including unknown constants and
   repeated variables) and exact / APPROX / RELAX modes. *)

module Graph = Graphstore.Graph
module Q = Core.Query
module R = Rpq_regex.Regex

let labels = [ "p"; "q"; "r"; "type" ]
let n_classes = 3

type instance = {
  n_base : int; (* plain nodes n0 .. n{n_base-1}; class nodes C0..C2 follow *)
  edges : (int * string * int) list;
  types : (int * int) list; (* base node -> class index, as type edges *)
  regex : R.t;
  mode : Q.mode;
  subj : [ `Var | `Node of int | `Ghost ];
  obj : [ `Fresh | `Same | `Node of int | `Ghost ];
}

let gen_regex =
  QCheck2.Gen.(
    sized (fun size ->
        let rec gen n =
          if n <= 1 then
            oneof
              [
                return (R.lbl "p"); return (R.lbl "q"); return (R.lbl "r");
                return (R.inv "p"); return (R.inv "q"); return R.any;
                return (R.lbl "type"); return (R.inv "type");
              ]
          else
            oneof
              [
                map2 R.seq (gen (n / 2)) (gen (n / 2));
                map2 R.alt (gen (n / 2)) (gen (n / 2));
                map R.star (gen (n / 2));
                map R.plus (gen (n / 2));
              ]
        in
        gen (min size 8)))

(* [edges] labelled edges and [types] type edges over [n_base] plain nodes
   and the class nodes. *)
let gen_edges ~n_base ~edges ~types =
  QCheck2.Gen.(
    let n_total = n_base + n_classes in
    pair
      (list_size edges
         (triple (int_bound (n_total - 1))
            (map (List.nth labels) (int_bound 3))
            (int_bound (n_total - 1))))
      (list_size types (pair (int_bound (n_base - 1)) (int_bound (n_classes - 1)))))

let gen_instance ~mode =
  QCheck2.Gen.(
    let* n_base = int_range 12 27 in
    let n_total = n_base + n_classes in
    let* edges, types = gen_edges ~n_base ~edges:(int_range 10 60) ~types:(int_range 0 8) in
    let* regex = gen_regex in
    let* subj =
      frequency
        [
          (4, return `Var);
          (3, map (fun i -> `Node i) (int_bound (n_total - 1)));
          (1, return `Ghost);
        ]
    in
    let* obj =
      frequency
        [
          (4, return `Fresh);
          (1, return `Same);
          (2, map (fun i -> `Node i) (int_bound (n_total - 1)));
          (1, return `Ghost);
        ]
    in
    return { n_base; edges; types; regex; mode; subj; obj })

let node_name n_base i = if i < n_base then Printf.sprintf "n%d" i else Printf.sprintf "C%d" (i - n_base)
let name_of inst i = node_name inst.n_base i

let build_graph ~freeze ~n_base ~edges ~types =
  let g = Graph.create () in
  for i = 0 to n_base + n_classes - 1 do
    ignore (Graph.add_node g (node_name n_base i))
  done;
  List.iter (fun (s, l, d) -> Graph.add_edge_s g s l d) edges;
  List.iter (fun (n, c) -> Graph.add_edge_s g n "type" (n_base + c)) types;
  let k = Ontology.create (Graph.interner g) in
  Ontology.add_subclass k "C0" "C1";
  Ontology.add_subclass k "C1" "C2";
  Ontology.add_subproperty k "q" "p";
  Ontology.add_subproperty k "p" "super";
  Ontology.add_domain k "p" "C0";
  Ontology.add_range k "p" "C1";
  (* build the CSR index up front, as every loader does; [~freeze:false]
     leaves it to the first lookup *)
  if freeze then Graph.freeze g;
  (g, k)

let build ?(freeze = true) inst = build_graph ~freeze ~n_base:inst.n_base ~edges:inst.edges ~types:inst.types

(* Domain counts the property suites sweep.  The determinism contract
   (DESIGN.md §Parallel evaluation) is that the answer *multiset* — and for
   any two parallel counts the exact stream — is independent of [domains],
   so the oracle/chaos/provenance generators re-run their properties at
   each count instead of maintaining copy-pasted parallel suites.  The
   sweep can be pinned from the environment (the CI multi-core job exports
   [OMEGA_DOMAINS=4] to re-run everything at one parallel width). *)
let domains_under_test () =
  match Sys.getenv_opt Core.Options.domains_env_var with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some _ -> [ 1; Core.Options.domains_from_env () ]

let with_domains options domains = { options with Core.Options.domains }

let conjunct_of inst =
  let subj =
    match inst.subj with
    | `Var -> Q.Var "X"
    | `Node i -> Q.Const (name_of inst i)
    | `Ghost -> Q.Const "missing"
  in
  let obj =
    match inst.obj with
    | `Fresh -> Q.Var "Y"
    | `Same -> Q.Var "X"
    | `Node i -> Q.Const (name_of inst i)
    | `Ghost -> Q.Const "absent"
  in
  Q.conjunct ~mode:inst.mode subj inst.regex obj

(* --- whole queries ------------------------------------------------------ *)

(* Random 2- and 3-conjunct queries for the whole-query oracle.  The graphs
   are smaller than the single-conjunct ones: a join's combinations grow
   with the product of its conjuncts' answer sets.  Every join shape the
   ranked join distinguishes is drawn explicitly: a shared variable, no
   shared variable (a cross product), a two-constant conjunct (an empty
   binding), a loop (?X, R, ?X), and a 3-way chain whose middle conjunct
   shares a variable with each side.  The head is a random non-empty subset
   of the body's variables, often a strict one; each conjunct's mode is
   drawn independently. *)
type query_instance = {
  q_base : int;
  q_edges : (int * string * int) list;
  q_types : (int * int) list;
  query : Q.t;
}

let gen_query_instance =
  QCheck2.Gen.(
    let* q_base = int_range 5 10 in
    let* q_edges, q_types = gen_edges ~n_base:q_base ~edges:(int_range 5 25) ~types:(int_range 0 5) in
    let const = map (fun i -> Q.Const (node_name q_base i)) (int_bound (q_base + n_classes - 1)) in
    let conj subj obj =
      let* regex = gen_regex in
      let* mode = oneofl [ Q.Exact; Q.Approx; Q.Relax ] in
      return (Q.conjunct ~mode subj regex obj)
    in
    let x = Q.Var "X" and y = Q.Var "Y" and z = Q.Var "Z" in
    let* conjuncts =
      oneof
        [
          flatten_l [ conj x y; conj y z ];
          (let* c = const in
           flatten_l [ conj x y; conj c z ]);
          (let* c1 = const and* c2 = const in
           flatten_l [ conj x y; conj c1 c2 ]);
          flatten_l [ conj x x; conj x y ];
          (let* c = const in
           flatten_l [ conj x y; conj y z; conj z c ]);
        ]
    in
    let body = Q.vars { Q.head = []; conjuncts } in
    let* keep = list_repeat (List.length body) bool in
    let head = List.filteri (fun i _ -> List.nth keep i) body in
    let head = if head = [] then [ List.hd body ] else head in
    return { q_base; q_edges; q_types; query = Q.make ~head conjuncts })

let build_query_instance inst =
  build_graph ~freeze:true ~n_base:inst.q_base ~edges:inst.q_edges ~types:inst.q_types

let print_query_instance inst =
  Printf.sprintf "%s over %d nodes, edges [%s], types [%s]" (Q.to_string inst.query)
    (inst.q_base + n_classes)
    (String.concat "; " (List.map (fun (s, l, d) -> Printf.sprintf "%d %s %d" s l d) inst.q_edges))
    (String.concat "; " (List.map (fun (n, c) -> Printf.sprintf "%d:C%d" n c) inst.q_types))
