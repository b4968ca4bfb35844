(* Quickstart: build a tiny graph + ontology in code, then ask exact,
   APPROX and RELAX queries through the public API.

     dune exec examples/quickstart.exe
*)

module Graph = Graphstore.Graph

let () =
  (* A little academic world: people, universities, cities. *)
  let g = Graph.create () in
  let node = Graph.add_node g in
  let ada = node "Ada"
  and grace = node "Grace"
  and alan = node "Alan"
  and cambridge = node "Cambridge University"
  and harvard = node "Harvard University"
  and london = node "London"
  and boston = node "Boston"
  and uk = node "UK"
  and usa = node "USA"
  and university = node "University" in
  Graph.add_edge_s g ada "studiedAt" cambridge;
  Graph.add_edge_s g alan "studiedAt" cambridge;
  Graph.add_edge_s g grace "studiedAt" harvard;
  Graph.add_edge_s g ada "mentored" grace;
  Graph.add_edge_s g cambridge "locatedIn" london;
  Graph.add_edge_s g harvard "locatedIn" boston;
  Graph.add_edge_s g london "locatedIn" uk;
  Graph.add_edge_s g boston "locatedIn" usa;
  Graph.add_edge_s g cambridge "type" university;
  Graph.add_edge_s g harvard "type" university;

  (* The ontology: studiedAt and worksAt are kinds of affiliation. *)
  let k = Ontology.create (Graph.interner g) in
  Ontology.add_subproperty k "studiedAt" "affiliatedWith";
  Ontology.add_subproperty k "worksAt" "affiliatedWith";
  Graph.add_edge_s g alan "worksAt" harvard;

  (* Loading is done: build the CSR index now rather than on the first
     query; the queries below traverse its packed adjacency ranges. *)
  Graph.freeze g;

  let show title query =
    Format.printf "@.== %s@.   %s@." title query;
    match Core.Engine.run_string ~graph:g ~ontology:k ~limit:10 query with
    | Ok outcome ->
      List.iter (fun a -> Format.printf "   %a@." Core.Engine.pp_answer a) outcome.Core.Engine.answers;
      if outcome.Core.Engine.answers = [] then Format.printf "   (no answers)@."
    | Error msg -> Format.printf "   error: %s@." msg
  in

  (* 1. An exact regular path query: who studied in the UK?  The path
     climbs the locatedIn chain with a star. *)
  show "Exact: people who studied somewhere in the UK"
    "(?P) <- (?P, studiedAt.locatedIn*.locatedIn, UK)";

  (* 2. The same idea with a typo'd/misdirected label: no exact answers,
     but APPROX repairs it at edit distance 1. *)
  show "Exact, but with the wrong last label (returns nothing)"
    "(?P) <- (UK, locatedIn-.locatedIn-.studiedAt, ?P)";
  show "APPROX repairs the direction at distance 1"
    "(?P) <- APPROX (UK, locatedIn-.locatedIn-.studiedAt, ?P)";

  (* 3. RELAX climbs the property hierarchy: affiliatedWith matches both
     studiedAt and worksAt edges, at relaxation distance 1. *)
  show "Exact: who is affiliatedWith Harvard? (no such edges)"
    "(?P) <- (?P, affiliatedWith, Harvard University)";
  show "RELAX: sub-properties of affiliatedWith match"
    "(?P) <- RELAX (?P, studiedAt, Harvard University)";

  (* 4. A conjunctive query with a ranked join: mentors and where their
     students studied. *)
  show "Join: mentor and the university of their student"
    "(?M, ?U) <- (?M, mentored, ?S), (?S, studiedAt, ?U)"
