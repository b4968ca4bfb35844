(* Tests for the incremental ranked join: the hash join against the list-scan
   algorithm it replaced (identical emission sequences), join product
   correctness against a brute-force reference, and total-distance
   ordering. *)

module RJ = Core.Ranked_join

let check = Alcotest.check

(* --- the reference: bindings as sorted association lists ------------- *)

type binding = (string * int) list

let binding_of pairs : binding =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  let rec check = function
    | (a, va) :: ((b, vb) :: _ as rest) ->
      if a = b then
        if va = vb then check rest else invalid_arg (Printf.sprintf "binding_of: ?%s bound twice" a)
      else check rest
    | _ -> ()
  in
  check sorted;
  List.sort_uniq compare sorted

let compatible b1 b2 =
  List.for_all
    (fun (v, x) -> match List.assoc_opt v b2 with Some y -> x = y | None -> true)
    b1

let merge b1 b2 = List.sort_uniq compare (b1 @ b2)

let test_binding_of () =
  check
    Alcotest.(list (pair string int))
    "sorted" [ ("a", 1); ("b", 2) ]
    (binding_of [ ("b", 2); ("a", 1) ]);
  check
    Alcotest.(list (pair string int))
    "consistent duplicate collapsed" [ ("a", 1) ]
    (binding_of [ ("a", 1); ("a", 1) ]);
  Alcotest.check_raises "inconsistent" (Invalid_argument "binding_of: ?a bound twice") (fun () ->
      ignore (binding_of [ ("a", 1); ("a", 2) ]))

let test_compatible_merge () =
  let b1 = binding_of [ ("x", 1); ("y", 2) ] in
  let b2 = binding_of [ ("y", 2); ("z", 3) ] in
  let b3 = binding_of [ ("y", 9) ] in
  check Alcotest.bool "shared var equal" true (compatible b1 b2);
  check Alcotest.bool "shared var differs" false (compatible b1 b3);
  check Alcotest.bool "disjoint" true (compatible b2 (binding_of [ ("w", 0) ]));
  check
    Alcotest.(list (pair string int))
    "merge" [ ("x", 1); ("y", 2); ("z", 3) ]
    (merge b1 b2)

(* The list-scan ranked join the hash join replaced: every pulled answer is
   joined against every answer already pulled from each other input.  Same
   pull policy, threshold, buffer and dedup, minus the governor, metrics,
   failpoints and tracing. *)
module Scan = struct
  type input = {
    pull : unit -> (binding * int * Core.Witness.t list) option;
    mutable seen : (binding * int * Core.Witness.t list) list;
    mutable top : int option;
    mutable last : int;
    mutable exhausted : bool;
  }

  type t = {
    inputs : input array;
    buffer : (binding * int * Core.Witness.t list) Core.Dr_queue.t;
    emitted : (binding, unit) Hashtbl.t;
  }

  let create streams =
    {
      inputs =
        Array.of_list
          (List.map (fun pull -> { pull; seen = []; top = None; last = 0; exhausted = false }) streams);
      buffer = Core.Dr_queue.create ();
      emitted = Hashtbl.create 64;
    }

  let threshold t =
    let bound = ref max_int in
    Array.iteri
      (fun i input ->
        if not input.exhausted then begin
          let others_ok = ref true and others_sum = ref 0 in
          Array.iteri
            (fun j other ->
              if i <> j then
                match other.top with
                | Some d -> others_sum := !others_sum + d
                | None -> others_ok := false)
            t.inputs;
          if !others_ok && input.last + !others_sum < !bound then bound := input.last + !others_sum
        end)
      t.inputs;
    !bound

  let combinations t idx fresh fresh_dist fresh_wits =
    let n = Array.length t.inputs in
    let rec extend j acc_binding acc_dist acc_wits combos =
      if j = n then (acc_binding, acc_dist, acc_wits) :: combos
      else if j = idx then extend (j + 1) acc_binding acc_dist acc_wits combos
      else
        List.fold_left
          (fun combos (b, d, ws) ->
            if compatible acc_binding b then
              extend (j + 1) (merge acc_binding b) (acc_dist + d) (acc_wits @ ws) combos
            else combos)
          combos t.inputs.(j).seen
    in
    extend 0 fresh fresh_dist fresh_wits []

  let pull_one t idx =
    let input = t.inputs.(idx) in
    match input.pull () with
    | None -> input.exhausted <- true
    | Some (b, d, ws) ->
      input.seen <- (b, d, ws) :: input.seen;
      input.last <- max input.last d;
      (match input.top with Some top when top <= d -> () | _ -> input.top <- Some d);
      List.iter
        (fun ((_, total, _) as combo) -> Core.Dr_queue.push t.buffer ~dist:total ~final:false combo)
        (combinations t idx b d ws)

  let next_source t =
    let best = ref (-1) in
    Array.iteri
      (fun i input ->
        if not input.exhausted then
          match !best with
          | -1 -> best := i
          | b ->
            let weight j = if t.inputs.(j).top = None then min_int else t.inputs.(j).last in
            if weight i < weight b then best := i)
      t.inputs;
    !best

  let rec emit t =
    let ((binding, _, _) as combo) = Core.Dr_queue.pop t.buffer in
    if Hashtbl.mem t.emitted binding then next t
    else begin
      Hashtbl.add t.emitted binding ();
      Some combo
    end

  and next t =
    let releasable =
      match Core.Dr_queue.min_distance t.buffer with
      | Some d -> d <= threshold t
      | None -> false
    in
    if releasable then emit t
    else
      match next_source t with
      | -1 -> if Core.Dr_queue.is_empty t.buffer then None else emit t
      | idx ->
        pull_one t idx;
        next t
end

(* --- streams ----------------------------------------------------------- *)

(* A test stream: its variables and its rows (the variables' oids, the
   distance), in non-decreasing distance.  Each row carries one witness
   tagged (input, row) so witness concatenation order is observable; the
   witnesses' own contents are pinned by the provenance suite. *)
type spec = { vars : string list; rows : (int list * int) list }

let tag input row = { Core.Witness.source = input; target = row; dist = 0; hops = [] }

let cursor input spec =
  let rest = ref (List.mapi (fun row r -> (r, tag input row)) spec.rows) in
  fun () ->
    match !rest with
    | [] -> None
    | (r, w) :: tl ->
      rest := tl;
      Some (r, w)

let source input spec =
  let next = cursor input spec in
  {
    RJ.vars = spec.vars;
    pull =
      (fun out ->
        match next () with
        | None -> None
        | Some ((vals, d), w) ->
          List.iteri (fun p v -> out.(p) <- v) vals;
          Some (d, [ w ]));
  }

let scan_stream input spec =
  let next = cursor input spec in
  fun () ->
    match next () with
    | None -> None
    | Some ((vals, d), w) -> Some (binding_of (List.combine spec.vars vals), d, [ w ])

let all_vars specs =
  List.fold_left
    (fun acc s -> List.fold_left (fun acc v -> if List.mem v acc then acc else acc @ [ v ]) acc s.vars)
    [] specs

let wit_tags = List.map (fun (w : Core.Witness.t) -> (w.source, w.target))

(* The hash join's emission sequence, bindings read back through [slot]. *)
let emissions specs =
  let join = RJ.create (List.mapi source specs) in
  let vars = all_vars specs in
  let rec go acc =
    match RJ.next join with
    | None -> List.rev acc
    | Some (b, d, ws) ->
      go ((binding_of (List.map (fun v -> (v, b.(Option.get (RJ.slot join v)))) vars), d, wit_tags ws) :: acc)
  in
  go []

let scan_emissions specs =
  let join = Scan.create (List.mapi scan_stream specs) in
  let rec go acc =
    match Scan.next join with None -> List.rev acc | Some (b, d, ws) -> go ((b, d, wit_tags ws) :: acc)
  in
  go []

let drain specs = List.map (fun (b, d, _) -> (b, d)) (emissions specs)

let rows1 l = List.map (fun (x, d) -> ([ x ], d)) l
let rows2 l = List.map (fun (x, y, d) -> ([ x; y ], d)) l

let test_two_way_join () =
  let left = { vars = [ "x" ]; rows = rows1 [ (1, 0); (2, 1) ] } in
  let right = { vars = [ "x"; "y" ]; rows = rows2 [ (2, 5, 0); (1, 6, 2) ] } in
  let results = drain [ left; right ] in
  check Alcotest.int "two results" 2 (List.length results);
  let totals = List.map snd results in
  check Alcotest.(list int) "ordered totals" [ 1; 2 ] totals

let test_empty_stream_kills_join () =
  let left = { vars = [ "x" ]; rows = rows1 [ (1, 0) ] } in
  let results = drain [ left; { vars = [ "x" ]; rows = [] } ] in
  check Alcotest.int "no results" 0 (List.length results)

let test_cross_product_when_disjoint () =
  let left = { vars = [ "x" ]; rows = rows1 [ (1, 0); (2, 3) ] } in
  let right = { vars = [ "y" ]; rows = rows1 [ (1, 1); (2, 2) ] } in
  let results = drain [ left; right ] in
  check Alcotest.int "2x2" 4 (List.length results);
  check Alcotest.(list int) "totals sorted" [ 1; 2; 4; 5 ] (List.map snd results)

let test_three_way_join () =
  let s1 = { vars = [ "x" ]; rows = rows1 [ (1, 0) ] } in
  let s2 = { vars = [ "x"; "y" ]; rows = rows2 [ (1, 2, 1); (1, 3, 2) ] } in
  let s3 = { vars = [ "y"; "z" ]; rows = rows2 [ (3, 9, 0); (2, 8, 4) ] } in
  let results = drain [ s1; s2; s3 ] in
  check Alcotest.int "two chains" 2 (List.length results);
  check Alcotest.(list int) "totals" [ 2; 5 ] (List.map snd results)

let test_duplicate_combination_emitted_once () =
  (* two left answers merge into the same binding; keep the cheapest *)
  let left = { vars = [ "x" ]; rows = rows1 [ (1, 0); (1, 2) ] } in
  let right = { vars = [ "x"; "y" ]; rows = rows2 [ (1, 5, 0) ] } in
  let results = drain [ left; right ] in
  check Alcotest.int "once" 1 (List.length results);
  check Alcotest.int "at the cheapest total" 0 (snd (List.hd results))

let test_slots_and_rejects () =
  let join =
    RJ.create
      [ source 0 { vars = [ "y"; "x" ]; rows = [] }; source 1 { vars = [ "x"; "z" ]; rows = [] } ]
  in
  check
    Alcotest.(list (option int))
    "slots in order of first appearance" [ Some 0; Some 1; Some 2; None ]
    (List.map (RJ.slot join) [ "y"; "x"; "z"; "w" ]);
  Alcotest.check_raises "no streams" (Invalid_argument "Ranked_join.create: no streams") (fun () ->
      ignore (RJ.create []));
  Alcotest.check_raises "no variables" (Invalid_argument "Ranked_join.create: no variables")
    (fun () -> ignore (RJ.create [ source 0 { vars = []; rows = [] } ]));
  Alcotest.check_raises "variable listed twice"
    (Invalid_argument "Ranked_join.create: a stream lists a variable twice") (fun () ->
      ignore (RJ.create [ source 0 { vars = [ "x"; "x" ]; rows = [] } ]))

(* Reference: brute-force n-way join, sorted by total. *)
let brute_force specs =
  let rec product = function
    | [] -> [ (binding_of [], 0) ]
    | s :: rest ->
      let tails = product rest in
      List.concat_map
        (fun (vals, dist) ->
          let bind = binding_of (List.combine s.vars vals) in
          List.filter_map
            (fun (tb, td) -> if compatible bind tb then Some (merge bind tb, dist + td) else None)
            tails)
        s.rows
  in
  (* keep the cheapest total per binding, like the incremental join *)
  let best = Hashtbl.create 16 in
  List.iter
    (fun (bind, total) ->
      match Hashtbl.find_opt best bind with
      | Some t when t <= total -> ()
      | _ -> Hashtbl.replace best bind total)
    (product specs);
  Hashtbl.fold (fun bind total acc -> (bind, total) :: acc) best []
  |> List.sort (fun (_, a) (_, b) -> compare a b)

(* Sorted by distance, stably: streams must be non-decreasing, and rows
   tied on distance keep their generated order. *)
let sorted_rows rows = List.stable_sort (fun (_, a) (_, b) -> compare a b) rows

let gen_stream =
  QCheck2.Gen.(
    map
      (fun l ->
        { vars = [ "x"; "y" ]; rows = sorted_rows (List.map (fun (x, y, d) -> ([ x; y ], d)) l) })
      (list_size (int_bound 12) (triple (int_bound 3) (int_bound 3) (int_bound 6))))

let join_matches_brute_force =
  QCheck2.Test.make ~name:"incremental join = brute force (sets and totals)" ~count:200
    QCheck2.Gen.(pair gen_stream gen_stream)
    (fun (s1, s2) ->
      let incremental = drain [ s1; s2 ] in
      let reference = brute_force [ s1; s2 ] in
      let norm l = List.sort compare l in
      norm incremental = norm reference
      && (* and the emission order is non-decreasing in total *)
      fst
        (List.fold_left
           (fun (ok, last) (_, t) -> (ok && t >= last, t))
           (true, 0) incremental))

(* Random 2- and 3-input joins: each input takes 0-2 of three variables in
   any order (so inputs may share variables, be disjoint, or have none),
   oids from a pool of 3 (duplicate bindings) and distances from 0-4 (ties). *)
let gen_specs =
  QCheck2.Gen.(
    let gen_vars =
      oneof
        [
          return []; return [ "x" ]; return [ "y" ]; return [ "z" ]; return [ "x"; "y" ];
          return [ "y"; "x" ]; return [ "y"; "z" ]; return [ "z"; "x" ];
        ]
    in
    let gen_spec =
      let* vars = gen_vars in
      let* rows =
        list_size (int_bound 8)
          (pair (list_repeat (List.length vars) (int_bound 2)) (int_bound 4))
      in
      return { vars; rows = sorted_rows rows }
    in
    let* n = int_range 2 3 in
    let* specs = list_repeat n gen_spec in
    (* the join needs at least one variable *)
    return
      (if List.for_all (fun s -> s.vars = []) specs then
         { vars = [ "x" ]; rows = List.map (fun (_, d) -> ([ 0 ], d)) (List.hd specs).rows }
         :: List.tl specs
       else specs))

let print_specs specs =
  String.concat " | "
    (List.map
       (fun s ->
         Printf.sprintf "[%s] %s" (String.concat "," s.vars)
           (String.concat " "
              (List.map
                 (fun (vals, d) ->
                   Printf.sprintf "(%s)@%d" (String.concat "," (List.map string_of_int vals)) d)
                 s.rows)))
       specs)

let emission_sequence_matches_scan =
  QCheck2.Test.make ~name:"emission sequence = list-scan join (bindings, totals, witnesses, order)"
    ~count:500 ~print:print_specs gen_specs (fun specs -> emissions specs = scan_emissions specs)

let () =
  Alcotest.run "ranked_join"
    [
      ( "bindings",
        [
          Alcotest.test_case "binding_of" `Quick test_binding_of;
          Alcotest.test_case "compatible/merge" `Quick test_compatible_merge;
        ] );
      ( "join",
        [
          Alcotest.test_case "two-way" `Quick test_two_way_join;
          Alcotest.test_case "empty input" `Quick test_empty_stream_kills_join;
          Alcotest.test_case "cross product" `Quick test_cross_product_when_disjoint;
          Alcotest.test_case "three-way" `Quick test_three_way_join;
          Alcotest.test_case "duplicate combination" `Quick test_duplicate_combination_emitted_once;
          Alcotest.test_case "slots and rejects" `Quick test_slots_and_rejects;
          QCheck_alcotest.to_alcotest join_matches_brute_force;
          QCheck_alcotest.to_alcotest emission_sequence_matches_scan;
        ] );
    ]
