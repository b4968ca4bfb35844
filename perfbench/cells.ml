(* The benchmark's requests and its correctness gate: every answer set is
   checked against a pinned count plus either its distance sequence (for
   answer sets cut at the limit) or an order-insensitive hash of its
   (bindings, distance) pairs (for complete ones). *)

type cell = { key : string; text : string; cls : string }

let mode_name = function Core.Query.Exact -> "exact" | Core.Query.Approx -> "approx" | Core.Query.Relax -> "relax"

(* Q1-Q12 x exact/APPROX/RELAX, in the paper's order (query-major): the
   serve-mix Zipf ranks follow this order, so every class is popular. *)
let fig4 =
  List.concat_map
    (fun (id, _) ->
      List.map
        (fun m ->
          let cls = mode_name m in
          { key = Printf.sprintf "Q%d.%s" id cls; text = Datagen.L4all.query_text id m; cls })
        [ Core.Query.Exact; Core.Query.Approx; Core.Query.Relax ])
    Datagen.L4all.queries

let exact id = { key = Printf.sprintf "Q%d" id; text = Datagen.L4all.query_text id Core.Query.Exact; cls = "exact" }

(* Single-conjunct exact queries that return whole relations. *)
let drains = List.map exact [ 1; 4; 5; 6; 7 ]

(* The (Var, Var) ones: the shapes that seed-shard across domains. *)
let par_drains = List.map exact [ 4; 5; 6; 7 ]

(* Two-conjunct CRPQs built from Fig. 4 conjuncts sharing a variable. *)
let joins =
  List.map
    (fun (key, text) -> { key; text; cls = "exact" })
    [
      ("J1", "(?E, ?N) <- (Librarians, type-.job-, ?E), (?E, next, ?N)");
      ("J2", "(?E, ?C) <- (Software Professionals, type-.job-, ?E), (?E, next, ?C)");
      ("J3", "(?X, ?Y) <- (?X, job.type, ?Y), (Software Professionals, type-.job-, ?X)");
    ]

(* --- verdicts and pins ------------------------------------------------------ *)

let answer_key (a : Core.Engine.answer) =
  String.concat "\x1f" (List.map (fun (v, l) -> v ^ "=" ^ l) a.Core.Engine.bindings)
  ^ "\x1e" ^ string_of_int a.Core.Engine.distance

(* Sum of per-answer digests: insensitive to order, sensitive to
   duplicates. *)
let answers_hash answers =
  let h =
    List.fold_left
      (fun acc a -> (acc + int_of_string ("0x" ^ String.sub (Digest.to_hex (Digest.string (answer_key a))) 0 15)) land 0xfffffffffffffff)
      0 answers
  in
  Printf.sprintf "%015x" h

let rec non_decreasing = function a :: (b :: _ as rest) -> a <= b && non_decreasing rest | _ -> true

(* A pin line: "<workload>/<key> <count> dist <d1,d2,...>" or
   "<workload>/<key> <count> hash <hex>". *)
let verdict (o : Core.Engine.outcome) =
  let dists = List.map (fun (a : Core.Engine.answer) -> a.Core.Engine.distance) o.Core.Engine.answers in
  let count = string_of_int (List.length dists) in
  match o.Core.Engine.termination with
  | Core.Engine.Completed -> Ok (count ^ " hash " ^ answers_hash o.Core.Engine.answers, dists)
  | Core.Engine.Exhausted { reason = Core.Governor.Answer_limit; _ } ->
    Ok (count ^ " dist " ^ String.concat "," (List.map string_of_int dists), dists)
  | t -> Error (Format.asprintf "%a" Core.Engine.pp_termination t)

let pins_file = "perfbench/pins.txt"

let pins =
  lazy
    (let tbl = Hashtbl.create 64 in
     let ic = open_in pins_file in
     (try
        while true do
          let line = input_line ic in
          if line <> "" && line.[0] <> '#' then
            match String.index_opt line ' ' with
            | Some i -> Hashtbl.replace tbl (String.sub line 0 i) (String.sub line (i + 1) (String.length line - i - 1))
            | None -> ()
        done
      with End_of_file -> ());
     close_in ic;
     tbl)

(* [check ~pin o]: [Ok ()] iff [o] terminated normally, its distances never
   decrease and its verdict equals the pinned one. *)
let check ~pin o =
  match verdict o with
  | Error t -> Error ("terminated " ^ t)
  | Ok (v, dists) -> (
    if not (non_decreasing dists) then Error "distances decrease"
    else
      match Hashtbl.find_opt (Lazy.force pins) pin with
      | None -> Error ("no pin for " ^ pin)
      | Some p when p = v -> Ok ()
      | Some p -> Error (Printf.sprintf "got %s, pinned %s" v p))
