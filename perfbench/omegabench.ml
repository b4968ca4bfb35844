(* omegabench: the repository benchmark.  One process runs one workload
   (see README.md for the workloads and the metric map):

     omegabench.exe --workload W --seed N --seconds S --trace 0|1 \
       --serve path/to/omega_serve.exe [--work DIR]
     omegabench.exe --print-pins [--work DIR]

   It generates the L4All L2 graph, writes it as N-Triples and hands the
   program under test only that file and the query texts.  The last line of
   standard output is the JSON result; the lines before it print every
   metric with its unit and sample count.  Exit code 1 on any wrong answer,
   2 on a usage or set-up error. *)

open Ledger

let work = ref ".bench_build/perfbench"
let graph_file () = Filename.concat !work "l4all-L2.nt"
let fail_setup fmt = Printf.ksprintf (fun s -> prerr_endline ("omegabench: " ^ s); exit 2) fmt

(* The file is synced before anything is timed, so no set-up read races
   the kernel writing it back. *)
let generate () =
  let graph, ontology = Datagen.L4all.generate_scale ~seed:1404 Datagen.L4all.L2 in
  Ntriples.Nt.save (graph_file ()) ~graph ~ontology;
  let fd = Unix.openfile (graph_file ()) [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* Set-up as a user of the engine pays it: load the .nt file and freeze
   the graph.  Repeated [setup_reps] times; the last graph is kept. *)
let setup_reps = 7

(* [setup_reps] set-ups, each between two calibrations (the median of
   three loops: a set-up is one long stretch, timed once); [f] gets the
   previous one's result.  Returns the last result and each set-up's
   seconds, as measured and rescaled to the nominal host. *)
let calibrated_setups f =
  let calibrate () = median (List.init 3 (fun _ -> calibrate ())) in
  let before = ref (calibrate ()) and last = ref None and times = ref [] in
  for _ = 1 to setup_reps do
    let r, s = f !last in
    let after = calibrate () in
    times := (s, s *. host_scale !before after) :: !times;
    before := after;
    last := Some r
  done;
  (Option.get !last, List.rev !times)

let load_graph () =
  let (graph, ontology), load_ns = span "ntriples.load" (fun () -> Ntriples.Nt.load (graph_file ())) in
  let (), freeze_ns = span "graphstore.freeze" (fun () -> Graphstore.Graph.freeze graph) in
  add "ntriples.load_ms" (ms load_ns);
  add "graphstore.freeze_ms" (ms freeze_ns);
  (graph, ontology, float_of_int (load_ns + freeze_ns) /. 1e9)

let setup () =
  calibrated_setups (fun _ ->
      Gc.full_major ();
      let graph, ontology, s = load_graph () in
      ((graph, ontology), s))

(* --- the serve-mix deployment ------------------------------------------------- *)

let serve_limit = 10

(* Admission ceiling of the guarded deployment: above every cell's
   automaton (the largest has 13 states), so no cell is rejected. *)
let serve_max_states = 64

let serve_options =
  {
    Core.Options.default with
    Core.Options.distance_aware = true;
    decompose = true;
    max_states = Some serve_max_states;
  }

let inproc_options = function
  | "drain-par" -> { Core.Options.default with Core.Options.domains = 2 }
  | _ -> Core.Options.default

let cells_of = function
  | "serve-mix" -> Cells.fig4
  | "drain-exact" -> Cells.drains
  | "drain-par" -> Cells.par_drains
  | "join-exact" -> Cells.joins
  | w -> fail_setup "unknown workload %S" w

(* Pins are shared where answers must be identical: drain-par checks the
   drain-exact pins. *)
let pin_of workload (c : Cells.cell) =
  (match workload with "serve-mix" -> "serve" | "join-exact" -> "join" | _ -> "drain") ^ "/" ^ c.Cells.key

(* One engine request: open, drain (to [limit] or exhaustion), close. *)
let engine_request ~graph ~ontology ~options ?limit q =
  let governor = Core.Options.governor ?limit options in
  let st = Core.Engine.open_query ~graph ~ontology ~options ~governor q in
  (Core.Engine.drain ?limit st, st)

(* --- the traced request: one span per layer, recorded around the calls ------ *)

type traced = {
  graph : Graphstore.Graph.t;
  ontology : Ontology.t;
  options : Core.Options.t;
  limit : int option;
  daemon : Server.Daemon.t option;  (** in-process twin of the served daemon *)
}

let evaluator_drain t (conj : Core.Query.conjunct) =
  let w0 = Gc.minor_words () in
  let (stats, shards), ns =
    span "core.evaluator.drain" (fun () ->
        let governor = Core.Options.governor ?limit:t.limit t.options in
        let ev = Core.Evaluator.create ~graph:t.graph ~ontology:t.ontology ~options:t.options ~governor conj in
        (match t.limit with
        | Some k -> ignore (Core.Evaluator.take ev k)
        | None -> while Core.Evaluator.next ev <> None do () done);
        Core.Evaluator.close ev;
        (Core.Exec_stats.copy (Core.Evaluator.stats ev), Core.Evaluator.shard_report ev))
  in
  let f = float_of_int in
  let s = stats in
  add "core.evaluator.drain_ms" (ms ns);
  add "eval.ns" (f ns);
  add "eval.minor_words" (Gc.minor_words () -. w0);
  add "eval.pushes" (f s.Core.Exec_stats.pushes);
  add "eval.succ_calls" (f s.succ_calls);
  add "eval.edges" (f s.edges_scanned);
  add "eval.adjacency_bytes" (f s.adjacency_bytes);
  add "eval.answers" (f s.answers);
  add "core.evaluator.drop_visited" (f s.drop_visited);
  add "core.evaluator.drop_dup" (f s.drop_dup);
  add "core.evaluator.peak_queue" (f s.peak_queue);
  add "core.evaluator.restarts" (f s.restarts);
  add "core.evaluator.pruned" (f s.pruned);
  add "core.seeder.seeds" (f s.seeds);
  add "core.seeder.batches" (f s.batches);
  (match shards with
  | [] -> ()
  | _ ->
    let busy = List.map (fun (_, b, _) -> f b) shards in
    add "core.par.imbalance" (ratio (List.fold_left max 0. busy) (sum busy /. f (List.length busy))));
  (ns, Gc.minor_words () -. w0)

(* Every layer of one request, each under its own span, then the request
   itself: [serve] performs it over the socket, otherwise the engine
   outcome is the answer. *)
let traced_request t (c : Cells.cell) ~line ~serve =
  request (fun () ->
      if t.daemon <> None then begin
        let _, ns = span "server.protocol.decode" (fun () -> Server.Protocol.parse_request line) in
        add "server.protocol.decode_us" (us ns)
      end;
      let q, ns = span "core.query_parser.parse" (fun () -> Core.Query_parser.parse c.Cells.text) in
      add "core.query_parser.parse_us" (us ns);
      let est, ns =
        span "core.admission.estimate" (fun () ->
            Core.Admission.estimate ~graph:t.graph ~ontology:t.ontology ~options:t.options q)
      in
      add "core.admission.estimate_us" (us ns);
      List.iter
        (fun (conj : Core.Query.conjunct) ->
          let mode = Cells.mode_name conj.Core.Query.cmode in
          let nfa, ns =
            span ("automaton.compile." ^ mode) (fun () ->
                Automaton.Compile.conjunct_automaton ~graph:t.graph ~ontology:t.ontology
                  ~mode:(Core.Options.compile_mode t.options conj.Core.Query.cmode)
                  conj.Core.Query.regex)
          in
          add ("automaton.compile_" ^ mode ^ "_us") (us ns);
          add "automaton.states" (float_of_int (Automaton.Nfa.n_states nfa));
          add "automaton.transitions" (float_of_int (Automaton.Nfa.n_transitions nfa)))
        q.Core.Query.conjuncts;
      let evals = List.map (evaluator_drain t) q.Core.Query.conjuncts in
      let eval_ns = List.fold_left (fun a (ns, _) -> a + ns) 0 evals in
      let eval_words = sum (List.map snd evals) in
      let w0 = Gc.minor_words () in
      let (outcome, st), engine_ns =
        span "core.engine.drain" (fun () ->
            engine_request ~graph:t.graph ~ontology:t.ontology ~options:t.options ?limit:t.limit q)
      in
      let engine_words = Gc.minor_words () -. w0 in
      let s = outcome.Core.Engine.stats in
      let f = float_of_int in
      let hsum name = f (Obs.Metrics.h_sum (Obs.Metrics.histogram outcome.Core.Engine.metrics name)) in
      let answers = f (List.length outcome.Core.Engine.answers) in
      add "engine.ns" (f engine_ns);
      add "engine.eval_ns" (f eval_ns);
      add ("by_query/" ^ c.Cells.key ^ "/engine_ms") (ms engine_ns);
      add ("by_query/" ^ c.Cells.key ^ "/evaluator_ms") (ms eval_ns);
      add "core.admission.est_states_per_push" (ratio (f est.Core.Admission.total_states) (f s.Core.Exec_stats.pushes));
      add "core.governor.mem_bytes_peak" (f s.mem_bytes_peak);
      add "gc.minor_words_per_request" (f s.gc_minor_words);
      add "gc.major_collections_per_request" (f s.gc_major_collections);
      (match q.Core.Query.conjuncts with
      | [ _ ] -> add "core.engine.project_ms" (ms (engine_ns - eval_ns))
      | _ ->
        let combos = hsum "join_combos" in
        add "core.ranked_join.ms" (ms (engine_ns - eval_ns));
        add "core.ranked_join.combos" combos;
        add "join.answers" answers;
        add "join.minor_words" (engine_words -. eval_words));
      if s.par_shards > 0 then begin
        add "core.par.busy_total_ms" (ms s.par_busy_total_ns);
        add "core.par.busy_max_ms" (ms s.par_busy_max_ns);
        add "core.par.merge_wait_ms" (hsum "par_merge_wait_ns" /. 1e6)
      end;
      match t.daemon with
      | None -> (outcome, None)
      | Some d ->
        let resp, ns =
          span "server.protocol.encode" (fun () ->
              Server.Protocol.render
                (Server.Protocol.resp_outcome ~id:Obs.Json.Null ~tenant:"tenant-0"
                   ~query_class:(Core.Engine.query_class st) outcome))
        in
        add "server.protocol.encode_us" (us ns);
        add "server.protocol.response_bytes" (f (String.length resp));
        let _, ns =
          span "obs.audit.record" (fun () ->
              Obs.Json.to_string (Obs.Audit.to_json (Core.Engine.audit_record st)))
        in
        add "obs.audit.record_us" (us ns);
        let _, handle_ns = span "server.daemon.handle" (fun () -> Server.Daemon.handle_request d line) in
        add "server.daemon.handle_us" (us handle_ns);
        let resp, rt_ns = span "server.daemon.socket" serve in
        add "server.daemon.transport_us" (us (rt_ns - handle_ns));
        (outcome, resp))

(* --- in-process workloads ------------------------------------------------------ *)

(* [win]: the window the request ran in; [lat_ms] is as measured. *)
type sample = { key : string; cls : string; lat_ms : float; answers : int; ok : bool; win : int }
(* [notes]: why requests failed, as "WRONG ..." (a wrong answer, which
   fails the run) or "FAILED ..." (no answer: timeout, shed, error). *)
type tally = { mutable samples : sample list; mutable notes : string list }

let tally () = { samples = []; notes = [] }

let record tl (c : Cells.cell) ~win ~ns ~answers ~ok =
  tl.samples <- { key = c.Cells.key; cls = c.Cells.cls; lat_ms = ms ns; answers; ok; win } :: tl.samples

let attempted tl = List.length tl.samples
let failed tl = List.length (List.filter (fun s -> not s.ok) tl.samples)

let note tl kind (c : Cells.cell) msg = tl.notes <- Printf.sprintf "%s %s: %s" kind c.Cells.key msg :: tl.notes
let correct tl = not (List.exists (fun n -> String.starts_with ~prefix:"WRONG" n) tl.notes)

(* A phase's timing frame: window [w] ran [dur_s.(w)] seconds between
   calibrations [cal.(w)] and [cal.(w + 1)]. *)
type frame = { cal : float array; dur_s : float array }

let scale fr w = host_scale fr.cal.(w) fr.cal.(w + 1)
let rescaled fr s = s.lat_ms *. scale fr s.win

(* One untimed pass over the queries in list order, so that whatever its
   seed, every run starts timing from a heap grown the same way. *)
let warm_up ~graph ~ontology ~options cells =
  List.iter
    (fun (c : Cells.cell) -> ignore (engine_request ~graph ~ontology ~options (Core.Query_parser.parse c.Cells.text)))
    cells

(* Closed loop, one caller: rounds of every query in a seeded order, until
   [seconds] of wall time have passed (the last round completes).  Each
   request is a window of its own, between two calibrations (on as many
   domains as the query uses); every calibration starts from a collected
   heap, so no query's garbage is collected on the calibration's time. *)
let inproc_phase ~workload ~graph ~ontology ~options ~cells ~rng ~seconds ~traced =
  let tl = tally () in
  let t = { graph; ontology; options; limit = None; daemon = None } in
  let domains = options.Core.Options.domains in
  let calibrate () =
    Gc.full_major ();
    calibrate ~domains ()
  in
  let cal = ref [ calibrate () ] in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let one (c : Cells.cell) =
    let outcome, ns =
      if traced then
        let (o, _), ns = traced_request t c ~line:"" ~serve:(fun () -> None) in
        (o, ns)
      else
        span "request" (fun () ->
            fst (engine_request ~graph ~ontology ~options (Core.Query_parser.parse c.Cells.text)))
    in
    let ok =
      match Cells.check ~pin:(pin_of workload c) outcome with
      | Ok () -> true
      | Error msg ->
        note tl "WRONG" c msg;
        false
    in
    record tl c ~win:(attempted tl) ~ns ~answers:(List.length outcome.Core.Engine.answers) ~ok
  in
  while now_ns () < deadline do
    let order = Array.of_list cells in
    Datagen.Rng.shuffle rng order;
    Array.iter
      (fun c ->
        one c;
        cal := calibrate () :: !cal)
      order
  done;
  (tl, { cal = Array.of_list (List.rev !cal); dur_s = [||] })

(* --- serve-mix ------------------------------------------------------------------- *)

let request_line ~id ~tenant (c : Cells.cell) =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("id", Obs.Json.Int id);
         ("op", Obs.Json.String "query");
         ("tenant", Obs.Json.String tenant);
         ("query", Obs.Json.String c.Cells.text);
         ("limit", Obs.Json.Int serve_limit);
       ])

(* The response the daemon must send for each cell, from in-process
   [Engine] evaluation under the daemon's options, minus the per-request
   [id] and [tenant]; each is first checked against its pin. *)
let expected_responses ~graph ~ontology cells =
  List.map
    (fun (c : Cells.cell) ->
      let outcome, st =
        engine_request ~graph ~ontology ~options:serve_options ~limit:serve_limit
          (Core.Query_parser.parse c.Cells.text)
      in
      (match Cells.check ~pin:(pin_of "serve-mix" c) outcome with
      | Ok () -> ()
      | Error msg ->
        Printf.printf "WRONG %s (in process): %s\n" c.Cells.key msg;
        exit 1);
      match
        Server.Protocol.resp_outcome ~id:Obs.Json.Null ~tenant:"" ~query_class:(Core.Engine.query_class st)
          outcome
      with
      | Obs.Json.Obj fields -> List.filter (fun (k, _) -> k <> "id" && k <> "tenant") fields
      | _ -> assert false)
    cells
  |> Array.of_list

(* Field-for-field comparison of a wire response with the expected one.  A
   non-zero code the expected response does not have (shed, partial,
   error) is a failed request; any other difference is a wrong answer. *)
let check_response ~id ~tenant expected resp =
  match Obs.Json.parse resp with
  | Error e -> Error ("WRONG", "bad JSON: " ^ e)
  | Ok j -> (
    let code = Obs.Json.member "code" j in
    if Obs.Json.member "id" j <> Some (Obs.Json.Int id) then Error ("WRONG", "id not echoed")
    else if Obs.Json.member "tenant" j <> Some (Obs.Json.String tenant) then Error ("WRONG", "tenant not echoed")
    else if code <> Some (Obs.Json.Int 0) && code <> List.assoc_opt "code" expected then Error ("FAILED", resp)
    else
      match List.find_opt (fun (k, v) -> Obs.Json.member k j <> Some v) expected with
      | None -> Ok (Option.value ~default:0 (Option.bind (Obs.Json.member "count" j) Obs.Json.to_int))
      | Some (k, _) -> Error ("WRONG", "field " ^ k ^ " differs: " ^ resp))

let client_timeout_ns = 5_000_000_000

(* The cells' Zipf(1) popularity by rank, made exact per deck: rank k
   appears round(n / (k + 1)) times (at least once) in each deck of about
   150 requests, and the seed shuffles every deck.  Sampling each request
   independently would let the count of the rare expensive cells vary from
   run to run. *)
let deck n =
  Array.concat (List.init n (fun k -> Array.make (max 1 (Float.to_int (Float.round (float_of_int n /. float_of_int (k + 1))))) k))

(* The load runs in one-second windows.  Between two windows the clients
   pause, their requests in flight complete, and the calibration runs on a
   host the load leaves idle; so no request straddles two windows. *)
let window_s = 1.0

type gate = {
  m : Mutex.t;
  c : Condition.t;
  mutable paused : bool;
  mutable stopped : bool;
  mutable busy : int;
  mutable window : int;
}

(* Waits out a pause; the window the next request runs in, or [None] once
   the phase is over. *)
let enter g =
  Mutex.lock g.m;
  while g.paused && not g.stopped do
    Condition.wait g.c g.m
  done;
  let w =
    if g.stopped then None
    else begin
      g.busy <- g.busy + 1;
      Some g.window
    end
  in
  Mutex.unlock g.m;
  w

let leave g =
  Mutex.lock g.m;
  g.busy <- g.busy - 1;
  Condition.broadcast g.c;
  Mutex.unlock g.m

(* Stops new requests and waits for those in flight. *)
let pause g =
  Mutex.lock g.m;
  g.paused <- true;
  while g.busy > 0 do
    Condition.wait g.c g.m
  done;
  Mutex.unlock g.m

let resume g ~stop =
  Mutex.lock g.m;
  g.paused <- false;
  if stop then g.stopped <- true else g.window <- g.window + 1;
  Condition.broadcast g.c;
  Mutex.unlock g.m

(* One closed-loop connection replaying its seeded deck sequence. *)
let client ~socket ~cells ~expected ~rng ~tenant ~gate ~traced_with =
  let tl = tally () in
  let order = deck (Array.length cells) in
  let pos = ref (Array.length order) in
  let conn = ref (Wire.connect socket) in
  let id = ref 0 in
  let rec loop () =
    match enter gate with
    | None -> ()
    | Some win ->
      Fun.protect ~finally:(fun () -> leave gate) (fun () -> one win);
      loop ()
  and one win =
    if !pos = Array.length order then begin
      Datagen.Rng.shuffle rng order;
      pos := 0
    end;
    let k = order.(!pos) in
    incr pos;
    let c = cells.(k) in
    incr id;
    let line = request_line ~id:!id ~tenant c in
    let roundtrip () =
      match !conn with
      | None -> None
      | Some cn -> Wire.roundtrip cn line ~timeout_ns:client_timeout_ns
    in
    let resp, ns =
      match traced_with with
      | None -> span "request" roundtrip
      | Some t ->
        let (_, resp), ns = traced_request t c ~line ~serve:roundtrip in
        (resp, ns)
    in
    match resp with
    | None ->
      (* timed out, or the daemon went away: a counted failure, then a
         fresh connection for the next request *)
      record tl c ~win ~ns ~answers:0 ~ok:false;
      note tl "FAILED" c "no response";
      Option.iter Wire.close !conn;
      conn := Wire.connect socket
    | Some r -> (
      match check_response ~id:!id ~tenant expected.(k) r with
      | Ok n -> record tl c ~win ~ns ~answers:n ~ok:true
      | Error (kind, msg) ->
        note tl kind c msg;
        record tl c ~win ~ns ~answers:0 ~ok:false)
  in
  loop ();
  Option.iter Wire.close !conn;
  tl

(* [conns] clients for [seconds] of one-second windows, each window
   followed by a calibration. *)
let serve_phase ~socket ~cells ~expected ~rng ~conns ~seconds ~traced_with =
  let gate = { m = Mutex.create (); c = Condition.create (); paused = false; stopped = false; busy = 0; window = 0 } in
  let cal = ref [ calibrate () ] and durs = ref [] in
  let results = Array.make conns None in
  let rngs = Array.init conns (fun _ -> Datagen.Rng.split rng) in
  let run i () =
    results.(i) <-
      Some
        (client ~socket ~cells ~expected ~rng:rngs.(i) ~tenant:(Printf.sprintf "tenant-%d" i) ~gate ~traced_with)
  in
  let threads = List.init conns (fun i -> Thread.create (run i) ()) in
  let windows = max 1 (Float.to_int (Float.round (seconds /. window_s))) in
  Fun.protect
    ~finally:(fun () -> resume gate ~stop:true)
    (fun () ->
      for w = 1 to windows do
        let t0 = now_ns () in
        Thread.delay window_s;
        pause gate;
        durs := (float_of_int (now_ns () - t0) /. 1e9) :: !durs;
        cal := calibrate () :: !cal;
        if w < windows then resume gate ~stop:false
      done);
  List.iter Thread.join threads;
  ( Array.to_list (Array.map Option.get results),
    { cal = Array.of_list (List.rev !cal); dur_s = Array.of_list (List.rev !durs) } )

let merge tls =
  let m = tally () in
  List.iter
    (fun t ->
      m.samples <- t.samples @ m.samples;
      m.notes <- t.notes @ m.notes)
    tls;
  m

(* The figures the end-to-end metrics report. *)
type summary = { qps : float; aps : float; p50 : float; p90 : float }

(* The gated timings are rescaled to the nominal host (see Ledger); with
   [~raw:true] they are as measured.  Served figures: for each window, the
   requests and answers completed per second in it and their p50/p90
   latency; each figure is the median over the windows, so a burst of host
   interference or a cluster of stress cells moves one window, not the
   result. *)
let windowed ?(raw = false) (tl, fr) =
  let n = Array.length fr.dur_s in
  let bins = Array.make n [] in
  List.iter (fun s -> bins.(s.win) <- s :: bins.(s.win)) tl.samples;
  let sc w = if raw then 1. else scale fr w in
  let over f = median (List.filter Float.is_finite (List.init n f)) in
  let ok w = List.filter (fun s -> s.ok) bins.(w) in
  let per_s w x = x /. (fr.dur_s.(w) *. sc w) in
  let lat p w = percentile p (List.map (fun s -> s.lat_ms *. sc w) bins.(w)) in
  {
    qps = over (fun w -> per_s w (float_of_int (List.length (ok w))));
    aps = over (fun w -> per_s w (float_of_int (List.fold_left (fun a s -> a + s.answers) 0 (ok w))));
    p50 = over (lat 50.);
    p90 = over (lat 90.);
  }

(* In-process figures of the one caller: the rates with each query at its
   median latency, every query once per round as the rounds run them; the
   latency percentiles over every request. *)
let per_query ?(raw = false) (tl, fr) =
  let lat s = if raw then s.lat_ms else rescaled fr s in
  let keys = List.sort_uniq compare (List.map (fun s -> s.key) tl.samples) in
  let secs, answers =
    List.fold_left
      (fun (secs, answers) k ->
        let mine = List.filter (fun s -> s.key = k) tl.samples in
        (secs +. (median (List.map lat mine) /. 1e3), answers + (List.hd mine).answers))
      (0., 0) keys
  in
  let lats = List.map lat tl.samples in
  {
    qps = ratio (float_of_int (List.length keys)) secs;
    aps = ratio (float_of_int answers) secs;
    p50 = percentile 50. lats;
    p90 = percentile 90. lats;
  }

(* "omega_serve: drained (served S, shed H, errors E)" from the daemon log. *)
let drain_counts log =
  let ic = open_in log in
  let last = ref (0, 0, 0) in
  (try
     while true do
       let line = input_line ic in
       try Scanf.sscanf line "omega_serve: drained (served %d, shed %d, errors %d)" (fun a b c -> last := (a, b, c))
       with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  !last

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

(* --- metrics -------------------------------------------------------------------- *)

let end_to_end ~setup ~tl ~figures:f ~rss =
  let n = attempted tl in
  [
    metric ~n:(List.length setup) "setup_s" "s" (median (List.map snd setup));
    metric ~n "throughput_qps" "1/s" f.qps;
    metric ~n "latency_p50_ms" "ms" f.p50;
    metric ~n "answers_per_s" "1/s" f.aps;
    metric ~n "success_ratio" "ratio" (float_of_int (n - failed tl) /. float_of_int (max 1 n));
    metric "peak_rss_mb" "MiB" rss;
  ]

(* Reported with the end-to-end metrics but not in the result JSON: the
   per-class figures exist on serve-mix only, and the serve-mix tail is
   too unsteady to gate (see README.md).  Latencies are rescaled like the
   gated ones ([lat]); the per-query lines are as measured. *)
let extra_lines ~tl ~lat:scaled ~figures ~per_conn =
  let latencies ?cls tl = List.map scaled (List.filter (fun s -> cls = None || cls = Some s.cls) tl.samples) in
  let lat = latencies tl in
  let n = List.length lat in
  Printf.printf "%-44s %16.6f %-8s n=%d\n" "failed_ratio"
    (float_of_int (failed tl) /. float_of_int (max 1 (attempted tl))) "ratio" (attempted tl);
  Printf.printf "%-44s %16.6f %-8s n=%d\n" "latency_p90_ms" figures.p90 "ms" n;
  if n >= 1000 then Printf.printf "%-44s %16.6f %-8s n=%d\n" "latency_p99_ms" (percentile 99. lat) "ms" n;
  List.iter
    (fun cls ->
      let xs = latencies ~cls tl in
      if xs <> [] then Printf.printf "%-44s %16.6f %-8s n=%d\n" (cls ^ "_p50_ms") (median xs) "ms" (List.length xs))
    [ "exact"; "approx"; "relax" ];
  List.iter
    (fun k ->
      let xs = List.filter_map (fun s -> if s.key = k then Some s.lat_ms else None) tl.samples in
      Printf.printf "# %-42s %12.3f ms p50 %10.3f ms p10 %10.3f ms p90 n=%d (as measured)\n" k (median xs) (percentile 10. xs)
        (percentile 90. xs) (List.length xs))
    (List.sort_uniq compare (List.map (fun s -> s.key) tl.samples));
  List.iteri (fun i k -> Printf.printf "%-44s %16d %-8s\n" (Printf.sprintf "connection_%d_requests" i) k "count") per_conn;
  List.iteri (fun i n -> if i < 20 then print_endline n) (List.rev tl.notes);
  if List.length tl.notes > 20 then Printf.printf "... and %d more\n" (List.length tl.notes - 20)

(* Every per-layer metric, 0 where the workload never crosses the layer. *)
let per_layer ~extra =
  let f = float_of_int in
  let eval_pushes = total "eval.pushes" in
  let requests = max 1 (List.length (get "engine.ns")) in
  let per_req name = total name /. f requests in
  let m = metric ~n:requests in
  [
    metric ~n:(List.length (get "ntriples.load_ms")) "ntriples.load_ms" "ms" (med "ntriples.load_ms");
    metric ~n:(List.length (get "graphstore.freeze_ms")) "graphstore.freeze_ms" "ms" (med "graphstore.freeze_ms");
    m "graphstore.adjacency_bytes_per_edge" "B" (ratio (total "eval.adjacency_bytes") (total "eval.edges"));
    m "server.protocol.decode_us" "us" (med "server.protocol.decode_us");
    m "server.protocol.encode_us" "us" (med "server.protocol.encode_us");
    m "server.protocol.response_bytes" "B" (mean "server.protocol.response_bytes");
    m "server.daemon.handle_us" "us" (med "server.daemon.handle_us");
    m "server.daemon.transport_us" "us" (med "server.daemon.transport_us");
    m "obs.audit.record_us" "us" (med "obs.audit.record_us");
    m "core.query_parser.parse_us" "us" (med "core.query_parser.parse_us");
    m "core.admission.estimate_us" "us" (med "core.admission.estimate_us");
    m "core.admission.est_states_per_push" "ratio" (med "core.admission.est_states_per_push");
    m "automaton.compile_exact_us" "us" (med "automaton.compile_exact_us");
    m "automaton.compile_approx_us" "us" (med "automaton.compile_approx_us");
    m "automaton.compile_relax_us" "us" (med "automaton.compile_relax_us");
    m "automaton.states" "count" (mean "automaton.states");
    m "automaton.transitions" "count" (mean "automaton.transitions");
    m "core.seeder.seeds" "count" (per_req "core.seeder.seeds");
    m "core.seeder.batches" "count" (per_req "core.seeder.batches");
    m "core.evaluator.drain_ms" "ms" (med "core.evaluator.drain_ms");
    m "core.evaluator.pushes" "count" (per_req "eval.pushes");
    m "core.evaluator.ns_per_push" "ns" (ratio (total "eval.ns") eval_pushes);
    m "core.evaluator.minor_words_per_push" "words" (ratio (total "eval.minor_words") eval_pushes);
    m "core.evaluator.edges_per_succ" "ratio" (ratio (total "eval.edges") (total "eval.succ_calls"));
    m "core.evaluator.answers_per_push" "ratio" (ratio (total "eval.answers") eval_pushes);
    m "core.evaluator.drop_visited" "count" (per_req "core.evaluator.drop_visited");
    m "core.evaluator.drop_dup" "count" (per_req "core.evaluator.drop_dup");
    m "core.evaluator.peak_queue" "count" (max_of "core.evaluator.peak_queue");
    m "core.evaluator.restarts" "count" (per_req "core.evaluator.restarts");
    m "core.evaluator.pruned" "count" (per_req "core.evaluator.pruned");
    m "core.engine.project_ms" "ms" (mean "core.engine.project_ms");
    m "core.engine.over_evaluator_ratio" "ratio" (ratio (total "engine.ns") (total "engine.eval_ns"));
    m "core.ranked_join.ms" "ms" (mean "core.ranked_join.ms");
    m "core.ranked_join.combos" "count" (per_req "core.ranked_join.combos");
    m "core.ranked_join.answers_per_combo" "ratio" (ratio (total "join.answers") (total "core.ranked_join.combos"));
    m "core.ranked_join.minor_words_per_answer" "words" (ratio (total "join.minor_words") (total "join.answers"));
    m "core.par.busy_total_ms" "ms" (mean "core.par.busy_total_ms");
    m "core.par.busy_max_ms" "ms" (mean "core.par.busy_max_ms");
    m "core.par.imbalance" "ratio" (mean "core.par.imbalance");
    m "core.par.merge_wait_ms" "ms" (mean "core.par.merge_wait_ms");
    m "core.governor.mem_bytes_peak" "B" (max_of "core.governor.mem_bytes_peak");
    m "gc.minor_words_per_request" "words" (mean "gc.minor_words_per_request");
    m "gc.major_collections_per_request" "count" (mean "gc.major_collections_per_request");
  ]
  @ extra

let by_query_lines () =
  Hashtbl.fold (fun k _ acc -> k :: acc) samples []
  |> List.filter (fun k -> String.length k > 9 && String.sub k 0 9 = "by_query/")
  |> List.sort compare
  |> List.iter (fun k -> Printf.printf "# %-42s %12.3f ms median\n" k (med k))

(* --- main -------------------------------------------------------------------------- *)

let run ~workload ~seed ~seconds ~trace ~serve_exe =
  let cells = cells_of workload in
  generate ();
  let rng = Datagen.Rng.create seed in
  let setup_times, tl, scaled, figures, raw, rss, extra, per_conn =
    if workload = "serve-mix" then begin
      if not (Sys.file_exists serve_exe) then fail_setup "no daemon binary at %s" serve_exe;
      let graph, ontology, _ = load_graph () in
      let cells = Array.of_list cells in
      let expected = expected_responses ~graph ~ontology (Array.to_list cells) in
      let socket = Filename.concat !work "omega.sock" in
      let log = Filename.concat !work "daemon.log" in
      let audit = Filename.concat !work "audit.jsonl" in
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ log; audit ];
      let args =
        [
          "run"; "--data"; graph_file (); "--socket"; socket; "--distance-aware"; "--decompose"; "--audit"; audit;
          "--max-states"; string_of_int serve_max_states;
        ]
      in
      let start () =
        let t0 = now_ns () in
        let d = Wire.spawn ~exe:serve_exe ~args ~socket ~log in
        if not (Wire.await_ready d ~timeout_ns:60_000_000_000) then begin
          Wire.stop d;
          fail_setup "omega_serve did not come up (see %s)" log
        end;
        (d, float_of_int (now_ns () - t0) /. 1e9)
      in
      let daemon, setup_times =
        calibrated_setups (fun prev ->
            Option.iter Wire.stop prev;
            start ())
      in
      let phase ~conns ~seconds ~traced_with =
        let tls, fr = serve_phase ~socket:daemon.Wire.socket ~cells ~expected ~rng ~conns ~seconds ~traced_with in
        (tls, (merge tls, fr))
      in
      let measure () =
        if not trace then
          let tls, m = phase ~conns:2 ~seconds ~traced_with:None in
          (tls, m, windowed m, windowed ~raw:true m, [])
        else begin
          (* single connection in both halves, so in-process replays never
             contend with a second client *)
          let _, untraced = phase ~conns:1 ~seconds:(seconds /. 2.) ~traced_with:None in
          Obs.Clock.install now_ns;
          tracing := true;
          let t =
            {
              graph;
              ontology;
              options = serve_options;
              limit = Some serve_limit;
              daemon =
                Some
                  (Server.Daemon.create ~graph ~ontology
                     { Server.Daemon.default_config with Server.Daemon.options = serve_options });
            }
          in
          let tls, m = phase ~conns:1 ~seconds:(seconds /. 2.) ~traced_with:(Some t) in
          let f = windowed m in
          (tls, m, f, windowed ~raw:true m, [ metric "trace.overhead" "ratio" (ratio (windowed untraced).qps f.qps) ])
        end
      in
      let tls, (_, fr), figures, raw, extra, rss =
        Fun.protect
          ~finally:(fun () -> Wire.stop daemon)
          (fun () ->
            let tls, m, figures, raw, extra = measure () in
            (tls, m, figures, raw, extra, Wire.peak_rss_mb daemon.Wire.pid))
      in
      let _, shed, errors = drain_counts log in
      let records = count_lines audit in
      let bytes = (Unix.stat audit).Unix.st_size in
      let extra =
        extra
        @ [
            metric "server.daemon.shed" "count" (float_of_int shed);
            metric "server.daemon.errors" "count" (float_of_int errors);
            metric ~n:records "obs.audit.bytes_per_request" "B" (ratio (float_of_int bytes) (float_of_int records));
          ]
      in
      (setup_times, merge tls, rescaled fr, figures, raw, rss, extra, List.map attempted tls)
    end
    else begin
      let (graph, ontology), setup_times = setup () in
      let options = inproc_options workload in
      warm_up ~graph ~ontology ~options cells;
      let phase ~seconds ~traced = inproc_phase ~workload ~graph ~ontology ~options ~cells ~rng ~seconds ~traced in
      let (tl, fr), figures, raw, extra =
        if not trace then
          let m = phase ~seconds ~traced:false in
          (m, per_query m, per_query ~raw:true m, [])
        else begin
          let untraced = phase ~seconds:(seconds /. 2.) ~traced:false in
          Obs.Clock.install now_ns;
          tracing := true;
          let m = phase ~seconds:(seconds /. 2.) ~traced:true in
          let f = per_query m in
          (m, f, per_query ~raw:true m, [ metric "trace.overhead" "ratio" (ratio (per_query untraced).qps f.qps) ])
        end
      in
      let extra =
        extra
        @ [
            metric "server.daemon.shed" "count" 0.;
            metric "server.daemon.errors" "count" 0.;
            metric "obs.audit.bytes_per_request" "B" 0.;
          ]
      in
      (setup_times, tl, rescaled fr, figures, raw, Wire.peak_rss_mb 0, extra, [ attempted tl ])
    end
  in
  let correct = correct tl in
  let metrics =
    if not trace then end_to_end ~setup:setup_times ~tl ~figures ~rss
    else begin
      let m =
        per_layer
          ~extra:
            (extra
            @ [
                metric "trace.uncovered_share" "ratio" (uncovered_share ());
                metric ~n:(List.length !calibrations) "host.probe_ns" "ns" (median !calibrations *. 1e6);
              ])
      in
      write_spans (Filename.concat !work ("spans-" ^ workload ^ ".jsonl"));
      by_query_lines ();
      m
    end
  in
  Printf.printf "# calibration loop: median %.3f ms, min %.3f, max %.3f, n=%d (nominal %.1f ms)\n"
    (median !calibrations) (List.fold_left min infinity !calibrations) (List.fold_left max 0. !calibrations)
    (List.length !calibrations) calib_nominal_ms;
  Printf.printf "# setup_s each, as measured: %s\n" (String.concat " " (List.map (fun (r, _) -> Printf.sprintf "%.3f" r) setup_times));
  Printf.printf "# as measured: setup_s %.6f throughput_qps %.6f latency_p50_ms %.6f answers_per_s %.3f\n"
    (median (List.map fst setup_times)) raw.qps raw.p50 raw.aps;
  extra_lines ~tl ~lat:scaled ~figures ~per_conn;
  report ~workload ~trace ~correct ~attempted:(attempted tl) ~failed:(failed tl) metrics;
  if not correct then exit 1

(* Print the pins file from the current code's answers. *)
let print_pins () =
  generate ();
  let graph, ontology, _ = load_graph () in
  let line pin o =
    match Cells.verdict o with
    | Ok (v, _) -> Printf.printf "%s %s\n" pin v
    | Error t -> fail_setup "%s terminated %s" pin t
  in
  let max_states = ref 0 in
  List.iter
    (fun (c : Cells.cell) ->
      let q = Core.Query_parser.parse c.Cells.text in
      let est = Core.Admission.estimate ~graph ~ontology ~options:serve_options q in
      List.iter (fun e -> max_states := max !max_states e.Core.Admission.states) est.Core.Admission.per_conjunct;
      line (pin_of "serve-mix" c)
        (fst (engine_request ~graph ~ontology ~options:serve_options ~limit:serve_limit q)))
    Cells.fig4;
  Printf.printf "# largest serve-mix automaton: %d states\n" !max_states;
  List.iter
    (fun (w, cells) ->
      List.iter
        (fun (c : Cells.cell) ->
          line (pin_of w c)
            (fst (engine_request ~graph ~ontology ~options:Core.Options.default (Core.Query_parser.parse c.Cells.text))))
        cells)
    [ ("drain-exact", Cells.drains); ("join-exact", Cells.joins) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let serve_exe = ref "" and pins = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  serve-mix | drain-exact | join-exact | drain-par");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  1 = the traced per-layer run");
      ("--serve", Arg.Set_string serve_exe, "EXE  the omega_serve binary (serve-mix)");
      ("--work", Arg.Set_string work, "DIR  working directory for generated inputs");
      ("--print-pins", Arg.Set pins, " print the pins file for the current code");
    ]
    (fun a -> fail_setup "unexpected argument %S" a)
    "omegabench.exe --workload W --seed N --seconds S --trace 0|1 --serve EXE";
  if !pins then print_pins ()
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~serve_exe:!serve_exe
