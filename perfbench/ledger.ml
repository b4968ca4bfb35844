(* Clock, sample statistics, the traced run's span ledger and the result
   printer. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

(* Linearly interpolated percentile ([p] in 0..100); nan on no samples. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50. xs
let sum xs = List.fold_left ( +. ) 0. xs
let ratio a b = if b = 0. then 0. else a /. b

(* --- host calibration --------------------------------------------------------

   The shared hosts this benchmark runs on change speed in phases of a few
   seconds: the same drain runs up to twice as long in a slow phase as in a
   fast one, and whole runs can fall in slow phases (see README.md).  The
   calibration loop is fixed work that no change to the program under test
   can speed up or slow down: hash mixing with short-lived allocation, then
   updates and lookups in a hash table of random keys.  The slow phases
   slow the CPU, not memory (a pointer chase over 32 MiB barely feels
   them), so the loop stays in cache.  Timed next to every measured stretch
   of work, it tells how fast the host ran just then; the gated timings are
   rescaled to a host on which the loop takes [calib_nominal_ms]. *)

let calib_nominal_ms = 9.0

let calib_loop () =
  let t0 = now_ns () in
  let h = ref 0 and acc = ref [] in
  for i = 1 to 600_000 do
    h := (!h * 31) + i;
    acc := (i, !h) :: !acc;
    if i land 1023 = 0 then acc := []
  done;
  let tbl = Hashtbl.create 16 and x = ref 12345 in
  for _ = 1 to 30_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace tbl (!x land 0xfffff) !x;
    ignore (Hashtbl.find_opt tbl ((!x lsr 3) land 0xfffff))
  done;
  ignore (Sys.opaque_identity (!h, !acc, tbl));
  now_ns () - t0

(* Every calibration of the run, in ms, for [host.probe_ns]. *)
let calibrations = ref []

(* One calibration, in ms: the loop on each of [domains] domains at once
   (the slowest copy), so parallel work is calibrated in parallel. *)
let calibrate ?(domains = 1) () =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn calib_loop) in
  let mine = calib_loop () in
  let t = float_of_int (List.fold_left (fun a d -> max a (Domain.join d)) mine others) /. 1e6 in
  calibrations := t :: !calibrations;
  t

(* The factor that rescales a time measured between calibrations [before]
   and [after] to the nominal host. *)
let host_scale before after = calib_nominal_ms /. ((before +. after) /. 2.)

(* --- the span ledger ------------------------------------------------------ *)

(* Spans are recorded only in traced runs, by the benchmark around its own
   calls into each layer; they stay in memory until [write_spans]. *)
type span = { id : int; parent : int; req : int; name : string; t0 : int; t1 : int }

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref 0
let current_req = ref 0

(* [span name f] runs [f] and returns its result with its duration in ns;
   when tracing, the span is recorded as a child of the enclosing one. *)
let span name f =
  let t0 = now_ns () in
  if not !tracing then
    let r = f () in
    (r, now_ns () - t0)
  else begin
    incr next_id;
    let id = !next_id and parent = !current in
    current := id;
    let r = Fun.protect ~finally:(fun () -> current := parent) f in
    let t1 = now_ns () in
    spans := { id; parent; req = !current_req; name; t0; t1 } :: !spans;
    (r, t1 - t0)
  end

(* One traced request: a root span the layer spans hang under. *)
let request f =
  incr current_req;
  span "request" f

(* The part of the root spans' time no direct child covers (children are
   sequential calls, so they never overlap). *)
let uncovered_share () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.replace child s.parent (s.t1 - s.t0 + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let total, uncovered =
    List.fold_left
      (fun (tot, unc) s ->
        if s.parent <> 0 || s.name <> "request" then (tot, unc)
        else
          let d = s.t1 - s.t0 in
          (tot + d, unc + d - Option.value ~default:0 (Hashtbl.find_opt child s.id)))
      (0, 0) !spans
  in
  ratio (float_of_int uncovered) (float_of_int total)

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ns\":%d,\"dur_ns\":%d}\n"
        s.id s.parent s.req s.name s.t0 (s.t1 - s.t0))
    (List.rev !spans);
  close_out oc

(* --- per-layer samples ---------------------------------------------------- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
let add name v = Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))
let get name = Option.value ~default:[] (Hashtbl.find_opt samples name)
let total name = sum (get name)
let med name = match get name with [] -> 0. | xs -> median xs
let mean name = match get name with [] -> 0. | xs -> sum xs /. float_of_int (List.length xs)
let max_of name = List.fold_left max 0. (get name)

(* --- result ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; n : int }

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }

let report ~workload ~trace ~correct ~attempted ~failed metrics =
  Printf.printf "# %s (%s): attempted %d, failed %d, correct %b\n" workload
    (if trace then "traced" else "untraced") attempted failed correct;
  List.iter (fun m -> Printf.printf "%-44s %16.6f %-8s n=%d\n" m.name m.value m.unit_ m.n) metrics;
  let value v = if Float.is_finite v then Obs.Json.Float v else Obs.Json.Float 0. in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun m -> (m.name, Obs.Json.Obj [ ("value", value m.value); ("unit", Obs.Json.String m.unit_) ]))
                   metrics) );
          ]))
