(* The serve-mix client side: spawning and stopping an omega_serve daemon,
   and line-framed request/response over its Unix socket with a
   per-request timeout. *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; pending = Buffer.create 4096; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  try go 0; true with Unix.Unix_error _ -> false

(* The next response line, or [None] on EOF, error or once [deadline_ns]
   ({!Ledger.now_ns}) has passed. *)
let recv c ~deadline_ns =
  let rec go () =
    match String.index_opt (Buffer.contents c.pending) '\n' with
    | Some i ->
      let all = Buffer.contents c.pending in
      Buffer.clear c.pending;
      Buffer.add_string c.pending (String.sub all (i + 1) (String.length all - i - 1));
      Some (String.sub all 0 i)
    | None -> (
      let left = deadline_ns - Ledger.now_ns () in
      if left <= 0 then None
      else
        match Unix.select [ c.fd ] [] [] (float_of_int left /. 1e9) with
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
          | 0 -> None
          | n ->
            Buffer.add_subbytes c.pending c.chunk 0 n;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error _ -> None)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let roundtrip c line ~timeout_ns =
  if send c line then recv c ~deadline_ns:(Ledger.now_ns () + timeout_ns) else None

(* --- the daemon process ------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

let alive pid = match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false | exception Unix.Unix_error _ -> false

let spawn ~exe ~args ~socket ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out out in
  Unix.close out;
  { pid; socket }

(* Poll until the daemon answers a ping; the time from [spawn] to this
   point is its set-up time. *)
let await_ready d ~timeout_ns =
  let deadline_ns = Ledger.now_ns () + timeout_ns in
  let rec go () =
    if Ledger.now_ns () > deadline_ns || not (alive d.pid) then false
    else
      match connect d.socket with
      | None ->
        Unix.sleepf 0.001;
        go ()
      | Some c ->
        let pong = roundtrip c "{\"op\":\"ping\"}" ~timeout_ns:(deadline_ns - Ledger.now_ns ()) in
        close c;
        pong <> None
  in
  go ()

(* SIGTERM (graceful drain), then SIGKILL if it has not exited in 10 s. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline_ns = Ledger.now_ns () + 10_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Ledger.now_ns () < deadline_ns ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

(* VmHWM of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid)) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find
