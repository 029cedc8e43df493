(* Child processes and SHAPWIRE connections, driven from the benchmark's
   single process. Every child is recorded in [live] until it is reaped,
   and the exit hook kills and reaps whatever is left, so no run leaves
   a process behind. *)

external wait4 : int -> bool -> int * int = "perfbench_wait4"

(* Pins this process and its later children to the processor it runs
   on; the processor, or −1 when that is not allowed. *)
external pin_cpu : unit -> int = "perfbench_pin_cpu"

let live : (int, unit) Hashtbl.t = Hashtbl.create 4

(* [reap pid] = (exit code or −signal, peak resident set in KiB). *)
let rec reap pid =
  match wait4 pid false with
  | -1000, _ -> reap pid
  | r ->
    Hashtbl.remove live pid;
    r

(* [reap] for a child that was asked to exit: killed after [grace]
   seconds. *)
let reap_within ~grace pid =
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match wait4 pid true with
    | (-1000 | -1001), _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | (-1000 | -1001), _ ->
      Unix.kill pid Sys.sigkill;
      reap pid
    | r ->
      Hashtbl.remove live pid;
      r
  in
  go ()

(* Kills and reaps every child still running. *)
let stop_all () =
  Hashtbl.iter (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) live;
  List.iter (fun pid -> ignore (reap pid)) (Hashtbl.fold (fun p () acc -> p :: acc) live [])

let () = at_exit stop_all

let spawn prog args ~stdout =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout Unix.stderr in
  Hashtbl.replace live pid ();
  pid

(* Runs [f] in a forked child and returns its marshalled result. A
   child's peak resident set, as wait4 reports it, is at least its
   parent's resident set at the time of the spawn, so the benchmark does
   its heavy in-process work here and stays small itself. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    let v : ('a, string) result =
      match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
    in
    Marshal.to_channel oc v [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    Hashtbl.replace live pid ();
    let ic = Unix.in_channel_of_descr r in
    let v : ('a, string) result =
      match Marshal.from_channel ic with v -> v | exception End_of_file -> Error "child died"
    in
    close_in ic;
    ignore (reap pid);
    match v with Ok v -> v | Error msg -> failwith msg

let rec select_retry r timeout =
  match Unix.select r [] [] timeout with
  | (ready, _, _) -> ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r timeout

type run = {
  code : int;  (** exit code, −signal when killed *)
  out : string;  (** standard output *)
  rss_kib : int;  (** peak resident set *)
  wall : float;  (** spawn to exit, seconds *)
  timed_out : bool;
}

(* Runs [prog args] to completion with its standard output captured,
   killing it once [timeout] seconds have passed. *)
let run ~timeout prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid = spawn prog args ~stdout:w in
  Unix.close w;
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let timed_out = ref false in
  let rec pump () =
    let left = t0 +. timeout -. Unix.gettimeofday () in
    if left <= 0.0 then begin
      timed_out := true;
      Unix.kill pid Sys.sigkill
    end
    else if select_retry [ r ] left <> [] then begin
      let n = Unix.read r chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        pump ()
      end
    end
    else pump ()
  in
  pump ();
  Unix.close r;
  let code, rss_kib = reap pid in
  { code; out = Buffer.contents buf; rss_kib; wall = Unix.gettimeofday () -. t0;
    timed_out = !timed_out }

(* ------------------------------------------------------------------ *)
(* Line connections to the server                                       *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; mutable pending : string }

let connect ~timeout socket =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; pending = "" }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let close c = Unix.close c.fd

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let take_line c =
  match String.index_opt c.pending '\n' with
  | None -> None
  | Some i ->
    let line = String.sub c.pending 0 i in
    c.pending <- String.sub c.pending (i + 1) (String.length c.pending - i - 1);
    Some line

(* Reads what the socket has; [false] at end of stream. *)
let fill c =
  let chunk = Bytes.create 65536 in
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  c.pending <- c.pending ^ Bytes.sub_string chunk 0 n;
  n > 0

let recv c ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match take_line c with
    | Some l -> Ok l
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then Error "timed out waiting for the server"
      else if select_retry [ c.fd ] left = [] then go ()
      else if fill c then go ()
      else Error "server closed the connection"
  in
  go ()
