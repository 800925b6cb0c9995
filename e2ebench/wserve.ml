(* serve_closed: [yukta_cli serve] in its own process on loopback TCP,
   driven by two connections in a closed loop (a board agent waits for
   its decisions before it sends the next observation window). Each
   connection configures a [yukta] session for the next app of a seeded
   cycle through the suite, sends fixed-size [step] requests until the
   run ends, closes, and reconnects — so session set-up is part of the
   traffic. The stepping is [suite_warm]'s, plus protocol, session,
   select loop and socket. *)

open Common

let step_count = 25

(* One control period (Section V-A): a decision later than this misses
   the epoch it was for. *)
let latency_limit_s = 0.5

let scheme = "yukta"

let cli = ref "_build/default/bin/yukta_cli.exe"

let apps () = List.map (fun w -> w.Board.Workload.name) Board.Workload.evaluation_suite

let configure_line app =
  Printf.sprintf {|{"type":"configure","scheme":"%s","app":"%s"}|} scheme app

let step_line = Printf.sprintf {|{"type":"step","count":%d}|} step_count

let close_line = {|{"type":"close"}|}

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel }

let spawn () =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    with_cwd (warm_dir ()) (fun () ->
        Unix.create_process !cli
          [| !cli; "serve"; "--port"; "0" |]
          Unix.stdin w Unix.stderr)
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match Scanf.sscanf (input_line out) "serving on tcp port %d" Fun.id with
  | port -> { pid; port; out }
  | exception e ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    raise e

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  close_in_noerr s.out

let with_server f =
  let s = spawn () in
  Fun.protect ~finally:(fun () -> stop s) (fun () -> f s)

(* ------------------------------------------------------------------ *)
(* Line-oriented connections                                           *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (* Bytes after the last complete line. *)
}

let chunk = Bytes.create 65536

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; pending = Buffer.create 16384 }

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd s off (n - off))
  in
  go 0

(* Read what is available (at least one byte, blocking) and return the
   complete lines. *)
let read_lines c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.pending chunk 0 n;
  let s = Buffer.contents c.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
    Buffer.clear c.pending;
    Buffer.add_string c.pending
      (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)

let rec read_line c =
  match read_lines c with
  | [] -> read_line c
  | [ l ] -> l
  | _ -> failwith "unexpected extra response lines"

let kind line =
  match Obs.Json.member "type" (Obs.Json.of_string line) with
  | Some (Obs.Json.String k) -> k
  | _ -> "?"

let is_frame line = String.starts_with ~prefix:{|{"type":"frame"|} line

let frame_done line =
  let suffix = {|"done":true}|} in
  String.ends_with ~suffix line

(* Spawn a server and time it to its first [configured] reply: what a
   board agent waits for before its first decision. *)
let time_to_configured app =
  let t0 = now () in
  with_server (fun s ->
      let c = connect s.port in
      send c (configure_line app);
      let reply = read_line c in
      let dt = now () -. t0 in
      Unix.close c.fd;
      if kind reply <> "configured" then failwith ("configure failed: " ^ reply);
      dt)

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type session = {
  app : string;
  mutable steps : int;          (* Step requests sent. *)
  mutable frames : string list; (* Newest first; kept when [keep]. *)
  mutable frame_count : int;
  mutable finished : bool;      (* The run ended (a done frame). *)
  keep : bool;
}

type client = {
  mutable conn : conn option;
  mutable sess : session option;
  mutable t_sent : float;
  mutable got : int;            (* Frames of the current response. *)
  mutable ended : bool;         (* An [end] line closed the response. *)
  mutable bad : bool;           (* The response carried an error. *)
  mutable phase : [ `Configuring | `Stepping | `Closing | `Idle ];
}

type traffic = {
  latencies : float list;       (* Per completed step request, seconds. *)
  ok : int;
  frames : int;
  sessions : session list;      (* Oldest first. *)
  wall_s : float;
}

(* Drive two connections closed-loop against [port] for [seconds]
   (requests in flight then complete). Sessions take the apps of
   [cycle] in turn; [next] counts sessions across calls, and [keep k]
   decides whether the [k]th session keeps its frames for checking. *)
let drive ~port ~cycle ~next ~seconds ~keep =
  let cycle = Array.of_list cycle in
  let ncycle = Array.length cycle in
  let lats = ref [] and ok = ref 0 and frames = ref 0 and sessions = ref [] in
  let clients =
    List.init 2 (fun _ ->
        {
          conn = None;
          sess = None;
          t_sent = 0.0;
          got = 0;
          ended = false;
          bad = false;
          phase = `Idle;
        })
  in
  let t0 = now () in
  let over () = now () -. t0 >= seconds in
  let open_session cl =
    let app = cycle.(!next mod ncycle) in
    let s =
      { app; steps = 0; frames = []; frame_count = 0; finished = false;
        keep = keep !next }
    in
    incr next;
    sessions := s :: !sessions;
    let c = connect port in
    cl.conn <- Some c;
    cl.sess <- Some s;
    cl.phase <- `Configuring;
    send c (configure_line app)
  in
  let send_step cl s c =
    s.steps <- s.steps + 1;
    cl.got <- 0;
    cl.ended <- false;
    cl.bad <- false;
    cl.phase <- `Stepping;
    cl.t_sent <- now ();
    send c step_line
  in
  let disconnect cl c =
    Unix.close c.fd;
    cl.conn <- None;
    cl.phase <- `Idle
  in
  let on_line cl c line =
    let s = Option.get cl.sess in
    match cl.phase with
    | `Configuring ->
      if kind line = "configured" then send_step cl s c
      else failwith ("configure failed: " ^ line)
    | `Stepping ->
      if is_frame line then begin
        cl.got <- cl.got + 1;
        s.frame_count <- s.frame_count + 1;
        if s.keep then s.frames <- line :: s.frames;
        if frame_done line then s.finished <- true
      end
      else if kind line = "end" then cl.ended <- true
      else cl.bad <- true;
      if cl.got = step_count || cl.ended then begin
        let dt = now () -. cl.t_sent in
        lats := dt :: !lats;
        frames := !frames + cl.got;
        if (not cl.bad) && dt <= latency_limit_s then incr ok;
        if s.finished then begin
          cl.phase <- `Closing;
          send c close_line
        end
        else if over () then disconnect cl c
        else send_step cl s c
      end
    | `Closing ->
      disconnect cl c;
      if not (over ()) then open_session cl
    | `Idle -> ()
  in
  List.iter open_session clients;
  let rec loop () =
    let live = List.filter (fun cl -> cl.conn <> None) clients in
    if live <> [] then begin
      let fds = List.map (fun cl -> (Option.get cl.conn).fd) live in
      let ready, _, _ = Unix.select fds [] [] 5.0 in
      if ready = [] then failwith "server stalled";
      List.iter
        (fun cl ->
          match cl.conn with
          | Some c when List.memq c.fd ready ->
            List.iter
              (fun l ->
                match cl.conn with
                | Some c' when c' == c -> on_line cl c l
                | _ -> ())
              (read_lines c)
          | _ -> ())
        live;
      loop ()
    end
  in
  loop ();
  {
    latencies = !lats;
    ok = !ok;
    frames = !frames;
    sessions = List.rev !sessions;
    wall_s = now () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Correctness: served frames against a batch [Stack.run]              *)
(* ------------------------------------------------------------------ *)

let workloads app = [ Board.Workload.by_name app ]

let batch_matches (s : session) =
  let r =
    Yukta.Schemes.run ~collect_trace:true (Yukta.Schemes.find_exn scheme)
      (workloads s.app)
  in
  let frames = Array.of_list (List.rev s.frames) in
  let trace = r.Yukta.Stack.trace in
  let num path j =
    match
      Option.bind
        (List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some j) path)
        Obs.Json.to_float_opt
    with
    | Some v -> v
    | None -> Float.nan
  in
  let same (p : Yukta.Stack.trace_point) line =
    let j = Obs.Json.of_string line in
    num [ "sim_s" ] j = p.Yukta.Stack.time
    && num [ "observation"; "bips" ] j = p.Yukta.Stack.bips
    && num [ "observation"; "power_big" ] j = p.Yukta.Stack.power_big_sensor
    && num [ "observation"; "temperature" ] j = p.Yukta.Stack.temperature
    && num [ "decision"; "freq_big" ] j = p.Yukta.Stack.freq_big
    && num [ "decision"; "big_cores" ] j = float_of_int p.Yukta.Stack.big_cores
  in
  (* A finished session saw every epoch; an unfinished one a prefix. *)
  let n = Array.length frames in
  n <= Array.length trace
  && ((not s.finished) || n = Array.length trace)
  && Array.for_all2 same (Array.sub trace 0 n) frames

(* Of the timed sessions, numbered from 0, keep the first two (one per
   connection) and every seventh after. *)
let sampled k = k < 2 || k mod 7 = 0

(* Served traffic is sliced into half-second closed-loop runs. *)
let slice_s = 0.5

let measure ~seed ~seconds =
  let cycle = shuffle ~seed (apps ()) in
  let setup () = time_to_configured (List.hd cycle) in
  let next = ref 0 in
  let setups, slices, rss_mb =
    with_server @@ fun srv ->
    (* Warm-up: a short closed loop whose sessions are not checked. *)
    ignore (drive ~port:srv.port ~cycle ~next ~seconds:1.0 ~keep:(fun _ -> false));
    let first = !next in
    let keep k = sampled (k - first) in
    let setups, slices =
      window ~seconds ~setup (fun () ->
          let t = drive ~port:srv.port ~cycle ~next ~seconds:slice_s ~keep in
          (* A session whose frames differ from the batch run fails all
             its requests. *)
          let bad =
            List.fold_left
              (fun acc s ->
                if s.keep && s.frame_count > 0
                   && not
                        (check ("served " ^ s.app ^ " frames = batch Stack.run")
                           (with_cwd (warm_dir ()) (fun () -> batch_matches s)))
                then acc + s.steps
                else acc)
              0 t.sessions
          in
          {
            dur = t.wall_s;
            work = float_of_int t.frames;
            lats = t.latencies;
            ok = max 0 (t.ok - bad);
          })
    in
    (setups, slices, peak_rss_mb ~pid:(string_of_int srv.pid) ())
  in
  { setups; slices; rss_mb }

(* ------------------------------------------------------------------ *)
(* Traced run: the same request sequence replayed in-process           *)
(* ------------------------------------------------------------------ *)

let request_lines (s : session) =
  configure_line s.app :: List.init s.steps (fun _ -> step_line)

type replay = {
  parse_s : float;
  parse_n : int;
  configure_s : float;
  configures : int;
  session_s : float;
  epochs : int;
  digests : string list;  (* Per session: digest of its frame lines. *)
}

(* Through [Session.process], one request at a time, as the server
   does; [Protocol.request_of_line] timed separately on the same lines. *)
let replay_sessions sessions =
  let parse_s = ref 0.0 and parse_n = ref 0 in
  let configure_s = ref 0.0 and session_s = ref 0.0 and epochs = ref 0 in
  let digests =
    List.mapi
      (fun id (s : session) ->
        let sess = Serve.Session.create ~id () in
        let frames = Buffer.create 65536 in
        List.iteri
          (fun i line ->
            let t0 = now () in
            ignore (Serve.Protocol.request_of_line line);
            parse_s := !parse_s +. (now () -. t0);
            incr parse_n;
            ignore (Serve.Session.enqueue sess line);
            let t0 = now () in
            let out = Serve.Session.process sess in
            let dt = now () -. t0 in
            if i = 0 then configure_s := !configure_s +. dt
            else session_s := !session_s +. dt;
            List.iter
              (fun l ->
                if is_frame l then begin
                  incr epochs;
                  Buffer.add_string frames l;
                  Buffer.add_char frames '\n'
                end)
              out)
          (request_lines s);
        Digest.string (Buffer.contents frames))
      sessions
  in
  {
    parse_s = !parse_s;
    parse_n = !parse_n;
    configure_s = !configure_s;
    configures = List.length sessions;
    session_s = !session_s;
    epochs = !epochs;
    digests;
  }

(* Batch stepping of the same sessions: [Stack.step_epoch] for as many
   epochs as were served. *)
let step_sessions sessions =
  let info = Yukta.Schemes.find_exn scheme in
  List.fold_left
    (fun acc (s : session) ->
      let st = Yukta.Stack.stepper (Yukta.Schemes.stack info) (workloads s.app) in
      let t0 = now () in
      for _ = 1 to s.frame_count do
        ignore (Yukta.Stack.step_epoch st)
      done;
      acc +. (now () -. t0))
    0.0 sessions

let digest_frames (s : session) =
  Digest.string (String.concat "" (List.rev_map (fun l -> l ^ "\n") s.frames))

let trace ~seed ~seconds =
  let cycle = shuffle ~seed (apps ()) in
  let t, cpu =
    with_server @@ fun srv ->
    let next = ref 0 in
    ignore (drive ~port:srv.port ~cycle ~next ~seconds:1.0 ~keep:(fun _ -> false));
    let cpu0 = cpu_seconds srv.pid in
    let t = drive ~port:srv.port ~cycle ~next ~seconds ~keep:(fun _ -> true) in
    (t, cpu_seconds srv.pid -. cpu0)
  in
  with_cwd (warm_dir ()) @@ fun () ->
  Yukta.Designs.prepare ();
  let sessions = t.sessions in
  ignore (replay_sessions sessions);
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let r = replay_sessions sessions in
  let words = Gc.minor_words () -. w0 in
  ignore
    (check "in-process replay = socket frames"
       (List.for_all2 (fun s d -> digest_frames s = d) sessions r.digests));
  let step_s = step_sessions sessions in
  (* Counters from whole runs of the cycle's apps, so they repeat
     exactly whatever the traffic reached. *)
  let info = Yukta.Schemes.find_exn scheme in
  let (), _ =
    collect ~keep:false (fun () ->
        List.iter (fun app -> ignore (Yukta.Schemes.run info (workloads app))) cycle)
  in
  let counters = board_counters () in
  let t0 = now () in
  ignore (step_sessions sessions);
  let plain_s = now () -. t0 in
  let t0 = now () in
  let (), _ = collect ~keep:false (fun () -> ignore (step_sessions sessions)) in
  let traced_s = now () -. t0 in
  let per_epoch x = x /. float_of_int r.epochs *. 1e6 in
  let lat = sorted t.latencies in
  let socket_us = List.fold_left ( +. ) 0.0 t.latencies /. float_of_int t.frames *. 1e6 in
  [
    ("serve.parse_us", r.parse_s /. float_of_int r.parse_n *. 1e6);
    ("serve.session_us_per_epoch", per_epoch r.session_s);
    ("serve.encode_us_per_epoch", per_epoch (r.session_s -. step_s));
    ("serve.transport_us_per_epoch", socket_us -. per_epoch r.session_s);
    ("serve.configure_ms", r.configure_s /. float_of_int r.configures *. 1e3);
    ("serve.busy_frac", cpu /. t.wall_s);
    (* Past the p95 cap of request_tail_ms. *)
    ("serve.request_p99_ms", lat.(99 * (Array.length lat - 1) / 100) *. 1e3);
    ("gc.minor_words_per_epoch", words /. float_of_int r.epochs);
    ("obs.trace_overhead_frac", (traced_s /. plain_s) -. 1.0);
  ]
  @ counters
