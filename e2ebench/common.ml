(* Shared machinery of the end-to-end benchmark: clocks, sample
   statistics, process probes, golden files and the result line. *)

let now = Obs.Collector.now

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric name unit_ value = { name; value; unit_ }

let result_line o =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool o.correct);
         ("attempted", Obs.Json.Int o.attempted);
         ("failed", Obs.Json.Int o.failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Obs.Json.Obj
                      [
                        ("value", Obs.Json.Float m.value);
                        ("unit", Obs.Json.String m.unit_);
                      ] ))
                o.metrics) );
       ])

(* A failed correctness check is reported on stderr and folded into the
   run's [correct] flag; the run still prints its measurements. *)
let checks_ok = ref true

let check label ok =
  if not ok then begin
    checks_ok := false;
    Printf.eprintf "e2e: check failed: %s\n%!" label
  end;
  ok

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank median (the lower one for an even count). *)
let p50 a =
  if Array.length a = 0 then invalid_arg "p50: no samples";
  a.((Array.length a - 1) / 2)

(* The highest percentile with at least ten samples beyond it, capped
   at p95. On a 2-vCPU machine shared with other tenants, 0.2% of the
   served steps of one run and 3.5% of the next were delayed 2.5 to
   10 ms by the host, so their p99 sat in the body of one run and in
   the delays of the other: it ranged from 2.3 to 4.3 ms over ten
   seeds. A run with fewer than eleven samples reports its maximum. *)
let tail_index n = if n >= 11 then min (n - 11) (95 * (n - 1) / 100) else n - 1

let tail a =
  if Array.length a = 0 then invalid_arg "tail: no samples";
  a.(tail_index (Array.length a))

(* ------------------------------------------------------------------ *)
(* Deterministic shuffling from the workload seed                      *)
(* ------------------------------------------------------------------ *)

let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed; 0x5eed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Process probes (Linux /proc)                                        *)
(* ------------------------------------------------------------------ *)

let status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line when String.starts_with ~prefix line ->
        let digits =
          String.to_seq line
          |> Seq.filter (fun c -> c >= '0' && c <= '9')
          |> String.of_seq
        in
        float_of_string digits
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Peak resident set size in MB of this process or of [pid]. *)
let peak_rss_mb ?(pid = "self") () = status_kb pid "VmHWM" /. 1024.0

(* User + system CPU seconds of [pid] (all its threads). *)
let cpu_seconds pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  (* Fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line. *)
  let rest =
    String.sub line
      (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  let ticks = float_of_string fields.(11) +. float_of_string fields.(12) in
  ticks /. 100.0

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)
(* ------------------------------------------------------------------ *)

(* The work directory (passed by run.py) holds the warm design cache
   and per-run scratch; goldens live next to the sources. *)
let work_dir = ref "e2ebench/.work"
let golden_dir = ref "e2ebench/golden"

let warm_dir () = Filename.concat !work_dir "warm"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

(* A fresh, empty directory private to this process. *)
let fresh_dir tag =
  let d =
    Filename.concat !work_dir
      (Printf.sprintf "run-%d-%s" (Unix.getpid ()) tag)
  in
  rm_rf d;
  mkdir_p d;
  d

let with_cwd dir f =
  let here = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir here) f

(* ------------------------------------------------------------------ *)
(* Set-up probes                                                       *)
(* ------------------------------------------------------------------ *)

(* Wall seconds from spawning [argv] until it exits with status 0. *)
let time_process ?(cwd = ".") argv =
  let t0 = now () in
  let pid =
    with_cwd cwd (fun () ->
        Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr)
  in
  let _, status = Unix.waitpid [] pid in
  let dt = now () -. t0 in
  if status <> Unix.WEXITED 0 then
    failwith (Printf.sprintf "set-up probe %s failed" argv.(2));
  dt

(* One fresh [e2e.exe setup <workload>] process, run in [cwd]. *)
let setup_probe ~cwd workload () =
  let exe =
    if Filename.is_relative Sys.executable_name then
      Filename.concat (Sys.getcwd ()) Sys.executable_name
    else Sys.executable_name
  in
  time_process ~cwd:(cwd ()) [| exe; "setup"; workload; "--work"; !work_dir |]

(* ------------------------------------------------------------------ *)
(* Timed windows                                                       *)
(* ------------------------------------------------------------------ *)

(* A slice is one whole unit of a workload's work (a suite, a fleet run,
   a sweep, half a second of served traffic), timed on its own. *)
type slice = {
  dur : float;             (* Wall seconds. *)
  work : float;            (* Simulated control epochs. *)
  lats : float list;       (* Per completed request, seconds. *)
  ok : int;                (* Requests whose output checked out. *)
}

type measured = {
  setups : float list;     (* Set-up samples, seconds. *)
  slices : slice list;
  rss_mb : float;          (* Peak RSS of the process doing the work. *)
}

let min_setups = 16

(* Run slices until their own time adds up to [seconds] (at least one),
   after a full major collection. Half of [min_setups] set-up samples
   are taken before the window, then one a second between slices
   (outside the slices' time), and the window tops them up to
   [min_setups] at its end, so the samples spread over the whole run
   even when it is a single slice. *)
let window ~seconds ~setup slice =
  let setups = ref (List.init (min_setups / 2) (fun _ -> setup ())) in
  Gc.full_major ();
  let slices = ref [] in
  let spent = ref 0.0 and last = ref (now ()) in
  while !slices = [] || !spent < seconds do
    let s = slice () in
    slices := s :: !slices;
    spent := !spent +. s.dur;
    if now () -. !last >= 1.0 then begin
      setups := setup () :: !setups;
      last := now ()
    end
  done;
  while List.length !setups < min_setups do
    setups := setup () :: !setups
  done;
  (!setups, List.rev !slices)

(* ------------------------------------------------------------------ *)
(* Goldens                                                             *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let golden_path name = Filename.concat !golden_dir (name ^ ".json")

(* Writing goldens is a deliberate act ([e2e.exe golden]); a run only
   ever compares against them. *)
let regenerate = ref false

let golden name (doc : Obs.Json.t) =
  let text = Obs.Json.to_string ~pretty:true doc ^ "\n" in
  if !regenerate then begin
    mkdir_p !golden_dir;
    write_file (golden_path name) text;
    Printf.eprintf "e2e: wrote %s\n%!" (golden_path name);
    true
  end
  else
    match read_file (golden_path name) with
    | expected -> check ("golden " ^ name) (String.equal expected text)
    | exception Sys_error msg -> check ("golden " ^ name ^ ": " ^ msg) false

let json_float key doc =
  match Option.bind (Obs.Json.member key doc) Obs.Json.to_float_opt with
  | Some v -> v
  | None -> failwith ("missing numeric field " ^ key)

(* An integer field of a committed golden, e.g. the epochs its work
   steps. *)
let golden_int name key =
  int_of_float (json_float key (Obs.Json.of_string (read_file (golden_path name))))

(* ------------------------------------------------------------------ *)
(* Traced runs                                                         *)
(* ------------------------------------------------------------------ *)

(* Run [f] with the collector on; return its result and the recorded
   lines. With [keep = false] lines are encoded and dropped (counters
   only), so long simulations do not buffer their event streams.
   Metrics are reset first so counters cover [f] alone. *)
let collect ?(keep = true) f =
  Obs.Metrics.reset_all ();
  if keep then Obs.Collector.buffer_sink () else Obs.Collector.set_sink ignore;
  Obs.Collector.enable ();
  let finish () =
    Obs.Collector.disable ();
    let lines = Obs.Collector.drain () in
    Obs.Collector.buffer_sink ();
    lines
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let counter name = float_of_int (Obs.Metrics.count (Obs.Metrics.counter name))

(* The deterministic counters a collector-on pass leaves behind. *)
let counter_names =
  [
    "board.dvfs_transitions"; "board.hotplug_changes";
    "sensors.power_refreshes"; "emergency.trips";
  ]

let board_counters () = List.map (fun n -> (n, counter n)) counter_names

(* Total seconds and count per span name. The program records its
   synthesis spans flat (without nesting), so the self time of a span
   that contains others is computed where the containment is known. *)
let span_totals lines =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun line ->
      let j = Obs.Json.of_string line in
      match (Obs.Json.member "type" j, Obs.Json.member "name" j) with
      | Some (Obs.Json.String "span"), Some (Obs.Json.String name) ->
        let dur = json_float "dur_s" j in
        let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name) in
        Hashtbl.replace totals name (t +. dur, n + 1)
      | _ -> ())
    lines;
  fun name -> Option.value ~default:(0.0, 0) (Hashtbl.find_opt totals name)
