(* The end-to-end benchmark driver.

     e2e.exe run --workload W --seed N --seconds S --trace 0|1 [--work DIR]
     e2e.exe prepare | golden | selftest [--work DIR]

   [run] prints human-readable lines and, last, one JSON object with
   [correct], [attempted], [failed] and [metrics]: the end-to-end
   metrics with [--trace 0], the per-layer metrics with [--trace 1].
   [prepare] fills the warm design cache under the work directory;
   [golden] rewrites the committed golden outputs; [setup W] is the
   child process the set-up probes time. See README.md. *)

open Common

let workloads = [ "sweep_cold"; "suite_warm"; "serve_closed"; "fleet_rack" ]

let end_to_end =
  [
    ("setup_s", "s"); ("peak_rss_mb", "MB"); ("ok_frac", "frac");
    ("requests_per_s", "1/s"); ("epochs_per_s", "1/s");
    ("request_p50_ms", "ms"); ("request_tail_ms", "ms");
  ]

(* Every workload prints every per-layer metric; a layer boundary that
   a workload's traced run does not cross reads 0 there (the bypass). *)
let per_layer =
  [
    ("control.hinf_ms", "ms"); ("control.hinf_gamma_steps", "count");
    ("control.dk_dstep_ms", "ms"); ("control.dk_iterations", "count");
    ("sysid.identify_ms", "ms");
    ("linalg.svd_calls", "count"); ("linalg.svd_sweeps", "count");
    ("linalg.svd_unconverged", "count"); ("linalg.eig_calls", "count");
    ("linalg.eig_qr_iterations", "count");
    ("yukta.designs_wait_s", "s"); ("yukta.design_cache_hit_frac", "frac");
    ("parallel.busy_cores", "cores"); ("parallel.efficiency", "frac");
    ("sweep.probe_ms", "ms");
    ("board.epoch_us", "us"); ("yukta.ssv_step_us", "us");
    ("yukta.heur_step_us", "us"); ("gc.minor_words_per_epoch", "words");
    ("board.dvfs_transitions", "count"); ("board.hotplug_changes", "count");
    ("sensors.power_refreshes", "count"); ("emergency.trips", "count");
    ("serve.parse_us", "us"); ("serve.session_us_per_epoch", "us");
    ("serve.encode_us_per_epoch", "us"); ("serve.transport_us_per_epoch", "us");
    ("serve.configure_ms", "ms"); ("serve.busy_frac", "frac");
    ("serve.request_p99_ms", "ms");
    ("exd_norm", "ratio"); ("time_norm", "ratio"); ("mu_peak", "mu");
    ("exd_js", "J.s"); ("obs.trace_overhead_frac", "frac");
  ]

let measure workload ~seed ~seconds =
  match workload with
  | "sweep_cold" -> Wsweep.measure ~seed ~seconds
  | "suite_warm" -> Wsuite.measure ~seed ~seconds
  | "serve_closed" -> Wserve.measure ~seed ~seconds
  | "fleet_rack" -> Wfleet.measure ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)

let trace workload ~seed ~seconds =
  match workload with
  | "sweep_cold" -> Wsweep.trace ~seed
  | "suite_warm" -> Wsuite.trace ~seed
  | "serve_closed" -> Wserve.trace ~seed ~seconds:(Float.min seconds 5.0)
  | "fleet_rack" -> Wfleet.trace ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

(* Machines shared with other tenants run the same work at different
   speeds from one second to the next. Throughput therefore comes from
   the fastest quarter of a run's slices (by epochs per second): the
   program's own speed, with interference filtered out. Latency is
   taken over every request of every slice, so a slow request the
   program causes (a GC pause, a select-loop stall, a straggler at the
   rack barrier) always counts, and set-up time is the median of the
   run's set-up samples. Correctness counts every request too. *)
let end_to_end_outcome (m : measured) =
  let rate s = s.work /. s.dur in
  let fastest =
    List.sort (fun a b -> Float.compare (rate b) (rate a)) m.slices
    |> List.filteri (fun i _ -> i < max 1 ((List.length m.slices + 3) / 4))
  in
  let sum f l = List.fold_left (fun acc s -> acc +. f s) 0.0 l in
  let dur = sum (fun s -> s.dur) fastest in
  let fast_requests = List.fold_left (fun acc s -> acc + List.length s.lats) 0 fastest in
  let lat = sorted (List.concat_map (fun s -> s.lats) m.slices) in
  let attempted = Array.length lat in
  let ok = List.fold_left (fun acc s -> acc + s.ok) 0 m.slices in
  let values =
    [
      ("setup_s", p50 (sorted m.setups));
      ("peak_rss_mb", m.rss_mb);
      ("ok_frac", float_of_int ok /. float_of_int attempted);
      ("requests_per_s", float_of_int fast_requests /. dur);
      ("epochs_per_s", sum (fun s -> s.work) fastest /. dur);
      ("request_p50_ms", p50 lat *. 1e3);
      ("request_tail_ms", tail lat *. 1e3);
    ]
  in
  Printf.printf
    "slices: %d (fastest %d, %.3f s); requests: %d (tail = %s); set-up \
     samples: %d\n"
    (List.length m.slices) (List.length fastest) dur attempted
    (if attempted >= 11 then
       Printf.sprintf "p%.2f"
         (100.0 *. float_of_int (tail_index attempted + 1) /. float_of_int attempted)
     else "max")
    (List.length m.setups);
  if attempted <= 8 then
    Printf.printf "latencies ms: %s\n"
      (String.concat " "
         (Array.to_list (Array.map (fun x -> Printf.sprintf "%.1f" (x *. 1e3)) lat)));
  {
    correct = !checks_ok;
    attempted;
    failed = attempted - ok;
    metrics =
      List.map (fun (name, u) -> metric name u (List.assoc name values)) end_to_end;
  }

let per_layer_outcome values =
  {
    correct = !checks_ok;
    attempted = 1;
    failed = (if !checks_ok then 0 else 1);
    metrics =
      List.map
        (fun (name, u) ->
          metric name u (Option.value ~default:0.0 (List.assoc_opt name values)))
        per_layer;
  }

let run ~workload ~seed ~seconds ~traced =
  let o =
    if traced then per_layer_outcome (trace workload ~seed ~seconds)
    else end_to_end_outcome (measure workload ~seed ~seconds)
  in
  List.iter
    (fun m -> Printf.printf "%-30s %14.6g %s\n" m.name m.value m.unit_)
    o.metrics;
  print_endline (result_line o)

let setup workload =
  match workload with
  | "sweep_cold" -> Wsweep.setup ()
  | "suite_warm" -> with_cwd (warm_dir ()) Wsuite.setup
  | "fleet_rack" -> with_cwd (warm_dir ()) Wfleet.setup
  | w -> invalid_arg ("no set-up probe for " ^ w)

let prepare () =
  mkdir_p (warm_dir ());
  with_cwd (warm_dir ()) Yukta.Designs.prepare

let write_goldens () =
  Wsuite.write_golden ();
  Wfleet.write_golden ();
  Wsweep.write_golden ()

let usage () =
  prerr_endline
    "usage: e2e.exe run --workload W --seed N --seconds S --trace 0|1 [--work DIR]\n\
    \       e2e.exe (prepare | golden | selftest) [--work DIR]\n\
    \       e2e.exe setup W [--work DIR]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let opt name =
    let rec find = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let int_opt name =
    match Option.map int_of_string_opt (opt name) with
    | Some (Some v) -> v
    | _ -> usage ()
  in
  let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  Option.iter (fun d -> work_dir := d) (opt "--work");
  work_dir := absolute !work_dir;
  golden_dir := absolute (Filename.concat (Filename.dirname !work_dir) "golden");
  Wserve.cli := absolute !Wserve.cli;
  at_exit (fun () ->
      let mine = Printf.sprintf "run-%d-" (Unix.getpid ()) in
      if Sys.file_exists !work_dir then
        Array.iter
          (fun f ->
            if String.starts_with ~prefix:mine f then
              rm_rf (Filename.concat !work_dir f))
          (Sys.readdir !work_dir));
  match args with
  | "run" :: _ ->
    let workload = Option.value ~default:"" (opt "--workload") in
    if not (List.mem workload workloads) then usage ();
    let seed = int_opt "--seed" and seconds = int_opt "--seconds" in
    let traced = int_opt "--trace" = 1 in
    run ~workload ~seed ~seconds:(float_of_int seconds) ~traced
  | "setup" :: w :: _ -> setup w
  | "prepare" :: _ -> prepare ()
  | "golden" :: _ -> write_goldens ()
  | "selftest" :: _ -> if not (Selftest.run ()) then exit 1
  | _ -> usage ()
