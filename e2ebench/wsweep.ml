(* sweep_cold: a fixed [Sweep.Run] plan on a 2-domain pool, each run
   starting from a fresh, empty design cache. The only workload where
   synthesis (sysid, control, linalg) does the work, and where the
   [Designs] memo lock serializes the pool.

   The plan is the bound-0.5 half of [Sweep.Space.smoke]: guardbands
   {0.4, 1.0} x arrangements {sw>hw, hw-only} — four points, three
   syntheses (two hardware-layer, one software-layer) and three design
   cache hits. The seed picks the probe app, which changes the probe
   E x D but not the synthesis work; each probe app has its own
   committed frontier block. Both probe apps step the same number of
   epochs, so the seed leaves the amount of work unchanged. *)

open Common

let space =
  Sweep.Space.make ~deltas:[| 0.4; 1.0 |] ~weights:[| 1.0 |] ~bounds:[| 0.5 |]
    ~epochs:[| 0.5 |]
    ~arrangements:[| Sweep.Space.Sw_over_hw; Sweep.Space.Hw_only |]
    ()

let probe_apps = [| "blackscholes"; "swaptions" |]

let variant seed = probe_apps.(abs seed mod Array.length probe_apps)

let plan ?(space = space) app =
  Sweep.Run.plan ~space ~seed:42 ~points:0
    ~probe:{ Sweep.Run.smoke_probe with Sweep.Run.app }
    ()

(* Design lookups a plan makes: one hardware design per point plus a
   software design per two-layer point. *)
let lookups p =
  List.fold_left
    (fun acc id ->
      let pt = Sweep.Space.point p.Sweep.Run.space id in
      acc + if pt.Sweep.Space.arrangement = Sweep.Space.Hw_only then 1 else 2)
    0
    (Sweep.Run.shard_ids p { Sweep.Run.index = 1; shards = 1 })

(* One sweep in a fresh directory. A point's latency is the time from
   submitting the plan until its record lands in the checkpoint (the
   reduce appends and flushes each result as it streams back), observed
   by a polling thread. *)
let rep pool p =
  let dir = fresh_dir "sweep" in
  let file =
    Sweep.Checkpoint.path ~dir:".yukta_sweep"
      ~fingerprint:(Sweep.Run.fingerprint p) ~shard:1 ~shards:1
  in
  let outcome, lat =
    with_cwd dir @@ fun () ->
    let seen = ref [] and stop = Atomic.make false in
    let t0 = now () in
    let count_lines () =
      match read_file file with
      | s -> max 0 (List.length (String.split_on_char '\n' s) - 2)
      | exception Sys_error _ -> 0
    in
    let poller =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            let n = count_lines () in
            let t = now () -. t0 in
            for _ = List.length !seen + 1 to n do
              seen := t :: !seen
            done;
            Thread.delay 0.005
          done)
        ()
    in
    let o = Sweep.Run.run ~pool p in
    let t_end = now () -. t0 in
    Atomic.set stop true;
    Thread.join poller;
    let lat =
      List.init o.Sweep.Run.evaluated (fun i ->
          match List.nth_opt (List.rev !seen) i with Some t -> t | None -> t_end)
    in
    (o, lat)
  in
  rm_rf dir;
  (outcome, lat)

(* The committed block: the frontier plus the probe epochs a sweep
   steps (counted by a collector-on pass when the golden is written). *)
let golden_doc p o ~epochs =
  Obs.Json.Obj
    [
      ("frontier", Sweep.Run.frontier_block p o.Sweep.Run.frontier);
      ("epochs", Obs.Json.Int epochs);
    ]

let mu_peak o =
  List.fold_left
    (fun acc (e : Sweep.Frontier.entry) -> Float.min acc e.Sweep.Frontier.mu)
    Float.infinity
    (Sweep.Frontier.members o.Sweep.Run.frontier)

let golden_name app = "sweep_" ^ app

let golden_epochs app = golden_int (golden_name app) "epochs"

(* Training records plus pool start, in a fresh directory. *)
let setup () =
  ignore (Yukta.Designs.get_records ());
  Parallel.Pool.with_pool ~jobs:2 ignore

(* The default designs [Sweep.Run.run] forces before fan-out are
   in-process memos: load them from the warm cache once, so every timed
   sweep synthesizes exactly the plan's own designs. *)
let warm_up () = with_cwd (warm_dir ()) Yukta.Designs.prepare

(* One sweep per run (25 to 30 s on 2 cores): [seconds] only has to be
   no longer than that. *)
let measure ~seed ~seconds:_ =
  let app = variant seed in
  let p = plan app in
  let probe = setup_probe ~cwd:(fun () -> fresh_dir "setup") "sweep_cold" in
  warm_up ();
  Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  let epochs = golden_epochs app in
  let setups, slices =
    window ~seconds:0.0 ~setup:probe (fun () ->
        let t0 = now () in
        let o, lats = rep pool p in
        let dur = now () -. t0 in
        let ok = golden (golden_name app) (golden_doc p o ~epochs) in
        {
          dur;
          work = float_of_int epochs;
          lats;
          ok = (if ok then List.length lats else 0);
        })
  in
  { setups; slices; rss_mb = peak_rss_mb () }

let trace ~seed =
  let app = variant seed in
  let p = plan app in
  warm_up ();
  Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  let cpu0 = process_cpu () and t0 = now () in
  let o, _ = rep pool p in
  let untraced_s = now () -. t0 in
  let busy = (process_cpu () -. cpu0) /. untraced_s in
  ignore (golden (golden_name app) (golden_doc p o ~epochs:(golden_epochs app)));
  let t0 = now () in
  let (o, _), lines = collect (fun () -> rep pool p) in
  let traced_s = now () -. t0 in
  let epochs = int_of_float (counter "runtime.epochs") in
  ignore (golden (golden_name app) (golden_doc p o ~epochs));
  let span = span_totals lines in
  let total name = fst (span name) and calls name = snd (span name) in
  let ms name = total name *. 1e3 in
  [
    ("control.hinf_ms", ms "hinf.synthesize");
    ("control.hinf_gamma_steps", counter "hinf.gamma_steps");
    ("control.dk_dstep_ms", ms "dk.d_step");
    ("control.dk_iterations", counter "dk.iterations");
    ("sysid.identify_ms", ms "design.identify");
    ("linalg.svd_calls", counter "svd.calls");
    ("linalg.svd_sweeps", counter "svd.sweeps");
    ("linalg.svd_unconverged", counter "svd.unconverged");
    ("linalg.eig_calls", counter "eig.calls");
    ("linalg.eig_qr_iterations", counter "eig.qr_iterations");
    ( "yukta.designs_wait_s",
      total "sweep.synthesize" -. total "design.synthesize"
      -. total "design.identify" );
    ( "yukta.design_cache_hit_frac",
      1.0 -. (float_of_int (calls "design.synthesize") /. float_of_int (lookups p)) );
    ("parallel.busy_cores", busy);
    ("sweep.probe_ms", ms "sweep.point");
    ("mu_peak", mu_peak o);
    ("obs.trace_overhead_frac", (traced_s /. untraced_s) -. 1.0);
  ]
  @ board_counters ()

let write_golden () =
  warm_up ();
  Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  Array.iter
    (fun app ->
      let p = plan app in
      let (o, _), _ = collect ~keep:false (fun () -> rep pool p) in
      let epochs = int_of_float (counter "runtime.epochs") in
      regenerate := true;
      ignore (golden (golden_name app) (golden_doc p o ~epochs));
      regenerate := false)
    probe_apps
