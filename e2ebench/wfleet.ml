(* fleet_rack: [Fleet.Sim.run] repeated over a 256-board rack (four
   times the 64-board default) under the coord scheme and the feedback
   rack policy, on a 2-domain pool. Here [parallel] is a per-rack-epoch
   barrier over many small board tasks, and the heuristic scheme
   bypasses the SSV controller. The seed picks one of four fleet seeds
   (per-board workloads and sensor noise derive from it); each has its
   committed fleet block. The four were chosen for equal work: 19 rack
   epochs and 10,433 to 10,475 board-epochs each. *)

open Common

let boards = 256

let fleet_seeds = [| 5; 6; 7; 24 |]

let variant seed = fleet_seeds.(abs seed mod Array.length fleet_seeds)

let config fleet_seed =
  Fleet.Sim.config ~boards ~policy:Fleet.Rack.Feedback ~scheme:"coord"
    ~seed:fleet_seed ()

let golden_name fleet_seed = Printf.sprintf "fleet_seed%d" fleet_seed

let check_block fleet_seed r = golden (golden_name fleet_seed) (Fleet.Sim.json r)

(* Warm design load (the rack feedback gain and the board stack) plus
   pool start. *)
let setup () =
  ignore (Yukta.Designs.rack_gain ());
  ignore (Yukta.Schemes.stack (Yukta.Schemes.find_exn "coord"));
  Parallel.Pool.with_pool ~jobs:2 ignore

let measure ~seed ~seconds =
  let fs = variant seed in
  let cfg = config fs in
  let probe = setup_probe ~cwd:warm_dir "fleet_rack" in
  with_cwd (warm_dir ()) @@ fun () ->
  setup ();
  Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  ignore (Fleet.Sim.run ~pool cfg);
  let setups, slices =
    window ~seconds ~setup:probe (fun () ->
        let t0 = now () in
        let r = Fleet.Sim.run ~pool cfg in
        let dur = now () -. t0 in
        {
          dur;
          work = float_of_int r.Fleet.Sim.board_epochs;
          lats = [ dur ];
          ok = (if check_block fs r then 1 else 0);
        })
  in
  { setups; slices; rss_mb = peak_rss_mb () }

let trace ~seed =
  let fs = variant seed in
  let cfg = config fs in
  with_cwd (warm_dir ()) @@ fun () ->
  setup ();
  ignore (Fleet.Sim.run cfg);
  Gc.full_major ();
  let w0 = Gc.minor_words () and t0 = now () in
  let serial = Fleet.Sim.run cfg in
  let serial_s = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  ignore (check_block fs serial);
  Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  ignore (Fleet.Sim.run ~pool cfg);
  Gc.full_major ();
  let cpu0 = process_cpu () and t0 = now () in
  let r = Fleet.Sim.run ~pool cfg in
  let pool_s = now () -. t0 in
  let busy = (process_cpu () -. cpu0) /. pool_s in
  ignore (check_block fs r);
  let t0 = now () in
  let traced, _ = collect ~keep:false (fun () -> Fleet.Sim.run ~pool cfg) in
  let traced_s = now () -. t0 in
  ignore (check_block fs traced);
  [
    ("parallel.busy_cores", busy);
    ("parallel.efficiency", serial_s /. (2.0 *. pool_s));
    ("gc.minor_words_per_epoch", words /. float_of_int serial.Fleet.Sim.board_epochs);
    ("exd_js", r.Fleet.Sim.exd);
    ("obs.trace_overhead_frac", (traced_s /. pool_s) -. 1.0);
  ]
  @ board_counters ()

let write_golden () =
  with_cwd (warm_dir ()) @@ fun () ->
  Array.iter
    (fun fs ->
      regenerate := true;
      ignore (check_block fs (Fleet.Sim.run (config fs)));
      regenerate := false)
    fleet_seeds
