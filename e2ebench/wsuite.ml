(* suite_warm: the Figure 9 suite (coord, decoupled, hw-ssv and yukta
   over the 14 evaluation apps), run serially with designs loaded from
   the benchmark's warm cache. Board physics and the controller/layer
   step do nearly all the work: no synthesis, no pool, no protocol. The
   seed permutes the order of the 56 (scheme, app) cells; every order
   must reproduce the committed suite block. *)

open Common

let schemes =
  List.map Yukta.Schemes.find_exn [ "coord"; "decoupled"; "hw-ssv"; "yukta" ]

let yukta = List.nth schemes 3

let entries () = Yukta.Experiment.suite_entries ()

let cells () =
  List.concat_map (fun e -> List.map (fun s -> (e, s)) schemes) (entries ())

(* Rows normalized to the first scheme, as [Experiment.run_suite] does,
   from per-cell results gathered in any order. *)
let rows_of lookup =
  List.map
    (fun (name, _) ->
      let raw = List.map (fun s -> (s, lookup name s)) schemes in
      let base = (snd (List.hd raw)).Yukta.Experiment.metrics in
      let ratio f =
        List.map
          (fun (s, (r : Yukta.Experiment.app_result)) ->
            (s, f r.Yukta.Experiment.metrics /. f base))
          raw
      in
      {
        Yukta.Experiment.name;
        exd = ratio (fun m -> m.Board.Xu3.energy_delay);
        time = ratio (fun m -> m.Board.Xu3.execution_time);
        raw;
      })
    (entries ())

let yukta_average rows value =
  Yukta.Experiment.average (List.map (fun r -> List.assq yukta (value r)) rows)

let golden_doc rows ~epochs =
  Obs.Json.Obj
    [ ("fig9", Yukta.Experiment.suite_json rows); ("epochs", Obs.Json.Int epochs) ]

let table () = Hashtbl.create 64

(* One suite in [order]; returns the per-cell latencies and the rows. *)
let rep order =
  let results = table () in
  let lat =
    List.map
      (fun ((name, _) as entry, s) ->
        let t0 = now () in
        let r = Yukta.Experiment.run_app s entry in
        let dt = now () -. t0 in
        Hashtbl.replace results (name, s.Yukta.Schemes.key) r;
        dt)
      order
  in
  (lat, rows_of (fun name s -> Hashtbl.find results (name, s.Yukta.Schemes.key)))

let setup () = Yukta.Designs.prepare ()

let measure ~seed ~seconds =
  let probe = setup_probe ~cwd:warm_dir "suite_warm" in
  with_cwd (warm_dir ()) @@ fun () ->
  setup ();
  let order = shuffle ~seed (cells ()) in
  ignore (rep order);
  (* Epochs per suite, as the traced loop counted them for the golden. *)
  let epochs = golden_int "suite" "epochs" in
  let setups, slices =
    window ~seconds ~setup:probe (fun () ->
        let t0 = now () in
        let lats, rows = rep order in
        let dur = now () -. t0 in
        let ok = golden "suite" (golden_doc rows ~epochs) in
        {
          dur;
          work = float_of_int epochs;
          lats;
          ok = (if ok then List.length lats else 0);
        })
  in
  { setups; slices; rss_mb = peak_rss_mb () }

(* The traced loop over the same cells: per-cell [Steploop] runs must
   reproduce the committed block bit for bit. *)
let traced_rep tm order =
  let results = table () in
  List.iter
    (fun ((name, workloads), s) ->
      let metrics, completed =
        Steploop.run tm (Yukta.Schemes.stack s) workloads
      in
      Hashtbl.replace results (name, s.Yukta.Schemes.key)
        {
          Yukta.Experiment.app = name;
          scheme = s;
          metrics;
          completed;
          health = Obs.Health.create ();
        })
    order;
  rows_of (fun name s -> Hashtbl.find results (name, s.Yukta.Schemes.key))

let trace ~seed =
  with_cwd (warm_dir ()) @@ fun () ->
  setup ();
  let order = shuffle ~seed (cells ()) in
  ignore (rep order);
  Gc.full_major ();
  let w0 = Gc.minor_words () and t0 = now () in
  let _, rows = rep order in
  let untraced_s = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let tm = Steploop.times () in
  Gc.full_major ();
  let t0 = now () in
  let traced_rows = traced_rep tm order in
  let traced_s = now () -. t0 in
  let epochs = tm.Steploop.epochs in
  ignore (golden "suite" (golden_doc rows ~epochs));
  ignore (golden "suite" (golden_doc traced_rows ~epochs));
  let _ = collect ~keep:false (fun () -> rep order) in
  Steploop.metrics tm
  @ board_counters ()
  @ [
      ("gc.minor_words_per_epoch", words /. float_of_int epochs);
      ("exd_norm", yukta_average rows (fun r -> r.Yukta.Experiment.exd));
      ("time_norm", yukta_average rows (fun r -> r.Yukta.Experiment.time));
      ("obs.trace_overhead_frac", (traced_s /. untraced_s) -. 1.0);
    ]

(* Record the committed block: the plain path's rows, with the epoch
   count from the traced loop (which must agree with them). *)
let write_golden () =
  with_cwd (warm_dir ()) @@ fun () ->
  setup ();
  let tm = Steploop.times () in
  let traced_rows = traced_rep tm (cells ()) in
  let _, rows = rep (cells ()) in
  let epochs = tm.Steploop.epochs in
  regenerate := true;
  ignore (golden "suite" (golden_doc rows ~epochs));
  regenerate := false;
  ignore (golden "suite" (golden_doc traced_rows ~epochs))
