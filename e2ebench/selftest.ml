(* The benchmark's self-test: every workload at its smallest size,
   twice. Deterministic outputs and counters must repeat exactly, the
   traced suite loop must match [Stack.run], and the in-process serve
   replay must match the frames served over the socket. *)

open Common

let same label a b = check label (a = b)

let twice f =
  let a = f () in
  let b = f () in
  (a, b)

let suite () =
  with_cwd (warm_dir ()) @@ fun () ->
  Wsuite.setup ();
  let cells =
    List.filteri (fun i _ -> i < 2) (Wsuite.entries ())
    |> List.concat_map (fun e -> List.map (fun s -> (e, s)) Wsuite.schemes)
  in
  let pass () =
    let (), _ =
      collect ~keep:false (fun () ->
          List.iter
            (fun ((name, w), s) ->
              let r = Yukta.Schemes.run s w in
              let tm = Steploop.times () in
              let m, completed = Steploop.run tm (Yukta.Schemes.stack s) w in
              ignore
                (same
                   (Printf.sprintf "traced loop = Stack.run (%s, %s)" name
                      s.Yukta.Schemes.key)
                   (m, completed)
                   (r.Yukta.Stack.metrics, r.Yukta.Stack.completed)))
            cells)
    in
    board_counters ()
  in
  let a, b = twice pass in
  ignore (same "suite counters repeat" a b)

let sweep () =
  Wsweep.warm_up ();
  let space =
    Sweep.Space.make ~deltas:[| 1.0 |] ~weights:[| 1.0 |] ~bounds:[| 0.5 |]
      ~epochs:[| 0.5 |] ~arrangements:[| Sweep.Space.Hw_only |] ()
  in
  let p = Wsweep.plan ~space "blackscholes" in
  Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  let pass () =
    let (o, _), _ = collect ~keep:false (fun () -> Wsweep.rep pool p) in
    ( Obs.Json.to_string (Sweep.Run.frontier_block p o.Sweep.Run.frontier),
      List.map counter
        [ "svd.calls"; "svd.sweeps"; "svd.unconverged"; "eig.calls";
          "eig.qr_iterations"; "dk.iterations"; "hinf.gamma_steps";
          "runtime.epochs" ] )
  in
  let a, b = twice pass in
  ignore (same "sweep frontier and counters repeat" a b)

let serve () =
  let cycle = [ "blackscholes"; "x264" ] in
  let pass () =
    let t =
      Wserve.with_server (fun srv ->
          Wserve.drive ~port:srv.Wserve.port ~cycle ~next:(ref 0) ~seconds:0.3
            ~keep:(fun _ -> true))
    in
    let sessions = t.Wserve.sessions in
    ignore
      (with_cwd (warm_dir ()) @@ fun () ->
       let r = Wserve.replay_sessions sessions in
       check "in-process replay = socket frames"
         (List.for_all2
            (fun s d -> Wserve.digest_frames s = d)
            sessions r.Wserve.digests));
    List.iter
      (fun s ->
        ignore
          (check "served frames = batch Stack.run"
             (with_cwd (warm_dir ()) (fun () -> Wserve.batch_matches s))))
      sessions;
    List.map
      (fun (s : Wserve.session) ->
        (s.Wserve.app, s.Wserve.finished, Wserve.digest_frames s))
      sessions
  in
  let a, b = twice pass in
  (* The window decides how far each session got: a session that ran to
     the end in both passes must have served identical frames. *)
  let both = ref 0 in
  List.iteri
    (fun i (app, fin, d) ->
      match List.nth_opt b i with
      | Some (app', fin', d') when fin && fin' ->
        incr both;
        ignore (same ("session " ^ app ^ " serves the same frames") (app, d) (app', d'))
      | _ -> ())
    a;
  ignore (check "served sessions ran to the end" (!both > 0))

let fleet () =
  with_cwd (warm_dir ()) @@ fun () ->
  let cfg =
    Fleet.Sim.config ~boards:16 ~policy:Fleet.Rack.Feedback ~scheme:"coord"
      ~max_time:60.0 ()
  in
  let serial = Obs.Json.to_string (Fleet.Sim.json (Fleet.Sim.run cfg)) in
  let pass () =
    Parallel.Pool.with_pool ~jobs:2 (fun pool ->
        Obs.Json.to_string (Fleet.Sim.json (Fleet.Sim.run ~pool cfg)))
  in
  let a, b = twice pass in
  ignore (same "fleet block repeats" a b);
  ignore (same "fleet block: pool = serial" a serial)

let run () =
  List.iter
    (fun (name, f) ->
      let before = !checks_ok in
      checks_ok := true;
      f ();
      Printf.printf "selftest %-6s %s\n%!" name (if !checks_ok then "ok" else "FAILED");
      checks_ok := before && !checks_ok)
    [ ("suite", suite); ("fleet", fleet); ("serve", serve); ("sweep", sweep) ];
  !checks_ok
