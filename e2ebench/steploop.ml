(* The traced stepping loop: drives one stack over one board the way
   [Yukta.Stack.step_epoch] does — [Board.Xu3.run_epoch], then every
   [Yukta.Layer.step] in declared order — timing the board and each
   layer from outside. Health monitoring is pure observation in the
   stack's own loop and is left out here, so the run is bit-identical
   to [Yukta.Stack.run]. *)

type times = {
  mutable board_s : float;
  mutable ssv_s : float;   (* Controlled (SSV/LQG) layer steps. *)
  mutable heur_s : float;  (* Heuristic layer steps. *)
  mutable ssv_steps : int;
  mutable heur_steps : int;
  mutable epochs : int;
}

let times () =
  { board_s = 0.0; ssv_s = 0.0; heur_s = 0.0; ssv_steps = 0; heur_steps = 0; epochs = 0 }

(* [Stack.run]'s default horizon and epoch. *)
let max_time = 3000.0
let epoch = Yukta.Stack.default_epoch

let run tm stack workloads =
  let s = Yukta.Stack.stepper ~epoch stack workloads in
  let board = Yukta.Stack.board s in
  let layers = Yukta.Stack.layers stack in
  while (not (Board.Xu3.finished board)) && Board.Xu3.time board < max_time do
    let t0 = Common.now () in
    let o = Board.Xu3.run_epoch board epoch in
    tm.board_s <- tm.board_s +. (Common.now () -. t0);
    List.iter
      (fun l ->
        let t0 = Common.now () in
        Yukta.Layer.step l board o;
        let dt = Common.now () -. t0 in
        if Yukta.Layer.is_controlled l then begin
          tm.ssv_s <- tm.ssv_s +. dt;
          tm.ssv_steps <- tm.ssv_steps + 1
        end
        else begin
          tm.heur_s <- tm.heur_s +. dt;
          tm.heur_steps <- tm.heur_steps + 1
        end)
      layers;
    tm.epochs <- tm.epochs + 1
  done;
  (Board.Xu3.metrics board, Board.Xu3.finished board)

let per_us total n = if n = 0 then 0.0 else total /. float_of_int n *. 1e6

(* The per-layer stepping metrics of a traced loop. *)
let metrics tm =
  [
    ("board.epoch_us", per_us tm.board_s tm.epochs);
    ("yukta.ssv_step_us", per_us tm.ssv_s tm.ssv_steps);
    ("yukta.heur_step_us", per_us tm.heur_s tm.heur_steps);
  ]
