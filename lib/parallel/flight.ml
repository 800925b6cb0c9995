type 'a entry = {
  mutable outcome : ('a, exn * Printexc.raw_backtrace) result option;
  mutable waiters : int;
}

type 'a t = {
  lock : Mutex.t;
  settled : Condition.t;
  table : (string, 'a entry) Hashtbl.t;
}

let create () =
  { lock = Mutex.create (); settled = Condition.create (); table = Hashtbl.create 16 }

let unwrap = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let run ?(retain = false) t key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some e ->
    (* In flight, or a retained value: wait for (or read) its outcome.
       The entry record outlives its table slot, so a waiter woken after
       the leader dropped the key still finds the outcome here. *)
    e.waiters <- e.waiters + 1;
    while Option.is_none e.outcome do
      Condition.wait t.settled t.lock
    done;
    e.waiters <- e.waiters - 1;
    let outcome = Option.get e.outcome in
    Mutex.unlock t.lock;
    unwrap outcome
  | None ->
    let e = { outcome = None; waiters = 0 } in
    Hashtbl.replace t.table key e;
    Mutex.unlock t.lock;
    let outcome =
      match f () with
      | v -> Ok v
      | exception exn -> Error (exn, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.lock;
    e.outcome <- Some outcome;
    (match outcome with
    | Ok _ when retain -> ()
    | Ok _ | Error _ -> Hashtbl.remove t.table key);
    Condition.broadcast t.settled;
    Mutex.unlock t.lock;
    unwrap outcome

let waiting t key =
  Mutex.lock t.lock;
  let n =
    match Hashtbl.find_opt t.table key with Some e -> e.waiters | None -> 0
  in
  Mutex.unlock t.lock;
  n
