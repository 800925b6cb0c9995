(* Memoized controller designs.

   Training-data collection and mu-synthesis are the expensive, offline
   part of the flow (they happen once per platform in the paper). The
   default records and designs are computed on first use, retained and
   shared by every experiment, and additionally cached on disk
   (content-addressed by the training records and the layer
   specification) so repeated benchmark runs skip re-synthesis. Set
   YUKTA_NO_CACHE=1 to disable the disk cache.

   Domain safety: every lookup goes through a single-flight table
   ({!Parallel.Flight}), one per value type. Its lock guards only the
   in-flight entries: the first domain to miss a key loads or
   synthesizes it outside the lock, domains asking for the same key
   meanwhile wait for that value (or exception), and distinct keys
   synthesize concurrently. A settled variant design is dropped from
   its table — later lookups go through the disk cache — so a sweep
   does not pin every design it visits; only the defaults (records,
   default designs, LQG baselines, rack gain) are retained, under fixed
   names. Parallel drivers should still force the defaults once before
   fan-out ([prepare]) so workers find them settled instead of waiting
   on the first worker to need one. DESIGN.md section 9b states the
   rule. *)

let records_flight : Training.records Parallel.Flight.t =
  Parallel.Flight.create ()

let designs : Design.synthesis Parallel.Flight.t = Parallel.Flight.create ()

let controllers : Controller.t Parallel.Flight.t = Parallel.Flight.create ()

let gains : float Parallel.Flight.t = Parallel.Flight.create ()

(* A retained default, under a fixed name (no key to compute). *)
let default flight name f = Parallel.Flight.run ~retain:true flight name f

let get_records () = default records_flight "records" Training.collect

(* ------------------------------------------------------------------ *)
(* Disk cache                                                          *)
(* ------------------------------------------------------------------ *)

let cache_dir = ".yukta_cache"

let cache_enabled () = Sys.getenv_opt "YUKTA_NO_CACHE" = None

let digest_of_key key = Digest.to_hex (Digest.string key)

let cache_path key = Filename.concat cache_dir (digest_of_key key ^ ".bin")

(* A truncated or foreign blob is a miss (the key is recomputed and
   rewritten); anything else — out of memory, say — propagates. *)
let cache_load : type a. string -> a option =
 fun key ->
  if not (cache_enabled ()) then None
  else begin
    let path = cache_path key in
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match Marshal.from_channel ic with
          | v -> Some (v : a)
          | exception (End_of_file | Failure _) -> None)
    end
    else None
  end

(* Alongside every [.bin] sits a one-line [.meta] sidecar naming what
   the digest holds — the cache keys themselves embed marshalled
   fingerprints, so the sidecar is what `yukta_cli cache` lists.

   Writes are write-to-temp + rename: single-flight lookups keep two
   domains of one process from writing the same key, but nothing
   serializes *processes* (two sweep shards cache-missing the same
   design concurrently), and a reader must never observe a half-written
   blob. A unique temp name per
   process in the same directory plus [Sys.rename] (atomic on POSIX)
   makes the visible file always complete; colliding renames of the
   same key are idempotent because both writers marshal the same value.
   DESIGN.md section 9 states the rule. *)
let write_atomically path write =
  let tmp =
    Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
  in
  let oc = open_out_bin tmp in
  (match write oc with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  match Sys.rename tmp path with
  | () -> ()
  | exception Sys_error _ ->
    (* A concurrent writer won the rename on a platform where it is not
       a silent replace; its bytes are equivalent, so just clean up. *)
    (try Sys.remove tmp with Sys_error _ -> ())

let cache_store ?label key v =
  if cache_enabled () then begin
    (* Racing [mkdir] from two processes: losing the race is success. *)
    if not (Sys.file_exists cache_dir) then (
      try Sys.mkdir cache_dir 0o755
      with Sys_error _ when Sys.file_exists cache_dir -> ());
    write_atomically (cache_path key) (fun oc -> Marshal.to_channel oc v []);
    match label with
    | None -> ()
    | Some label ->
      write_atomically
        (Filename.concat cache_dir (digest_of_key key ^ ".meta"))
        (fun oc -> output_string oc (label ^ "\n"))
  end

(* The cache key covers everything that determines a design: the training
   records, the layer spec, and a schema version to bump when the design
   pipeline itself changes. *)
let schema_version = 1

let spec_fingerprint (spec : Design.spec) =
  Marshal.to_string
    ( spec.Design.layer,
      Array.map
        (fun (i : Signal.input) ->
          ( i.Signal.name,
            i.Signal.channel.Control.Quantize.minimum,
            i.Signal.channel.Control.Quantize.maximum,
            i.Signal.channel.Control.Quantize.step,
            i.Signal.weight ))
        spec.Design.inputs,
      Array.map
        (fun (o : Signal.output) ->
          (o.Signal.name, o.Signal.lo, o.Signal.hi, o.Signal.bound_fraction,
           o.Signal.integral))
        spec.Design.outputs,
      Array.length spec.Design.externals,
      spec.Design.uncertainty,
      spec.Design.period )
    []

let records_fingerprint r =
  Marshal.to_string
    ( Array.length r.Training.hw_u,
      (if Array.length r.Training.hw_u > 0 then r.Training.hw_u.(7) else [||]),
      (if Array.length r.Training.hw_y > 0 then r.Training.hw_y.(7) else [||]),
      (if Array.length r.Training.sw_y > 0 then r.Training.sw_y.(7) else [||]) )
    []

let design_key kind spec records =
  Printf.sprintf "design-v%d-%s-%s-%s" schema_version kind
    (spec_fingerprint spec) (records_fingerprint records)

(* The single-flight path every lookup takes: a disk-cache load, or the
   computation and a store, run once per key by the first domain to
   miss it. *)
let cached flight ~label key compute =
  Parallel.Flight.run flight key (fun () ->
      match cache_load key with
      | Some v -> v
      | None ->
        let v = compute () in
        cache_store ~label key v;
        v)

let design_with kind spec =
  let r = get_records () in
  let u, y =
    match kind with
    | `Hw -> (r.Training.hw_u, r.Training.hw_y)
    | `Sw -> (r.Training.sw_u, r.Training.sw_y)
  in
  let kind = match kind with `Hw -> "hw" | `Sw -> "sw" in
  cached designs
    ~label:(Printf.sprintf "ssv %s design (%s)" kind spec.Design.layer)
    (design_key kind spec r)
    (fun () -> Design.design spec ~u ~y)

let design_hw_with spec = design_with `Hw spec

let design_sw_with spec = design_with `Sw spec

let hw () = default designs "hw" (fun () -> design_hw_with (Hw_layer.spec ()))

let sw () = default designs "sw" (fun () -> design_sw_with (Sw_layer.spec ()))

let lqg kind compute () =
  default controllers kind (fun () ->
      let r = get_records () in
      cached controllers
        ~label:(Printf.sprintf "lqg %s controller" kind)
        (Printf.sprintf "lqg-v%d-%s-%s" schema_version kind
           (records_fingerprint r))
        (fun () -> compute r))

let lqg_hw = lqg "hw" Lqg_layer.hw_controller

let lqg_sw = lqg "sw" Lqg_layer.sw_controller

let lqg_monolithic = lqg "mono" Lqg_layer.monolithic_controller

(* The rack layer's feedback design: the budget-tracking loop is a
   scalar integrator plant (total fleet power responds within one rack
   epoch to a cap change), so its LQR reduces to one DARE-derived gain.
   Cached like the layer designs — the key is the plant/weights alone,
   no training records needed. *)
let rack_q = 1.0

let rack_r = 4.0

let rack_gain () =
  default gains "rack" (fun () ->
      cached gains ~label:"rack feedback gain"
        (Printf.sprintf "rack-v%d-q%.17g-r%.17g" schema_version rack_q rack_r)
        (fun () ->
          let m x = Linalg.Mat.of_lists [ [ x ] ] in
          let a = m 1.0 and b = m 1.0 in
          let x = Control.Dare.solve ~a ~b ~q:(m rack_q) ~r:(m rack_r) in
          Linalg.Mat.get (Control.Dare.gain ~a ~b ~r:(m rack_r) x) 0 0))

let prepare () =
  ignore (get_records ());
  ignore (hw ());
  ignore (sw ());
  ignore (lqg_hw ());
  ignore (lqg_sw ());
  ignore (lqg_monolithic ());
  ignore (rack_gain ())
