(** Memoized controller designs.

    Training and mu-synthesis are the expensive offline part of the flow
    (once per platform in the paper). Defaults are computed on first use
    and retained; everything is also cached on disk under
    [.yukta_cache/], content-addressed by the training records and layer
    specification. Set the environment variable [YUKTA_NO_CACHE] to
    disable the disk cache (e.g. when editing the design pipeline
    itself).

    Lookups are single-flight ({!Parallel.Flight}) and safe from any
    domain: the first domain to miss a key loads or synthesizes it with
    no lock held, domains asking for the same key meanwhile wait for
    that value (or exception), and distinct keys — two sweep points'
    variant designs — synthesize concurrently. Settled variants are not
    retained in memory (a later lookup reloads them from the disk
    cache); a failed lookup is retried by the next one. Parallel drivers
    should still call {!prepare} — or build the stacks they are about to
    run — {e once, before fan-out}, so workers find the defaults settled
    instead of waiting on whichever worker needed one first; see the
    concurrency notes in [DESIGN.md]. *)

val cache_dir : string
(** The on-disk cache directory, [.yukta_cache]. Every entry is a
    [<digest>.bin] Marshal blob, with a one-line [<digest>.meta]
    sidecar naming what it holds (what [yukta_cli cache] lists). *)

val get_records : unit -> Training.records
(** The default training records (computed once per process). *)

val hw : unit -> Design.synthesis
(** The default Table II hardware-layer design. *)

val sw : unit -> Design.synthesis
(** The default Table III software-layer design. *)

val design_hw_with : Design.spec -> Design.synthesis
(** Synthesize a hardware-layer variant (sensitivity studies) against the
    default records. *)

val design_sw_with : Design.spec -> Design.synthesis

val lqg_hw : unit -> Controller.t
(** The decoupled-LQG baselines (Section VI-B). *)

val lqg_sw : unit -> Controller.t
val lqg_monolithic : unit -> Controller.t

val rack_gain : unit -> float
(** The rack layer's budget-tracking feedback gain: the LQR of a scalar
    integrator plant (total fleet power vs. the cap trim), solved by the
    same DARE machinery as the LQG baselines and cached in
    [.yukta_cache/] (keyed by plant weights only — no training records).
    Used by [Fleet.Rack]'s feedback policy. *)

val prepare : unit -> unit
(** Force every default memo (records, both SSV designs, all three LQG
    baselines, the rack gain) — the force-before-fan-out step of parallel
    drivers. Idempotent; later calls are cheap. *)
