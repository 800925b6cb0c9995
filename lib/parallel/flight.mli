(** Single-flight memo: concurrent callers that ask for the same key
    share one computation.

    The first caller to miss a key becomes its leader and runs the
    computation {e outside} the table's lock; callers that ask for the
    key meanwhile block on a condition and receive the leader's value,
    or re-raise the leader's exception with its backtrace. Distinct keys
    compute concurrently. The lock guards the in-flight table only, so
    it is never held while a computation runs and computations may
    themselves look up other keys, in this table or another.

    When a key settles its entry is dropped — the next lookup computes
    afresh — unless it was run with [~retain:true] and succeeded, in
    which case the value stays for the life of the table. A failure is
    never retained: the next lookup retries. Domain-safe. *)

type 'a t

val create : unit -> 'a t

val run : ?retain:bool -> 'a t -> string -> (unit -> 'a) -> 'a
(** [run t key f] is [f ()], computed at most once across the callers
    that overlap on [key] (and once per table for a retained success).
    [retain] defaults to [false]. *)

val waiting : 'a t -> string -> int
(** Callers currently blocked on [key]'s in-flight computation — a
    diagnostic, e.g. for tests that need a second caller parked before
    the leader finishes. *)
