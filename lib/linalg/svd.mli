(** Singular value decomposition via the one-sided Jacobi method.

    [decompose a] for an [m]x[n] matrix returns [(u, s, v)] such that
    [a = u * diag s * v^T], with [u] of size [m]x[k], [v] of size [n]x[k],
    [k = min m n], orthonormal columns, and [s] sorted descending. The
    one-sided Jacobi method is slower than bidiagonalization approaches but
    is simple, robust, and computes small singular values to high relative
    accuracy — which matters for the rank decisions in controller synthesis. *)

type sweep_outcome = { sweeps : int; converged : bool }
(** Result of the Jacobi sweep driver: how many sweeps ran, and whether
    column orthogonality was reached before the sweep cap. (This
    replaces an older convention of returning a negated sweep count on
    non-convergence.) *)

val jacobi_sweeps : ?max_sweeps:int -> ?v:Mat.t -> Mat.t -> sweep_outcome
(** Low-level sweep driver, exposed for tests and diagnostics. The
    argument is the TRANSPOSE of the working matrix (row [j] is working
    column [j], contiguous); it is orthogonalized in place by threshold-
    ordered Jacobi rotations, accumulated into [v] when given. Most
    callers want {!decompose} or {!singular_values}. *)

val decompose : ?max_sweeps:int -> Mat.t -> Mat.t * Vec.t * Mat.t
(** [max_sweeps] (default 60) caps the Jacobi sweep count. A run that
    hits the cap before column orthogonality is no longer silent: it
    bumps the [svd.unconverged] counter and emits an [svd.unconverged]
    debug record when the {!Obs.Collector} is enabled, then returns the
    best iterate. The parameter exists for diagnostics and tests; the
    default converges for any conditioning encountered in practice. *)

val singular_values : ?max_sweeps:int -> Mat.t -> Vec.t
(** Singular values only, descending. [max_sweeps] as in {!decompose}. *)

val norm2 : Mat.t -> float
(** Spectral norm (largest singular value). Zero matrix yields [0.]. *)

val norm2_complex : Cmat.t -> float
(** Spectral norm of a complex matrix, by one-sided Jacobi run directly
    in complex arithmetic (planar re/im columns) — no doubled real
    embedding. *)

val norm2_planar :
  m:int -> n:int -> norms:float array -> float array -> float array -> float
(** [norm2_planar ~m ~n ~norms re im] is the spectral norm of the complex
    matrix whose [n] columns of length [m] are stored contiguously in
    planar form (entry [(i, q)] at index [q * m + i] of [re] and [im]) —
    the working layout of {!norm2_complex}, which copies into it (with
    the transpose when a matrix has more columns than rows) and calls
    this. Both arrays are overwritten; [norms] is scratch of length
    [>= n]. Lets frequency-response grids reuse one buffer per point. *)

val rank : ?tol:float -> Mat.t -> int
(** Numerical rank: singular values above [tol * max_sv * max(m,n)]
    (default machine-epsilon based, as in LAPACK). *)

val pinv : ?tol:float -> Mat.t -> Mat.t
(** Moore-Penrose pseudo-inverse. *)

val cond : Mat.t -> float
(** 2-norm condition number; [infinity] if rank deficient. *)
