(** Frequency response of a real state-space quadruple,
    [G(z) = C (zI - A)^{-1} B + D], evaluated in planar (split re/im)
    float arrays.

    The H-infinity norm grid of {!Control.Ss.hinf_norm} and the mu sweep
    of the D-K D-step evaluate [G] at hundreds of shifts [z] per call. A
    kernel value owns every buffer one evaluation needs — the shifted
    matrix, the right-hand side, the response — allocated once by
    {!create} and overwritten by each evaluation, so a grid of any length
    allocates nothing per point. The response is written straight into
    the column layout {!Svd.norm2_planar} orthogonalizes.

    Results are bit-identical to the boxed formulation
    [Cmat.add (Cmat.mul (of_real c) (Cmat.solve (zI - of_real a)
    (of_real b))) (of_real d)]: the same float operations in the same
    order per entry (stdlib [Complex.div] branches, [Float.hypot] pivot
    search and singularity tolerance, [0.0 -. a] off-diagonal entries,
    the zero-coefficient skip of the product with [C]). *)

type t

val create : a:Mat.t -> b:Mat.t -> c:Mat.t -> d:Mat.t -> t
(** Scratch for one system ([A] n x n, [B] n x m, [C] p x n, [D] p x m,
    n >= 1). Not domain-safe: one value per caller.
    @raise Invalid_argument on inconsistent dimensions. *)

val response : t -> Complex.t -> Cmat.t
(** [response t z] is [G(z)] as a fresh complex matrix.
    @raise Lu.Singular when [zI - A] is numerically singular. *)

val norm2 : t -> Complex.t -> float
(** [norm2 t z] is the spectral norm of [G(z)], identical to
    [Svd.norm2_complex (response t z)] without building the matrix.
    @raise Lu.Singular when [zI - A] is numerically singular. *)
