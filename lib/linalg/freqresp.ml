(* G(z) = C (zI - A)^{-1} B + D over split re/im float arrays.

   One evaluation replays, entry for entry, the float operations of the
   boxed chain [Cmat.add (Cmat.mul (of_real c) (Cmat.solve (zI - of_real
   a) (of_real b))) (of_real d)], so results are bit-identical (the
   full argument is DESIGN.md section 10b). Where the code departs from
   the boxed loops' shape, it is by a rule that cannot change a value:

   - [Complex.div]'s branch, ratio and denominator depend on the
     divisor alone, so they are computed once per pivot or diagonal
     entry and reused for each quotient;
   - back substitution runs in place on the right-hand side, and each
     entry still sees its subtractions in ascending column order —
     all the boxed [j]-outer loop order fixes;
   - literal [0.0 -. a], [z.im -. 0.0], [0.0 *. x] and [+. 0.0] stand
     for the zero imaginary parts of [of_real] entries: they keep signed
     zeros, NaN and infinity exactly as the boxed operations do. *)

type t = {
  n : int;
  ni : int; (* Inputs: columns of B and D. *)
  p : int; (* Outputs: rows of C and D. *)
  a : float array;
  b : float array;
  c : float array;
  d : float array;
  mre : float array; (* zI - A, row-major n x n; triangularized in place. *)
  mim : float array;
  xre : float array; (* B, then (zI - A)^-1 B: row-major n x ni. *)
  xim : float array;
  gre : float array; (* G(z) in the norm's layout: (i, j) at i*rs + j*cs. *)
  gim : float array;
  rs : int;
  cs : int;
  norms : float array;
}

let create ~a ~b ~c ~d =
  let n = a.Mat.rows in
  let ni = b.Mat.cols and p = c.Mat.rows in
  if a.Mat.cols <> n || b.Mat.rows <> n || c.Mat.cols <> n
     || d.Mat.rows <> p || d.Mat.cols <> ni
  then invalid_arg "Freqresp.create: dimension mismatch";
  let rs, cs = if p >= ni then (1, p) else (ni, 1) in
  {
    n;
    ni;
    p;
    a = a.Mat.data;
    b = b.Mat.data;
    c = c.Mat.data;
    d = d.Mat.data;
    mre = Array.make (n * n) 0.0;
    mim = Array.make (n * n) 0.0;
    xre = Array.make (n * ni) 0.0;
    xim = Array.make (n * ni) 0.0;
    gre = Array.make (p * ni) 0.0;
    gim = Array.make (p * ni) 0.0;
    rs;
    cs;
    norms = Array.make (min p ni) 0.0;
  }

(* Swap rows [r1] and [r2] of a row-major planar matrix. *)
let swap_rows re im cols r1 r2 =
  let a = r1 * cols and b = r2 * cols in
  for j = 0 to cols - 1 do
    let x = re.(a + j) and y = im.(a + j) in
    re.(a + j) <- re.(b + j);
    im.(a + j) <- im.(b + j);
    re.(b + j) <- x;
    im.(b + j) <- y
  done

let eval t (z : Complex.t) =
  let n = t.n and ni = t.ni in
  let mre = t.mre and mim = t.mim and xre = t.xre and xim = t.xim in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = (i * n) + j in
      let x = Array.unsafe_get t.a k in
      if i = j then begin
        Array.unsafe_set mre k (z.re -. x);
        Array.unsafe_set mim k (z.im -. 0.0)
      end
      else begin
        Array.unsafe_set mre k (0.0 -. x);
        Array.unsafe_set mim k 0.0
      end
    done
  done;
  Array.blit t.b 0 xre 0 (n * ni);
  Array.fill xim 0 (n * ni) 0.0;
  let amax = ref 0.0 in
  for k = 0 to (n * n) - 1 do
    amax :=
      Float.max !amax
        (Float.hypot (Array.unsafe_get mre k) (Array.unsafe_get mim k))
  done;
  let tol = 1e-14 *. Float.max 1.0 !amax in
  (* Forward elimination with partial pivoting. *)
  for k = 0 to n - 1 do
    let kb = k * n in
    let pivot_row = ref k
    and best = ref (Float.hypot mre.(kb + k) mim.(kb + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.hypot mre.((i * n) + k) mim.((i * n) + k) in
      if v > !best then begin
        pivot_row := i;
        best := v
      end
    done;
    if !best <= tol then raise Lu.Singular;
    let pr = !pivot_row in
    if pr <> k then begin
      swap_rows mre mim n k pr;
      swap_rows xre xim ni k pr
    end;
    let yr = mre.(kb + k) and yi = mim.(kb + k) in
    let wide = Float.abs yr >= Float.abs yi in
    let r = if wide then yi /. yr else yr /. yi in
    let den = if wide then yr +. (r *. yi) else yi +. (r *. yr) in
    let kx = k * ni in
    for i = k + 1 to n - 1 do
      let ib = i * n in
      let xr = mre.(ib + k) and xi = mim.(ib + k) in
      let fr = if wide then (xr +. (r *. xi)) /. den else ((r *. xr) +. xi) /. den
      and fi = if wide then (xi -. (r *. xr)) /. den else ((r *. xi) -. xr) /. den in
      if fr <> 0.0 || fi <> 0.0 then begin
        for j = k to n - 1 do
          let vr = Array.unsafe_get mre (kb + j)
          and vi = Array.unsafe_get mim (kb + j) in
          Array.unsafe_set mre (ib + j)
            (Array.unsafe_get mre (ib + j) -. ((fr *. vr) -. (fi *. vi)));
          Array.unsafe_set mim (ib + j)
            (Array.unsafe_get mim (ib + j) -. ((fr *. vi) +. (fi *. vr)))
        done;
        let ix = i * ni in
        for j = 0 to ni - 1 do
          let vr = Array.unsafe_get xre (kx + j)
          and vi = Array.unsafe_get xim (kx + j) in
          Array.unsafe_set xre (ix + j)
            (Array.unsafe_get xre (ix + j) -. ((fr *. vr) -. (fi *. vi)));
          Array.unsafe_set xim (ix + j)
            (Array.unsafe_get xim (ix + j) -. ((fr *. vi) +. (fi *. vr)))
        done
      end
    done
  done;
  (* Back substitution, in place: row i of x still holds the reduced
     right-hand side when it is reached. *)
  for i = n - 1 downto 0 do
    let ib = i * n and ix = i * ni in
    for l = i + 1 to n - 1 do
      let vr = mre.(ib + l) and vi = mim.(ib + l) in
      let lx = l * ni in
      for j = 0 to ni - 1 do
        let xr = Array.unsafe_get xre (lx + j)
        and xi = Array.unsafe_get xim (lx + j) in
        Array.unsafe_set xre (ix + j)
          (Array.unsafe_get xre (ix + j) -. ((vr *. xr) -. (vi *. xi)));
        Array.unsafe_set xim (ix + j)
          (Array.unsafe_get xim (ix + j) -. ((vr *. xi) +. (vi *. xr)))
      done
    done;
    let yr = mre.(ib + i) and yi = mim.(ib + i) in
    let wide = Float.abs yr >= Float.abs yi in
    let r = if wide then yi /. yr else yr /. yi in
    let den = if wide then yr +. (r *. yi) else yi +. (r *. yr) in
    for j = 0 to ni - 1 do
      let xr = xre.(ix + j) and xi = xim.(ix + j) in
      if wide then begin
        xre.(ix + j) <- (xr +. (r *. xi)) /. den;
        xim.(ix + j) <- (xi -. (r *. xr)) /. den
      end
      else begin
        xre.(ix + j) <- ((r *. xr) +. xi) /. den;
        xim.(ix + j) <- ((r *. xi) -. xr) /. den
      end
    done
  done;
  (* G = C x + D. *)
  let gre = t.gre and gim = t.gim and rs = t.rs and cs = t.cs in
  Array.fill gre 0 (t.p * ni) 0.0;
  Array.fill gim 0 (t.p * ni) 0.0;
  for i = 0 to t.p - 1 do
    for k = 0 to n - 1 do
      let cik = Array.unsafe_get t.c ((i * n) + k) in
      if cik <> 0.0 then begin
        let kx = k * ni in
        for j = 0 to ni - 1 do
          let xr = Array.unsafe_get xre (kx + j)
          and xi = Array.unsafe_get xim (kx + j) in
          let o = (i * rs) + (j * cs) in
          Array.unsafe_set gre o
            (Array.unsafe_get gre o +. ((cik *. xr) -. (0.0 *. xi)));
          Array.unsafe_set gim o
            (Array.unsafe_get gim o +. ((cik *. xi) +. (0.0 *. xr)))
        done
      end
    done
  done;
  for i = 0 to t.p - 1 do
    for j = 0 to ni - 1 do
      let o = (i * rs) + (j * cs) in
      gre.(o) <- gre.(o) +. t.d.((i * ni) + j);
      gim.(o) <- gim.(o) +. 0.0
    done
  done

let response t z =
  eval t z;
  Cmat.init t.p t.ni (fun i j ->
      let o = (i * t.rs) + (j * t.cs) in
      { Complex.re = t.gre.(o); im = t.gim.(o) })

let norm2 t z =
  eval t z;
  Svd.norm2_planar ~m:(max t.p t.ni) ~n:(min t.p t.ni) ~norms:t.norms t.gre
    t.gim
