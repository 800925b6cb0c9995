open Linalg

type domain = Continuous | Discrete of float

type t = {
  a : Mat.t;
  b : Mat.t;
  c : Mat.t;
  d : Mat.t;
  domain : domain;
}

let make ?(domain = Continuous) ~a ~b ~c ~d () =
  let n = a.Mat.rows in
  if a.Mat.cols <> n then invalid_arg "Ss.make: A must be square";
  if b.Mat.rows <> n then invalid_arg "Ss.make: B row count must match A";
  if c.Mat.cols <> n then invalid_arg "Ss.make: C column count must match A";
  if d.Mat.rows <> c.Mat.rows || d.Mat.cols <> b.Mat.cols then
    invalid_arg "Ss.make: D must be outputs x inputs";
  (match domain with
  | Discrete p when p <= 0.0 -> invalid_arg "Ss.make: period must be positive"
  | Discrete _ | Continuous -> ());
  { a; b; c; d; domain }

let order sys = sys.a.Mat.rows

let inputs sys = sys.b.Mat.cols

let outputs sys = sys.c.Mat.rows

let static_gain ?(domain = Continuous) d =
  {
    a = Mat.create 0 0;
    b = Mat.create 0 d.Mat.cols;
    c = Mat.create d.Mat.rows 0;
    d;
    domain;
  }

let gain ?domain n g = static_gain ?domain (Mat.scalar n g)

let integrator ?(period = 1.0) n =
  {
    a = Mat.identity n;
    b = Mat.identity n;
    c = Mat.identity n;
    d = Mat.create n n;
    domain = Discrete period;
  }

let is_stable sys =
  order sys = 0
  ||
  match sys.domain with
  | Continuous -> Eig.is_stable_continuous sys.a
  | Discrete _ -> Eig.is_stable_discrete sys.a

let poles sys = Eig.eigenvalues sys.a

let dcgain sys =
  if order sys = 0 then sys.d
  else
    match sys.domain with
    | Continuous -> Mat.sub sys.d (Mat.mul sys.c (Lu.solve sys.a sys.b))
    | Discrete _ ->
      let ima = Mat.sub (Mat.identity (order sys)) sys.a in
      Mat.add sys.d (Mat.mul sys.c (Lu.solve ima sys.b))

let step sys ~x ~u =
  (match sys.domain with
  | Discrete _ -> ()
  | Continuous -> invalid_arg "Ss.step: continuous system");
  let x_next = Vec.add (Mat.mul_vec sys.a x) (Mat.mul_vec sys.b u) in
  let y = Vec.add (Mat.mul_vec sys.c x) (Mat.mul_vec sys.d u) in
  (x_next, y)

(* Allocation-free [step]: the products land in caller scratch ([sx] of
   dimension [order], [sy] of dimension [outputs]) and are then added
   elementwise — the same two-sum-then-add float ops as [step], so results
   are bit-identical. [x_next] must not alias [x] ([y] is computed from the
   old state after [x_next] is written). *)
let step_into sys ~x ~u ~x_next ~y ~sx ~sy =
  (match sys.domain with
  | Discrete _ -> ()
  | Continuous -> invalid_arg "Ss.step_into: continuous system");
  Mat.mul_vec_into ~dst:x_next sys.a x;
  Mat.mul_vec_into ~dst:sx sys.b u;
  Vec.add_into ~dst:x_next x_next sx;
  Mat.mul_vec_into ~dst:y sys.c x;
  Mat.mul_vec_into ~dst:sy sys.d u;
  Vec.add_into ~dst:y y sy

let simulate sys ?x0 us =
  let x = ref (match x0 with Some v -> v | None -> Vec.create (order sys)) in
  Array.map
    (fun u ->
      let x_next, y = step sys ~x:!x ~u in
      x := x_next;
      y)
    us

let same_domain name s1 s2 =
  match (s1.domain, s2.domain) with
  | Continuous, Continuous -> Continuous
  | Discrete p, Discrete q when Float.abs (p -. q) < 1e-12 -> Discrete p
  | _ ->
    (* Static systems are domain-agnostic. *)
    if order s1 = 0 then s2.domain
    else if order s2 = 0 then s1.domain
    else invalid_arg (name ^ ": mixed time domains")

(* [series g1 g2] = g2 o g1. State [x1; x2]. *)
let series g1 g2 =
  if outputs g1 <> inputs g2 then invalid_arg "Ss.series: dimension mismatch";
  let domain = same_domain "Ss.series" g1 g2 in
  let n1 = order g1 and n2 = order g2 in
  let a =
    Mat.blocks
      [
        [ g1.a; Mat.create n1 n2 ];
        [ Mat.mul g2.b g1.c; g2.a ];
      ]
  in
  let b = Mat.vcat g1.b (Mat.mul g2.b g1.d) in
  let c = Mat.hcat (Mat.mul g2.d g1.c) g2.c in
  let d = Mat.mul g2.d g1.d in
  { a; b; c; d; domain }

let parallel g1 g2 =
  if inputs g1 <> inputs g2 || outputs g1 <> outputs g2 then
    invalid_arg "Ss.parallel: dimension mismatch";
  let domain = same_domain "Ss.parallel" g1 g2 in
  let n1 = order g1 and n2 = order g2 in
  let a =
    Mat.blocks [ [ g1.a; Mat.create n1 n2 ]; [ Mat.create n2 n1; g2.a ] ]
  in
  let b = Mat.vcat g1.b g2.b in
  let c = Mat.hcat g1.c g2.c in
  let d = Mat.add g1.d g2.d in
  { a; b; c; d; domain }

let append g1 g2 =
  let domain = same_domain "Ss.append" g1 g2 in
  let n1 = order g1 and n2 = order g2 in
  let a =
    Mat.blocks [ [ g1.a; Mat.create n1 n2 ]; [ Mat.create n2 n1; g2.a ] ]
  in
  let b =
    Mat.blocks
      [
        [ g1.b; Mat.create n1 (inputs g2) ];
        [ Mat.create n2 (inputs g1); g2.b ];
      ]
  in
  let c =
    Mat.blocks
      [
        [ g1.c; Mat.create (outputs g1) n2 ];
        [ Mat.create (outputs g2) n1; g2.c ];
      ]
  in
  let d =
    Mat.blocks
      [
        [ g1.d; Mat.create (outputs g1) (inputs g2) ];
        [ Mat.create (outputs g2) (inputs g1); g2.d ];
      ]
  in
  { a; b; c; d; domain }

let add_output_disturbance sys =
  let p = outputs sys in
  {
    sys with
    b = Mat.hcat sys.b (Mat.create (order sys) p);
    d = Mat.hcat sys.d (Mat.identity p);
  }

(* Closed loop of plant G and controller K with u = sign*K*y + r:
   well-posedness requires I - sign*Dg*Dk invertible. *)
let feedback ?(sign = -1.0) g k =
  if outputs g <> inputs k || outputs k <> inputs g then
    invalid_arg "Ss.feedback: dimension mismatch";
  let domain = same_domain "Ss.feedback" g k in
  let m = inputs g in
  let e = Mat.sub (Mat.identity m) (Mat.scale sign (Mat.mul k.d g.d)) in
  let einv = Lu.inv e in
  (* u = einv (sign*Dk*Cg x_g + sign*Ck x_k + r) *)
  let u_xg = Mat.mul einv (Mat.scale sign (Mat.mul k.d g.c)) in
  let u_xk = Mat.mul einv (Mat.scale sign k.c) in
  let a =
    Mat.blocks
      [
        [ Mat.add g.a (Mat.mul g.b u_xg); Mat.mul g.b u_xk ];
        [
          Mat.mul k.b (Mat.add g.c (Mat.mul g.d u_xg));
          Mat.add k.a (Mat.mul3 k.b g.d u_xk);
        ];
      ]
  in
  let b = Mat.vcat (Mat.mul g.b einv) (Mat.mul3 k.b g.d einv) in
  let c = Mat.hcat (Mat.add g.c (Mat.mul g.d u_xg)) (Mat.mul g.d u_xk) in
  let d = Mat.mul g.d einv in
  { a; b; c; d; domain }

(* Lower LFT: partition P's inputs as [w; u] and outputs as [z; y] with
   (u, y) matched to K; close u = K y. *)
let lft_lower p k =
  let nu = inputs k and ny = outputs k in
  let m_w = inputs p - ny and p_z = outputs p - nu in
  if m_w < 0 || p_z < 0 then invalid_arg "Ss.lft_lower: partition mismatch";
  let domain = same_domain "Ss.lft_lower" p k in
  let np = order p in
  let b1 = Mat.sub_matrix p.b 0 0 np m_w
  and b2 = Mat.sub_matrix p.b 0 m_w np ny in
  let c1 = Mat.sub_matrix p.c 0 0 p_z np
  and c2 = Mat.sub_matrix p.c p_z 0 nu np in
  let d11 = Mat.sub_matrix p.d 0 0 p_z m_w
  and d12 = Mat.sub_matrix p.d 0 m_w p_z ny
  and d21 = Mat.sub_matrix p.d p_z 0 nu m_w
  and d22 = Mat.sub_matrix p.d p_z m_w nu ny in
  (* u = K y, y = C2 x + D21 w + D22 u; well-posedness: I - Dk D22 inv. *)
  let e = Mat.sub (Mat.identity ny) (Mat.mul k.d d22) in
  let einv = Lu.inv e in
  (* y = (I - D22 Dk)^-1 (C2 x_p + D22 Ck x_k + D21 w) -- derive via u. *)
  (* u = Ck x_k + Dk y; y = C2 x_p + D21 w + D22 u
     => u = Ck x_k + Dk (C2 x_p + D21 w + D22 u)
     => (I - Dk D22) u = Ck x_k + Dk C2 x_p + Dk D21 w *)
  let u_xp = Mat.mul einv (Mat.mul k.d c2) in
  let u_xk = Mat.mul einv k.c in
  let u_w = Mat.mul einv (Mat.mul k.d d21) in
  let y_xp = Mat.add c2 (Mat.mul d22 u_xp) in
  let y_xk = Mat.mul d22 u_xk in
  let y_w = Mat.add d21 (Mat.mul d22 u_w) in
  let a =
    Mat.blocks
      [
        [ Mat.add p.a (Mat.mul b2 u_xp); Mat.mul b2 u_xk ];
        [ Mat.mul k.b y_xp; Mat.add k.a (Mat.mul k.b y_xk) ];
      ]
  in
  let b = Mat.vcat (Mat.add b1 (Mat.mul b2 u_w)) (Mat.mul k.b y_w) in
  let c = Mat.hcat (Mat.add c1 (Mat.mul d12 u_xp)) (Mat.mul d12 u_xk) in
  let d = Mat.add d11 (Mat.mul d12 u_w) in
  { a; b; c; d; domain }

let transform t sys =
  let tinv = Lu.inv t in
  {
    sys with
    a = Mat.mul3 tinv sys.a t;
    b = Mat.mul tinv sys.b;
    c = Mat.mul sys.c t;
  }

(* The shift z at angular frequency w: jw, or e^{jwT} for period T. *)
let shift sys w =
  match sys.domain with
  | Continuous -> { Complex.re = 0.0; im = w }
  | Discrete p -> Complex.exp { Complex.re = 0.0; im = w *. p }

let kernel sys = Freqresp.create ~a:sys.a ~b:sys.b ~c:sys.c ~d:sys.d

let freq_response sys w =
  if order sys = 0 then Cmat.of_real sys.d
  else Freqresp.response (kernel sys) (shift sys w)

let log_grid lo hi points =
  let llo = log lo and lhi = log hi in
  Array.init points (fun i ->
      exp (llo +. ((lhi -. llo) *. Float.of_int i /. Float.of_int (points - 1))))

let hinf_norm ?(points = 200) sys =
  if not (is_stable sys) then infinity
  else if order sys = 0 then Svd.norm2 sys.d
  else begin
    let wmax =
      match sys.domain with
      | Continuous -> 1e4 *. Float.max 1.0 (Mat.norm_inf sys.a)
      | Discrete p -> Float.pi /. p
    in
    let wmin = wmax /. 1e8 in
    (* One kernel, so the ~240 grid evaluations share its scratch. *)
    let fr = kernel sys in
    let eval w = Freqresp.norm2 fr (shift sys w) in
    let grid = log_grid wmin wmax points in
    let best_w = ref grid.(0) and best = ref 0.0 in
    Array.iter
      (fun w ->
        let v = eval w in
        if v > !best then begin
          best := v;
          best_w := w
        end)
      grid;
    (* Include w = 0 (dc) and refine locally around the coarse peak. *)
    let dc = Svd.norm2 (dcgain sys) in
    if dc > !best then best := dc;
    let refine lo hi =
      let sub = log_grid (Float.max wmin lo) (Float.min wmax hi) 40 in
      Array.iter (fun w -> best := Float.max !best (eval w)) sub
    in
    refine (!best_w /. 3.0) (!best_w *. 3.0);
    !best
  end

(* Controllability gramian by the doubling iteration
   P_{k+1} = P_k + A_k P_k A_k^T, A_{k+1} = A_k^2; converges for Schur A. *)
let discrete_gramian a b =
  let n = a.Mat.rows in
  (* Preallocated doubling, same float ops as the allocating form:
     update = (A_k P) A_k^T (left association), P += update, A_k <- A_k^2. *)
  let p = Mat.mul b (Mat.transpose b) in
  let ak = ref (Mat.copy a) in
  let ak_next = ref (Mat.create n n) in
  let akt = Mat.create n n in
  let tmp = Mat.create n n in
  let update = Mat.create n n in
  let continue_ = ref true in
  let iter = ref 0 in
  while !continue_ && !iter < 60 do
    incr iter;
    Mat.transpose_into ~dst:akt !ak;
    Mat.mul_into ~dst:tmp !ak p;
    Mat.mul_into ~dst:update tmp akt;
    Mat.add_into ~dst:p p update;
    Mat.mul_into ~dst:!ak_next !ak !ak;
    let t = !ak in
    ak := !ak_next;
    ak_next := t;
    if Mat.norm_fro update <= 1e-14 *. Float.max 1.0 (Mat.norm_fro p) then
      continue_ := false
  done;
  Mat.symmetrize p

let h2_norm sys =
  match sys.domain with
  | Continuous ->
    invalid_arg "Ss.h2_norm: implemented for discrete systems only"
  | Discrete _ ->
    if not (is_stable sys) then infinity
    else if order sys = 0 then Mat.norm_fro sys.d
    else begin
      let p = discrete_gramian sys.a sys.b in
      let y = Mat.mul3 sys.c p (Mat.transpose sys.c) in
      Float.sqrt
        (Float.max 0.0
           (Mat.trace y +. (Mat.norm_fro sys.d ** 2.0)))
    end

let pp fmt sys =
  let dom =
    match sys.domain with
    | Continuous -> "continuous"
    | Discrete p -> Printf.sprintf "discrete(T=%g)" p
  in
  Format.fprintf fmt
    "@[<v>%s system: %d states, %d inputs, %d outputs@,A =@,%a@,B =@,%a@,C =@,%a@,D =@,%a@]"
    dom (order sys) (inputs sys) (outputs sys) Mat.pp sys.a Mat.pp sys.b
    Mat.pp sys.c Mat.pp sys.d
