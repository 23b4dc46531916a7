(* Quick-and-correct Zipf via the Gray et al. method used by YCSB/DBx1000:
   O(n) precomputation of the harmonic normalizer, O(1) per sample. *)

type t = { n : int; theta : float; alpha : float; zetan : float; eta : float }

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

let create ~n ~theta =
  if n < 1 then invalid_arg "Zipf.create: n must be >= 1";
  if theta < 0.0 || theta >= 1.0 then invalid_arg "Zipf.create: theta must be in [0, 1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta)) /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta }

let sample t rng =
  if t.n = 1 then 0
  else
    (* [Rng.float rng 1.0], built here: a float returned across modules
       would be boxed, two words per sample. *)
    let u = float_of_int (Rng.bits53 rng) /. 9007199254740992.0 in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. Float.pow 0.5 t.theta then 1
    else
      let k =
        int_of_float (float_of_int t.n *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha)
      in
      if k >= t.n then t.n - 1 else if k < 0 then 0 else k

let n t = t.n
