(* xoshiro256** with the four 64-bit state words held as eight immediate
   32-bit halves.  The generator sits on the simulator's per-operation hot
   path (latency-noise draws, workload generators), where the previous
   [int64]-field representation boxed every intermediate — ~23 minor words
   per draw without flambda.  The two multiplications in the output
   function are by the constants 5 and 9, so one step needs only shifts,
   xors and a carry-propagating add per multiply: plain [int] arithmetic
   on (lo, hi) halves reproduces the 64-bit stream bit for bit with zero
   allocation (verified against an int64 reference in test_util).

   Seeding (SplitMix64) keeps the straightforward [Int64] arithmetic: it
   needs a general 64x64 multiply and runs once per generator.

   [rl]/[rh] hold the halves of the last raw output — per-generator
   scratch, not globals, so generators stay safe to use from concurrent
   domains (one generator per domain, as before). *)

type t = {
  mutable s0l : int;
  mutable s0h : int;
  mutable s1l : int;
  mutable s1h : int;
  mutable s2l : int;
  mutable s2h : int;
  mutable s3l : int;
  mutable s3h : int;
  mutable rl : int;
  mutable rh : int;
}

let mask = 0xFFFFFFFF
let default_seed = 0x9E3779B97F4A7C15L

(* SplitMix64 step: the recommended seeder for xoshiro generators. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let lo64 v = Int64.to_int (Int64.logand v 0xFFFFFFFFL)
let hi64 v = Int64.to_int (Int64.shift_right_logical v 32)

let create ?(seed = default_seed) () =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  {
    s0l = lo64 s0;
    s0h = hi64 s0;
    s1l = lo64 s1;
    s1h = hi64 s1;
    s2l = lo64 s2;
    s2h = hi64 s2;
    s3l = lo64 s3;
    s3h = hi64 s3;
    rl = 0;
    rh = 0;
  }

let copy t = { t with s0l = t.s0l }

(* One xoshiro256** step: result = rotl(s1 * 5, 7) * 9, then the linear
   state transition.  *5 = (x << 2) + x and *9 = (x << 3) + x mod 2^64. *)
let[@inline] step t =
  let s1l = t.s1l and s1h = t.s1h in
  (* m = s1 * 5 *)
  let shl_l = (s1l lsl 2) land mask and shl_h = ((s1h lsl 2) lor (s1l lsr 30)) land mask in
  let sum_l = shl_l + s1l in
  let m_l = sum_l land mask in
  let m_h = (shl_h + s1h + (sum_l lsr 32)) land mask in
  (* r = rotl(m, 7) *)
  let r_l = ((m_l lsl 7) land mask) lor (m_h lsr 25) in
  let r_h = ((m_h lsl 7) land mask) lor (m_l lsr 25) in
  (* result = r * 9 *)
  let shl_l = (r_l lsl 3) land mask and shl_h = ((r_h lsl 3) lor (r_l lsr 29)) land mask in
  let sum_l = shl_l + r_l in
  t.rl <- sum_l land mask;
  t.rh <- (shl_h + r_h + (sum_l lsr 32)) land mask;
  (* state transition *)
  let tl = (s1l lsl 17) land mask and th = ((s1h lsl 17) lor (s1l lsr 15)) land mask in
  let s2l = t.s2l lxor t.s0l and s2h = t.s2h lxor t.s0h in
  let s3l = t.s3l lxor s1l and s3h = t.s3h lxor s1h in
  t.s1l <- s1l lxor s2l;
  t.s1h <- s1h lxor s2h;
  t.s0l <- t.s0l lxor s3l;
  t.s0h <- t.s0h lxor s3h;
  t.s2l <- s2l lxor tl;
  t.s2h <- s2h lxor th;
  (* s3 = rotl(s3, 45): (x << 45) | (x >>> 19). *)
  t.s3l <- ((s3h lsl 13) land mask) lor (s3l lsr 19);
  t.s3h <- ((s3l lsl 13) land mask) lor (s3h lsr 19)

let next_int64 t =
  step t;
  Int64.logor (Int64.shift_left (Int64.of_int t.rh) 32) (Int64.of_int t.rl)

let split t = create ~seed:(next_int64 t) ()

let int t bound =
  assert (bound > 0);
  step t;
  (* The low 62 bits of the raw output, kept non-negative — equivalent to
     the previous [Int64.to_int result land max_int]. *)
  let nonneg = ((t.rh land 0x3FFFFFFF) lsl 32) lor t.rl in
  nonneg mod bound

let int_in t lo hi = lo + int t (hi - lo + 1)

(* Top 53 bits of the raw output (result >>> 11). *)
let[@inline] bits53 t =
  step t;
  (t.rh lsl 21) lor (t.rl lsr 11)

let[@inline] float t bound = float_of_int (bits53 t) /. 9007199254740992.0 *. bound

let bool t =
  step t;
  t.rl land 1 <> 0

(* [float t 1.0 < p] with the multiply by 1.0 elided (exact) — keeps the
   comparison in registers instead of boxing the returned float. *)
let chance t p = float_of_int (bits53 t) /. 9007199254740992.0 < p

let[@inline] exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

(* The float stays unboxed inside this module, so a caller that wants
   whole nanoseconds gets them without a boxed float per draw. *)
let exponential_int t mean = int_of_float (exponential t mean)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
