type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let mean a =
  if Array.length a = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let stddev a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let m = mean a in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
    sqrt (ss /. float_of_int (n - 1))

let is_sorted a =
  let n = Array.length a in
  let rec scan i = i >= n || (a.(i - 1) <= a.(i) && scan (i + 1)) in
  scan 1

(* Defensive: an unsorted input used to silently interpolate garbage.  The
   O(n) sortedness check is free on the common already-sorted path (e.g.
   from [summarize]); only unsorted inputs pay for a private sorted copy. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let sorted =
    if is_sorted a then a
    else begin
      let copy = Array.copy a in
      Array.sort Float.compare copy;
      copy
    end
  in
  if q <= 0.0 then sorted.(0)
  else if q >= 1.0 then sorted.(n - 1)
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let summarize a =
  if Array.length a = 0 then invalid_arg "Stats.summarize: empty";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  {
    count = Array.length a;
    mean = mean a;
    stddev = stddev a;
    min = sorted.(0);
    max = sorted.(Array.length sorted - 1);
    p50 = percentile sorted 0.5;
    p95 = percentile sorted 0.95;
    p99 = percentile sorted 0.99;
  }

module Online = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = t.mean
  let stddev t = if t.count < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.count - 1))
  let min t = t.min
  let max t = t.max

  (* Chan et al.'s parallel Welford combination: merging per-core
     accumulators gives the same mean/variance as one accumulator fed
     every sample. *)
  let merge a b =
    if a.count = 0 then { count = b.count; mean = b.mean; m2 = b.m2; min = b.min; max = b.max }
    else if b.count = 0 then { count = a.count; mean = a.mean; m2 = a.m2; min = a.min; max = a.max }
    else begin
      let count = a.count + b.count in
      let fa = float_of_int a.count and fb = float_of_int b.count in
      let delta = b.mean -. a.mean in
      {
        count;
        mean = a.mean +. (delta *. fb /. float_of_int count);
        m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int count);
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
      }
    end
end
