(* Deterministic session workload generator for the service layer.

   This module produces *traffic*, not execution: the service layer asks
   it when the next client session opens, what each session's requests
   are and when the session hangs up.  Everything is derived from one
   seed through split [Rng] streams — the arrival process from one
   stream, each session's behaviour from its own sub-stream — so the
   generated history is identical no matter how bench cells are
   parallelised across [--jobs].

   Shapes modelled, per the service issue:
   - skewed multi-tenant traffic: each tenant has a weight, its own Zipf
     skew and read/cross-shard mix;
   - diurnal load ramps: arrivals are a thinned Poisson process whose
     intensity ramps 1x -> 3x -> 1x across the run window;
   - hot-key storms: timed windows during which a seeded storm key
     hijacks a slice of all ops;
   - connection churn: sessions are finite and a fraction reconnect as
     fresh sessions when they complete. *)

module Rng = Ordo_util.Rng
module Zipf = Ordo_util.Zipf

type op =
  | Get of int
  | Put of int
  | Transfer of int * int  (* cross-partition: the two keys live on different shards *)

type tenant = {
  weight : int;  (* share of sessions, relative to the other tenants *)
  theta : float;  (* Zipf skew of the tenant's key popularity *)
  read_pct : int;
  cross_pct : int;  (* cross-shard transfers, as a % of the write ops *)
}

type storm = {
  at : int;
  storm_dur : int;
  boost_pct : int;  (* % of all ops the storm key hijacks while active *)
}

type profile = {
  sessions : int;  (* arrival cap: sessions opened by the arrival process *)
  mean_think_ns : int;
  mean_requests : int;  (* mean session length, in requests *)
  reconnect_pct : int;  (* churn: % of completed sessions that reconnect *)
  diurnal : bool;  (* ramp arrival intensity 1x -> 3x -> 1x over the window *)
  storms : storm list;
  tenants : tenant list;
  keys : int;
  partitions : int;  (* shard count: [Transfer] partners differ mod this *)
  dur_ns : int;  (* arrival window; sessions may drain past it *)
}

let default =
  {
    sessions = 400;
    mean_think_ns = 400;
    mean_requests = 8;
    reconnect_pct = 20;
    diurnal = true;
    storms = [ { at = 2_000; storm_dur = 4_000; boost_pct = 35 } ];
    tenants =
      [
        { weight = 6; theta = 0.9; read_pct = 80; cross_pct = 10 };
        { weight = 3; theta = 0.5; read_pct = 40; cross_pct = 30 };
        { weight = 1; theta = 0.0; read_pct = 10; cross_pct = 50 };
      ];
    keys = 64;
    partitions = 2;
    dur_ns = 20_000;
  }

type session = {
  sid : int;
  tenant : int;
  mutable left : int;  (* requests remaining before the session completes *)
  srng : Rng.t;  (* all of the session's dice: think gaps, keys, op mix *)
}

type stats = {
  mutable opened : int;
  mutable closed : int;
  mutable reconnects : int;
  mutable storm_ops : int;
}

type t = {
  profile : profile;
  tenants : tenant array;
  arr_rng : Rng.t;  (* arrival process only *)
  sess_rng : Rng.t;  (* parent stream the per-session streams split from *)
  zipfs : Zipf.t array;  (* per tenant *)
  cum_weights : int array;
  total_weight : int;
  storm_keys : int array;
  (* Exponential means, computed once: a float computed at a call to
     [Rng.exponential_int] would be boxed on every draw. *)
  arr_mean : float;  (* candidate gap: the nominal gap over 1.5 *)
  req_mean : float;
  think_mean : float;
  mutable arrivals : int;  (* sessions the arrival process has granted *)
  mutable next_sid : int;
  stats : stats;
}

let create ~seed profile =
  if profile.sessions < 1 then invalid_arg "Sessions.create: need sessions >= 1";
  if profile.keys < 1 then invalid_arg "Sessions.create: need keys >= 1";
  if profile.partitions < 1 then invalid_arg "Sessions.create: need partitions >= 1";
  if profile.tenants = [] then invalid_arg "Sessions.create: need at least one tenant";
  if profile.dur_ns < 1 then invalid_arg "Sessions.create: need dur_ns >= 1";
  let root = Rng.create ~seed:(Int64.of_int ((seed * 2_147_483_629) + 11)) () in
  let arr_rng = Rng.split root in
  let sess_rng = Rng.split root in
  let storm_rng = Rng.split root in
  let tenants = Array.of_list profile.tenants in
  let cum = Array.make (Array.length tenants) 0 in
  let total =
    Array.fold_left
      (fun acc t ->
        if t.weight < 1 then invalid_arg "Sessions.create: tenant weight < 1";
        acc + t.weight)
      0 tenants
  in
  let _ =
    Array.fold_left
      (fun (i, acc) t ->
        let acc = acc + t.weight in
        cum.(i) <- acc;
        (i + 1, acc))
      (0, 0) tenants
  in
  {
    profile;
    tenants;
    arr_rng;
    sess_rng;
    zipfs =
      Array.map (fun t -> Zipf.create ~n:profile.keys ~theta:t.theta) tenants;
    cum_weights = cum;
    total_weight = total;
    storm_keys =
      Array.of_list
        (List.map (fun _ -> Rng.int storm_rng profile.keys) profile.storms);
    arr_mean = float_of_int profile.dur_ns /. float_of_int profile.sessions /. 1.5;
    req_mean = float_of_int profile.mean_requests;
    think_mean = float_of_int profile.mean_think_ns;
    arrivals = 0;
    next_sid = 0;
    stats = { opened = 0; closed = 0; reconnects = 0; storm_ops = 0 };
  }

(* Arrival intensity at cluster time [t], in per-mille of the peak rate.
   Diurnal profile: triangular ramp from 500 at the window edges to 1500
   at its midpoint (a 3x swing, mean 1000 = the nominal rate). *)
let intensity t ~now =
  if not t.profile.diurnal then 1000
  else
    let d = t.profile.dur_ns in
    let x = if now < 0 then 0 else if now > d then d else now in
    let dist = abs ((2 * x) - d) in
    (* 0 at midpoint, d at edges *)
    1500 - (dist * 1000 / d)

(* Thinned Poisson arrivals: candidates fire at 1.5x the nominal rate and
   are accepted with probability intensity/1500, so the accepted process
   has the diurnal intensity and a long-run mean of [sessions] arrivals
   over [dur_ns].  Returns the gap to the next accepted arrival, or
   [None] once the cap is reached or the window has closed. *)
let rec draw_arrival t ~now acc =
  let acc = acc + 1 + Rng.exponential_int t.arr_rng t.arr_mean in
  if now + acc > t.profile.dur_ns then None
  else if Rng.int t.arr_rng 1500 < intensity t ~now:(now + acc) then begin
    t.arrivals <- t.arrivals + 1;
    Some acc
  end
  else draw_arrival t ~now acc

let next_arrival t ~now = if t.arrivals >= t.profile.sessions then None else draw_arrival t ~now 0

(* The first tenant whose cumulative weight exceeds [dice].  This and
   [draw_arrival] are top-level functions: a local one would allocate a
   closure per call. *)
let rec tenant_at t dice i =
  if i >= Array.length t.cum_weights - 1 || dice < t.cum_weights.(i) then i
  else tenant_at t dice (i + 1)

let pick_tenant t rng = tenant_at t (Rng.int rng t.total_weight) 0

let connect t =
  let srng = Rng.split t.sess_rng in
  let tenant = pick_tenant t srng in
  let left = max 1 (Rng.exponential_int srng t.req_mean) in
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  t.stats.opened <- t.stats.opened + 1;
  { sid; tenant; left; srng }

let think_gap t s =
  1 + Rng.exponential_int s.srng t.think_mean

let storm_key t ~now rng =
  let rec go i = function
    | [] -> None
    | st :: rest ->
      if now >= st.at && now < st.at + st.storm_dur && Rng.int rng 100 < st.boost_pct
      then Some t.storm_keys.(i)
      else go (i + 1) rest
  in
  go 0 t.profile.storms

(* Cross-partition partner for [a]: a key on a different shard, drawn
   from the tenant's own popularity distribution when one shows up in a
   few tries, else the neighbouring shard's copy of [a]. *)
let partner t s a =
  let p = t.profile.partitions in
  let zipf = t.zipfs.(s.tenant) in
  let rec pick tries =
    if tries = 0 then
      let b = a + 1 + (Rng.int s.srng (max 1 (p - 1))) in
      if b < t.profile.keys then b else (a + 1) mod t.profile.keys
    else
      let b = Zipf.sample zipf s.srng in
      if b mod p <> a mod p then b else pick (tries - 1)
  in
  pick 16

let op t s ~now =
  if s.left <= 0 then invalid_arg "Sessions.op: session already complete";
  s.left <- s.left - 1;
  let tn = t.tenants.(s.tenant) in
  let key =
    match storm_key t ~now s.srng with
    | Some k ->
      t.stats.storm_ops <- t.stats.storm_ops + 1;
      k
    | None -> Zipf.sample t.zipfs.(s.tenant) s.srng
  in
  if Rng.int s.srng 100 < tn.read_pct then Get key
  else if t.profile.partitions > 1 && Rng.int s.srng 100 < tn.cross_pct then
    Transfer (key, partner t s key)
  else Put key

let finished s = s.left <= 0

(* Close the session; [true] means the client churns back in (the caller
   opens a replacement with {!connect}). *)
let complete t s =
  t.stats.closed <- t.stats.closed + 1;
  let again = Rng.int s.srng 100 < t.profile.reconnect_pct in
  if again then t.stats.reconnects <- t.stats.reconnects + 1;
  again

let stats t = t.stats
