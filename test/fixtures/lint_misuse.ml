(* Seeded Ordo-API misuse for the lint tests and the CI negative check.
   Never built by dune (the fixtures directory has no stanza and is
   skipped by the lint walker); only parsed by ordo-lint, which must
   report at least one diagnostic from every rule under --all-rules.

   Each sin below is the syntactic shape the paper warns against:
   inventing an ordering inside ORDO_BOUNDARY, treating an uncertain
   comparison as equality, and bypassing the Timestamp abstraction. *)

module Clock = struct
  module Host = struct
    let get_time () = 0
  end
end

module Tsc = struct
  let ticks () = 0
end

module R = struct
  let get_time () = 0
end

let boundary = 100

let cmp_time t1 t2 =
  if t1 > t2 + boundary then 1 else if t2 > t1 + boundary then -1 else 0

(* [raw-clock-read]: reading the hardware clock directly instead of an
   Ordo_core.Timestamp source. *)
let commit_ts = Clock.Host.get_time ()
let cycle_stamp = Tsc.ticks ()

(* [raw-get-time]: a substrate taking a stamp from the raw runtime. *)
let stored_ts = R.get_time ()

(* ... or waiting on it directly instead of through [T.after]. *)
let later_ts = R.await_clock (fun now_ts -> now_ts > stored_ts)

(* [poly-compare]: raw comparisons of timestamps — inside the
   uncertainty window these invent an ordering that does not exist. *)
let newer = commit_ts > stored_ts
let winner = max commit_ts cycle_stamp
let same_epoch a_ts b_ts = compare a_ts b_ts

(* [cmp-zero-equality]: zero means *uncertain*, never "equal". *)
let stamps_equal t1 t2 = cmp_time t1 t2 = 0

(* [poly-compare], service-flavored: deciding a lease is still live by
   comparing its deadline to the local stamp with a raw [<=] — the exact
   split-brain shape the service layer guards with Lease.valid. *)
let lease_live now_ts lease_deadline = now_ts <= lease_deadline

(* [atomic-confinement]: shared state bypassing the Runtime_intf.S
   surface — invisible to the simulator's cost model and to Mcheck. *)
let hidden_counter = Atomic.make 0
let bump () = Atomic.incr hidden_counter
let peek () = Stdlib.Atomic.get hidden_counter

(* Correct idioms, for contrast — none of these may fire:
   sentinels are exempt, and an uncertainty *check* binds its result
   under a name that says so. *)
let unset t_ts = t_ts = 0
let infinite t_ts = t_ts = max_int
let still_uncertain t1 t2 = cmp_time t1 t2 = 0
