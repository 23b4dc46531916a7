(* Lease timestamp discipline for primary -> backup failover.

   Pure integer math over Ordo timestamps; every rule is phrased against
   the composed cluster boundary so the safety argument is the paper's:
   two stamps more than ORDO_BOUNDARY apart are certainly ordered.

   Leadership leases: a primary serves while its lease holds; a backup
   may only promote once the lease has *certainly* expired on every
   clock — [until + boundary] on its own clock — and every stamp the new
   primary issues sits above {!promotion_floor}, so nothing it writes
   can slide under a read the old primary served inside its lease.

   Read leases (Tardis rts): while suspicion is pending a backup may
   serve *degraded* reads, but only at timestamps its replicated [rts]
   already covers — {!degraded_read_ts} never extends a lease, so the
   dead primary cannot have promised a writer anything the degraded
   read contradicts. *)

type t = { holder : int; term : int; until : int }

let grant ~holder ~term ~now ~term_ns = { holder; term; until = now + term_ns }
let renew l ~now ~term_ns = { l with until = Int.max l.until (now + term_ns) }
let valid l ~now = now <= l.until
let certainly_expired l ~boundary ~now = now > l.until + boundary

(* First stamp a promoted primary may use: certainly above anything the
   old primary could have issued inside its lease. *)
let promotion_floor ~until ~boundary ~now = Int.max now (until + boundary + 1)

(* Highest timestamp a degraded (suspicion-pending) backup may serve a
   read of a key at, given its replicated version: at or above the
   installed version ([wts]) but never beyond the read lease the primary
   already granted ([rts]) *and* never beyond the leadership lease
   horizon ([until]).  The [rts] cap protects against a primary that is
   merely slow (its writers stamp above the rts the backup replicated);
   the [until] cap protects against a *promoted* peer: replication lag
   means this backup's rts can run ahead of the new primary's, but every
   post-promotion stamp sits above [promotion_floor > until], so a read
   at or below [until] can never be contradicted.  [None] when the
   replicated state admits no such point (a write newer than every
   granted lease — the backup must shed the read rather than guess). *)
let degraded_read_ts ~wts ~rts ~until ~clock =
  let cap = Int.min rts until in
  if Int.compare cap wts < 0 then None else Some (Int.min cap (Int.max clock wts))
