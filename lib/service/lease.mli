(** Lease timestamp discipline for primary → backup failover.

    Pure integer math over Ordo timestamps, phrased against the composed
    cluster boundary: two stamps more than ORDO_BOUNDARY apart are
    certainly ordered, so a backup that waits out [until + boundary] and
    stamps above {!promotion_floor} can never contradict anything the
    old primary served inside its lease.  The service fails over as
    soon as that expiry is certain; per-key write stamps clear the
    promotion floor through {!Ordo_cluster.Kv.Key.write_stamp}. *)

type t = { holder : int; term : int; until : int }

val grant : holder:int -> term:int -> now:int -> term_ns:int -> t
val renew : t -> now:int -> term_ns:int -> t
(** Monotone: a renewal never shortens the lease. *)

val valid : t -> now:int -> bool

val certainly_expired : t -> boundary:int -> now:int -> bool
(** True once expiry is certain on {e every} clock in the cluster. *)

val promotion_floor : until:int -> boundary:int -> now:int -> int
(** First stamp a promoted primary may use: certainly above anything the
    old primary could have issued inside its lease. *)

val degraded_read_ts : wts:int -> rts:int -> until:int -> clock:int -> int option
(** Highest timestamp a suspicion-pending backup may serve a read at:
    at or above the installed version ([wts]) but never beyond the read
    lease already granted ([rts]) nor the leadership lease horizon
    ([until]) — degraded reads never extend leases, and staying at or
    below [until] keeps them under any promoted peer's
    {!promotion_floor} even when replication lag left this backup's
    [rts] ahead of the new primary's.  [None] when no such point exists
    and the read must be shed. *)
