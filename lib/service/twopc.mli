(** Cross-group transfers by timestamped two-phase commit, coordinator
    and participant sides, with epoch group commit and the decision
    chase.

    A coordinator locks its key and asks the participant's group to
    prepare; on [Prepared] the commit joins the open epoch (or, with
    [epoch_ns = 0], commit-waits alone), and the epoch close waits out
    the joint proposal once before installing every member.  Decisions
    are retransmitted until acknowledged; the participant dedups by
    txid.  A leader that takes over presume-aborts its undecided
    coordination. *)

open Node

val pump : ctx -> nstate -> unit
(** First transmission of freshly decided transactions, and keep the
    retransmit timer armed while any decision is unacknowledged.
    Idempotent. *)

val flush : ctx -> nstate -> unit
(** {!Replication.flush}, pumping if it released output. *)

val flush_pump : ctx -> nstate -> unit
(** Flush, then pump. *)

val ensure_flush : ctx -> nstate -> unit
(** Flush now ([epoch_ns = 0]), or arm the epoch close timer. *)

val presume_abort_undecided : nstate -> unit
(** Abort every coordinator-side preparation with no decision, in txid
    order, chasing each participant with the abort. *)

val prepare : ctx -> nstate -> rid:int -> int -> int -> unit
(** [prepare c n ~rid a b]: coordinator side of request [rid]'s transfer
    from key [a] (unlocked, this group's) to key [b]: lock [a], log the
    preparation, flush, send [Prepare], and abort if no decision is
    reached within the prepare timeout. *)

val on_prepared : ctx -> nstate -> txid:int -> ver_b:int -> prop:int -> unit
val on_conflict : ctx -> nstate -> txid:int -> unit
val on_decision_ack : ctx -> nstate -> txid:int -> unit

val on_prepare : ctx -> nstate -> txid:int -> key_b:int -> prop:int -> coord:int -> unit
(** Participant side: lock and answer [Prepared] once replicated, or
    refuse with [Conflict]. *)

val on_decision : ctx -> nstate -> src:int -> txid:int -> commit:bool -> ts:int -> ver_b:int -> unit
(** Participant side: apply the decision and acknowledge it, unless not
    leading under a valid lease. *)
