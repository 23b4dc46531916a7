(** The primary -> backup stream of one replica group, and the release
    of a leader's output behind it.

    A leader buffers stream entries, trace probes and client replies;
    {!flush} ships the entries to the group's backups first and parks
    the probes and replies until every peer has acknowledged the stream
    through the flush's watermark, under a still-valid lease (or once
    the client has stopped).  Unreplicated groups emit at once.  The
    functions that may release parked output return whether any left:
    released probes may have queued first Decision transmissions, which
    the caller then pumps ({!Twopc.pump}). *)

open Node

val buffer_entry : nstate -> Replog.op -> unit
val buffer_probe : nstate -> (unit -> unit) -> unit
val buffer_reply : nstate -> int -> outcome -> unit

val flush : ctx -> nstate -> bool
(** Ship the buffered entries, park the buffered probes and replies, and
    release what the peers' acks allow; [true] if anything was released. *)

(** {2 Leader-side state transitions, each logged to the stream} *)

val resolve : nstate -> int -> bool * int -> unit
(** [resolve n rid (ok, delta)]: record the request's outcome in the
    done-table and the stream, free its execution mark and admission
    slot, and buffer the reply. *)

val install : nstate -> int -> ver:int -> ts:int -> delta:int -> unit
(** Install a version of a key at [ts] and log the key's absolute state. *)

val lock_prep :
  nstate -> txid:int -> key:int -> other:int -> prop:int -> rid:int -> peer:int -> coord:bool -> unit
(** Lock [key] for one side of 2PC transaction [txid] (not logged: the
    caller logs its [Prep] entry). *)

val decide : nstate -> int -> prep -> commit:bool -> ts:int -> ver_b:int -> unit
(** Settle this node's side of a 2PC transaction: unlock its key, record
    and log the decision. *)

(** {2 Stream messages} *)

val on_rep : ctx -> nstate -> src:int -> term:int -> Replog.entry list -> unit
(** A backup applies a [Rep] batch in sequence order and acknowledges
    it; a stale one (wrong role or term, or re-joining) is counted. *)

val on_rep_ack : ctx -> nstate -> src:int -> term:int -> seq:int -> bool
(** A leader records a current-term ack and releases what it allows. *)

(** {2 Re-join} *)

val send_snapshot : ctx -> nstate -> node:int -> bool
(** A leader answers [node]'s [Join] with its state as of its stream
    position (the caller flushes first), which counts as [node]'s ack
    through that position. *)

val install_snapshot : nstate -> term:int -> snapshot -> unit
(** A re-joining node takes a snapshot as its state, as a backup. *)

val clear_volatile : nstate -> unit
(** Drop what lives only in the process: buffered and parked output,
    peer acks, execution marks and failure suspicion. *)

val rejoin : ctx -> nstate -> unit
(** Become a backup with amnesia and ask the group's peers for a
    snapshot, once per lease term until one arrives. *)
