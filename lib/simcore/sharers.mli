(** Sharer set of a simulated cache line: which hardware threads hold a
    valid shared copy.

    The set is one field of the engine's cell, so a line stays one heap
    block and no path builds a temporary record.  While every member
    thread id is below {!small_limit} the field is an immediate [int]
    bitmap (bit [i] = thread [i]) — membership, insertion, clearing and
    popcount touch no heap memory, which matters because every load miss
    and every invalidation walks this set.  The first insertion of an id
    at or above {!small_limit} migrates the set to a lazily-grown [Bytes]
    bitmap in the same field; once big, a set stays big (clearing zeroes
    the buffer in place), so a line that is hot on a 240-thread machine
    migrates at most once.

    The representation is part of the contract so the engine can inline
    the fast paths at its call sites — without flambda a cross-module
    call per simulated cache event would dominate the cost of the
    operation itself.  Updates return the set the cell stores back:
    the new immediate in small mode, the same buffer when it changed in
    place, or a new buffer after a migration or a growth. *)

type t = Obj.t
(** An immediate [int] bitmap (small mode) or a [Bytes.t] (big mode). *)

val small_limit : int
(** Thread ids below this (62 on a 64-bit host) use the immediate-int
    representation. *)

val empty : t
(** The empty small set. *)

val is_small : t -> bool
(** The set uses the immediate-int representation. *)

val add : t -> int -> t
(** [add s tid] is [s] with [tid]: a big set is updated in place when its
    buffer covers [tid] (returning [s]), else copied into one at least
    twice as long. *)

val clear : t -> t
(** The emptied set: {!empty} for a small set, the same buffer zeroed in
    place for a big one. *)

val mem : t -> int -> bool
val is_empty : t -> bool

val count : t -> int
(** Number of member threads (popcount). *)
