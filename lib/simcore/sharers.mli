(** Sharer set of a simulated cache line: which hardware threads hold a
    valid shared copy.

    The set is two fields of the engine's cell, passed here as [small]
    and [big], so a line stays one heap block and no path builds a
    temporary record.  While every member thread id is below
    {!small_limit} the set is the immediate [int] bitmap [small] (bit [i]
    = thread [i]) and [big] is [Bytes.empty] — membership, insertion,
    clearing and popcount touch no heap memory, which matters because
    every load miss and every invalidation walks this set.  The first
    insertion of an id at or above {!small_limit} migrates the set to a
    lazily-grown [Bytes] bitmap [big] and sets [small] to 0; once big, a
    set stays big (clearing zeroes the buffer in place), so a line that
    is hot on a 240-thread machine migrates at most once.

    The representation is part of the contract so the engine can inline
    the fast paths at its call sites — without flambda a cross-module
    call per simulated cache event would dominate the cost of the
    operation itself.  Slow paths (migration, buffer growth) go through
    {!migrate} and {!add_big}, whose result the cell stores as [big]. *)

val small_limit : int
(** Thread ids below this (62 on a 64-bit host) use the immediate-int
    representation. *)

val is_small : Bytes.t -> bool
(** [is_small big]: the set uses the immediate-int representation. *)

val migrate : int -> int -> Bytes.t
(** [migrate small tid]: the byte bitmap of [small]'s members plus [tid]
    (at least {!small_limit}); the cell then sets [small] to 0. *)

val add_big : Bytes.t -> int -> Bytes.t
(** [add_big big tid] adds [tid] to a big set: in place when [big] covers
    it (returning [big]), else into a copy at least twice as long. *)

val clear_big : Bytes.t -> unit
(** Empty a big set, keeping its buffer (a small set clears [small]). *)

(** Queries, as [f small big]: *)

val mem : int -> Bytes.t -> int -> bool
val is_empty : int -> Bytes.t -> bool

val count : int -> Bytes.t -> int
(** Number of member threads (popcount). *)
