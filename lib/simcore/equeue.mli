(** Adaptive event queue for the simulator core.

    Same contract as {!Heap} — entries pop in ascending [(time, seq)]
    order where [seq] is the global push counter, so same-time entries
    come out FIFO — but the store adapts to residency: a calendar/timing
    wheel (flat int buckets + occupancy bitmap) when enough events are
    pending that heap sifts get expensive, a {!Heap} otherwise and for
    the far tail beyond the wheel window.  Pop order is
    bit-identical to the plain heap in every mode and across mode
    switches. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:int -> 'a -> unit
(** [push t ~time payload] schedules [payload] at [time] (any
    non-negative virtual timestamp). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest entry, or [None] when empty. *)

val pop_exn : 'a t -> 'a
(** Allocation-free pop of the earliest payload.
    @raise Invalid_argument when the queue is empty. *)

val next_time : 'a t -> int
(** Time of the earliest pending entry without removing it, [max_int]
    when empty.  Allocation-free: a single field load — this is the
    engine's per-operation horizon check. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val in_wheel_mode : 'a t -> bool
(** Whether the dense-horizon wheel currently holds the queue (exposed
    for tests and the micro harness; the engine never needs it). *)
