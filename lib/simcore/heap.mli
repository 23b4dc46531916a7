(** Array-based 4-ary min-heap keyed by [(time, seq)] pairs.

    The sequence number gives FIFO order to events scheduled for the same
    virtual instant, which keeps the simulation fully deterministic.

    Keys live in flat [int] arrays separate from the payloads, so sift
    comparisons never dereference a payload, and the 4-ary shape halves
    the tree depth of a binary heap — both matter because the scheduler
    pushes and pops one entry per simulated event. *)

type 'a t = private {
  mutable times : int array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int;  (** entries [0 .. len-1] are live; index 0 is the minimum *)
  mutable next_seq : int;
}
(** Read-only outside this module.  {!Equeue} reads the root key and the
    length directly on every pop: cross-module calls never inline in the
    dev build, so a field read is cheaper than {!next_time} there. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Insert with the next sequence number. *)

val reserve_seq : 'a t -> int
(** Take the next sequence number without inserting anything: every
    later {!push} orders after it on a time tie. *)

val reserve_seqs : 'a t -> int -> int
(** [reserve_seqs t n] takes [n] consecutive sequence numbers at once and
    returns the first: the same as [n] calls of {!reserve_seq}, for a
    caller that hands a block of keys out lazily.  Raises
    [Invalid_argument] on a negative [n]. *)

val push_seq : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert under an explicit sequence number — one from {!reserve_seq},
    or the key of an entry that was taken out of the heap and is put
    back where it stood.  Keys should stay unique: on an equal
    [(time, seq)] the pop order of two entries is unspecified. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum [(time, payload)]. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum payload without allocating.
    Raises [Invalid_argument] on an empty heap — guard with {!is_empty};
    the scheduler drain loop uses this to avoid an option + pair
    allocation per event. *)

val next_time : 'a t -> int
(** Time key of the minimum entry, or [max_int] when empty, without
    allocating. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum entry (the tie-breaker of
    {!next_time}), or [max_int] when empty. *)
