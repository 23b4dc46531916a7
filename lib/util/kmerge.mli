(** Loser-tree k-way merge of ascending runs.

    The merger holds one head key per run and names the run whose head is
    least.  A key is an int pair [(k1, k2)] ordered lexicographically;
    [k2] must be unique across all runs (a sequence number or a position),
    so the order is total, and below [max_int] ([(max_int, max_int)] marks
    an empty run).  The caller owns the runs: it consumes the winner's
    head, then reports that run's next key ({!next}) or its end ({!drop}),
    and stops after the total number of entries.

    Each step replays one leaf-to-root path: ceil(log2 R) compares for R
    runs, no swaps and no allocation. *)

type t

val create : int -> t
(** [create r] is a merger over runs [0 .. r - 1], all empty. *)

val set : t -> int -> int -> int -> unit
(** [set m run k1 k2] gives [run] the head key [(k1, k2)].  Call it for
    each non-empty run before {!start}. *)

val start : t -> int
(** Builds the tree and returns the run with the least head key. *)

val next : t -> int -> int -> int
(** [next m k1 k2]: the last returned run moved on to head key [(k1, k2)].
    Returns the run with the least head key now. *)

val drop : t -> int
(** The last returned run is exhausted.  Returns the run with the least
    head key among those left. *)
