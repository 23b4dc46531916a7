(** Deterministic pseudo-random number generation.

    All simulator and workload-generator randomness flows through this
    module so experiments are reproducible from a single seed.  The
    implementation is xoshiro256** seeded through SplitMix64, which is the
    standard, well-distributed seeding procedure for that generator. *)

type t
(** Mutable generator state. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes a fresh generator.  The default seed is a fixed
    constant so that two unseeded generators produce identical streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child are (statistically) independent. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bits53 : t -> int
(** The top 53 bits of the next raw output: [float t bound] is
    [float_of_int (bits53 t) /. 2{^53} *. bound].  A caller in another
    module builds its float from this to keep it unboxed. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution. *)

val exponential_int : t -> float -> int
(** [int_of_float (exponential t mean)], allocation-free. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
