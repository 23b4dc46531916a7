(** The service's client node: Sessions traffic, the requests in
    flight, retransmission and redirects, and the latencies it
    observes.

    A request goes to the client's view of its group's leader, rotated
    to the next replica when it goes unanswered for [client_retry_ns];
    a [Moved] reply or a [Promoted] broadcast resets the view.  A failed
    op is reissued under a fresh rid, a shed one after its retry-after
    hint, and an op is given up after [max_attempts].  Once arrivals
    close and every session and op has finished, the client sets the
    run's [stopping] flag. *)

open Node

type pend
(** One op in flight. *)

type t = private {
  c : ctx;
  gen : Sessions.t;
  pending : pend IntTbl.t;
  mutable live : int;  (** sessions connected *)
  mutable arrivals_open : bool;
  mutable rids : int;  (** request ids issued, reissues included *)
  mutable issued : int;
  mutable committed : int;
  mutable failed : int;  (** ops given up *)
  mutable shed_replies : int;
  mutable cross_issued : int;
  mutable end_ns : int;  (** when the last op finished *)
  mutable lats : int list;
}

val create : ctx -> seed:int -> Sessions.profile -> t

val start : t -> unit
(** Open the arrival stream and start the retransmit scanner. *)

val on_reply : t -> int -> outcome -> unit
val on_promoted : t -> group:int -> leader:int -> unit

val latencies : t -> int array
(** Completed ops' latencies in ns, ascending. *)
