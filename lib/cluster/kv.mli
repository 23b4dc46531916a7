(** Sharded, Ordo-timestamped KV service over the cluster network model.

    Keys are partitioned across shard nodes ([key mod shards]); a client
    node drives an open-loop load (exponential arrivals, Zipf keys,
    optional request batching).  Single-shard transactions commit locally
    in one shard visit; cross-shard transfers run two-phase commit with a
    commit timestamp above both shards' proposals and — under the Ordo
    source — a Spanner-style commit wait over the composed boundary.
    Reads are Tardis-style leases: served at [max(clock, wts)], renewing
    the key's read lease instead of invalidating, so read-mostly keys
    never bounce between nodes.

    The shard count is the spec's node count.  Message and step costs,
    lock backoff, read-lease length and store size are the constants
    below, not configuration: only the load shape and the timestamp
    source vary between runs.

    When an {!Ordo_trace.Trace} sink is installed, the service emits
    (with [tid] = node id) [Clock_read] events for every protocol clock
    read, the [tx.*] probe protocol for every committed transaction, and
    [ordo.new_time] for every commit wait — so the stock offline
    {!Ordo_trace.Checker} verifies cross-node commit ordering with no
    cluster-specific code. *)

type source =
  | Logical  (** central sequencer node: one counter, one RPC per stamp *)
  | Ordo  (** per-node clocks under the composed cluster boundary *)

val source_name : source -> string

(** Versioned-lease key state, shared with the service layer built on
    this store ({!Ordo_service}). *)
module Key : sig
  type t = {
    mutable value : int;
    mutable ver : int;
    mutable wts : int;  (** timestamp of the installed version *)
    mutable rts : int;  (** read lease: no write may commit at or below it *)
    mutable locked : bool;
  }

  val make : value:int -> t

  val write_stamp : clock:int -> floor:int -> t -> int
  (** Commit stamp for a write read at [clock]: at or above [clock] and
      [floor], strictly above the installed version ([wts]) and every
      granted read lease ([rts]). *)

  val install : t -> ver:int -> ts:int -> delta:int -> unit
  (** Install version [ver] at stamp [ts]: sets [ver] and [wts], raises
      [rts] to at least [ts] and adds [delta] to [value].  Leaves
      [locked] alone. *)
end

(** Trace vocabulary hooks: the [Clock_read]/[tx.*]/[ordo.new_time]
    emission discipline, exported so higher layers speak the same probe
    protocol and the stock offline checker needs no layer-specific
    code.  All helpers are observational — no time charge, no rng
    draw — so enabling tracing never perturbs a run. *)
module Obs : sig
  val probe : 'm Net.t -> int -> string -> int -> int -> unit
  val clock : 'm Net.t -> int -> int
  (** Read node's reference clock, emitting a [Clock_read] event. *)

  val emit_tx :
    'm Net.t ->
    int ->
    start_ts:int ->
    reads:(int * int) list ->
    installs:(int * int) list ->
    commit_ts:int ->
    unit
  (** Emit one committed transaction's probe group atomically. *)
end

(** {2 Constants}

    The first five are shared with the service layer. *)

val op_ns : int
(** Node occupancy per transaction step. *)

val msg_ns : int
(** Node occupancy per delivered message. *)

val retry_ns : int
(** Backoff unit when a key is locked. *)

val max_retries : int
(** Locked-key retries before the operation fails. *)

val lease_ns : int
(** Read-lease extension granted per read. *)

val keys : int
(** Store size; every key starts at value 100. *)

type config = {
  theta : float;  (** Zipf skew of the key popularity *)
  arrival_ns : int;  (** mean inter-arrival of the whole client stream *)
  batch : int;  (** transactions per client request message *)
  read_pct : int;
  cross_pct : int;  (** cross-shard transfers, % of all transactions *)
  dur_ns : int;  (** arrival window; the run then drains to completion *)
  source : source;
}

val default : config

type result = {
  issued : int;
  committed : int;
  aborted : int;
  cross_issued : int;
  cross_committed : int;
  throughput : float;  (** committed transactions per µs of run time *)
  mean_ns : float;  (** client-observed commit latency *)
  p50_ns : float;
  p99_ns : float;
  messages : int;  (** total messages delivered (batching reduces this) *)
  renewals : int;  (** reads that extended a still-active lease *)
  commit_waits : int;  (** cross-shard commits that waited out uncertainty *)
  wait_ns : int;  (** total commit-wait time *)
  end_ns : int;  (** cluster time at which the last transaction resolved *)
  boundary : int;
  sum_values : int;  (** final sum over all keys (conservation check) *)
  locks_left : int;  (** keys still locked after the drain — must be 0 *)
}

val run : boundary:int -> Net.Spec.t -> config -> result
(** [run ~boundary spec cfg] executes one deterministic service run.
    [spec] describes the shard nodes (one shard per node); a client and a
    sequencer node are appended internally, for both sources, so the
    topology of a logical-vs-ordo comparison is identical.  [boundary]
    is the composed cluster boundary ({!Compose.measure}; pass the
    unsound [rtt2_boundary] to reproduce the violation fixture, or [0]
    with the logical source).  Raises [Invalid_argument] on a spec with
    fewer than 2 keys per node, [batch < 1] or a negative boundary. *)
