(** Replicated, admission-controlled session front-end — the end-to-end
    composition of the repo's layers.

    {!Ordo_workloads.Sessions} traffic drives replica groups of
    {!Ordo_cluster.Kv.Key}-shaped stores: Tardis read leases, locked-key
    retries and cross-group 2PC exactly as in the cluster KV, plus
    Silo-style epoch group commit (one Ordo commit-wait and one
    [ordo.new_time] probe per {e epoch} instead of per cross-shard
    transaction), per-shard admission control ({!Admission}),
    primary → backup replication over a sequenced idempotent stream
    ({!Replog}), and lease-based failover ({!Lease}): a backup promotes
    once the leader's lease has certainly expired on every clock
    ([until + boundary + 1] on its own), later ranks one lease term
    later each.

    The composed [ORDO_BOUNDARY] is the only ordering parameter.  A
    caller sets the traffic, admission limits, epoch length and seed;
    lease and heartbeat timers, retry budgets and step costs are
    constants (the costs, locked-key backoff and read-lease length are
    {!Ordo_cluster.Kv}'s).

    The flush discipline makes leader death exactly-once: replication
    entries ship to the backups before any client reply or 2PC message
    leaves the primary, so an acknowledged op is always replicated and
    an unacknowledged one is safely re-executed by the client's
    retransmit (deduplicated by the replicated done-table).

    When a trace sink is installed the run emits the stock
    [Clock_read]/[tx.*]/[ordo.new_time] probe protocol (via
    {!Ordo_cluster.Kv.Obs}), so the unmodified offline
    {!Ordo_trace.Checker} validates cross-node commit ordering —
    including runs where a {!Ordo_hazard.Node_fault} scenario kills a
    primary mid-2PC. *)

type config = {
  profile : Ordo_workloads.Sessions.profile;
      (** traffic shape; the store size comes from [profile.keys] and the
          transfer partner distance is forced to the group count *)
  adm : Admission.config;
  epoch_ns : int;  (** group-commit epoch; 0 = per-transaction commit wait *)
  seed : int;
}

val default : config

type group_stats = { g_admitted : int; g_shed : int; g_depth_hw : int }

type result = {
  issued : int;
  committed : int;
  failed : int;  (** ops the client gave up on (attempt budget exhausted) *)
  shed_replies : int;  (** shed replies observed by the client *)
  cross_issued : int;
  cross_committed : int;
  sessions_opened : int;
  sessions_closed : int;
  reconnects : int;
  storm_ops : int;
  epochs : int;
  epoch_txns : int;  (** cross-shard commits that rode an epoch batch *)
  commit_waits : int;  (** per epoch when batching, per transaction otherwise *)
  wait_ns : int;
  rep_shipped : int;
  rep_applied : int;
  rep_dups : int;
  rep_stale : int;  (** stream messages dropped by term/role checks *)
  promotions : int;
  degraded_reads : int;
  snapshots : int;  (** re-joins completed (restart or deposed leader) *)
  messages : int;
  dropped : int;  (** events dropped at dead nodes *)
  net_pops : int;  (** event-queue pops of the run's network ([Net.pops]) *)
  net_restamps : int;  (** inbox keys its network wrote ([Net.restamps]) *)
  end_ns : int;
  boundary : int;
  throughput : float;  (** committed ops per µs *)
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  sum_values : int;  (** conservation: must equal [expected_sum] *)
  expected_sum : int;
  locks_left : int;  (** must be 0 after the drain *)
  divergence : int;  (** live replica (value, ver) mismatches vs the leader *)
  per_group : group_stats array;
  timeline : Chaos.event list;  (** KILLED/DEGRADED/PROMOTED/RESTARTED/RECOVERED *)
}

val run :
  boundary:int ->
  ?fault:Ordo_hazard.Node_fault.t ->
  Ordo_cluster.Net.Spec.t ->
  config ->
  result
(** [run ~boundary spec cfg] executes one deterministic service run over
    [spec]'s replica groups (a client node is appended internally).
    [boundary] is the composed cluster [ORDO_BOUNDARY]; [fault] an
    optional chaos scenario (validated against the spec's node count).
    Raises [Invalid_argument] on fewer than 2 groups, a negative
    boundary or epoch, or an invalid fault scenario. *)

val violations : result -> string list
(** The end-state invariants a run promises, one message per breach, in
    this order: every issued op committed or failed (exactly-once at the
    client), the value sum conserved, no lock left held, no live replica
    diverged from its group's leader.  [[]] means all four hold. *)
