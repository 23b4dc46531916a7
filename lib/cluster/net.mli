(** Deterministic multi-node network model.

    A cluster is a set of nodes — each a full simulator
    {!Ordo_sim.Engine} instance with its own clock-skew profile —
    connected by links with seeded latency distributions and FIFO/reorder
    delivery modes.  Sends, deliveries and timers are events on one
    cluster-wide [(time, seq)]-keyed event queue, so cluster runs are
    fully deterministic: same {!Spec.t}, same history, on any host.

    Two time bases coexist.  The event queue advances {e cluster time}
    (ns since run start, {!now}); every node additionally has a reference
    clock ({!clock}) — cluster time shifted by the engine clock epoch and
    the node's clock offset.  Offsets are folded into the RESET offsets
    of the node's machine model, so simulated code running inside a
    node's engine ({!run_node}) reads the same skewed clocks as protocol
    code calling {!clock}: a boundary composed over messages covers
    both. *)

(** Cluster topology description (parseable, value-equal, hashable —
    the single input from which a run is reproducible). *)
module Spec : sig
  type mode =
    | Fifo  (** per-link deliveries happen in send order *)
    | Reorder  (** deliveries may overtake (pure latency sampling) *)

  type link = {
    base_ns : int;  (** minimum one-way flight time *)
    jitter_ns : int;  (** mean of the additional exponential delay *)
    overhead_ns : int;  (** per-message serialization cost (amortized by batching) *)
    mode : mode;
  }

  val default_link : link
  (** 1.5 µs base, 300 ns mean jitter, 80 ns overhead, FIFO. *)

  type t = {
    nodes : int;  (** total node count, [groups * replicas] *)
    replicas : int;  (** replicas per shard group (1 = unreplicated) *)
    machine_name : string;
    machine : Ordo_sim.Machine.t;
    skew_ns : int;  (** node clock offsets drawn uniformly from [\[0, skew_ns)] *)
    offsets : int array option;  (** explicit per-node offsets (overrides [skew_ns]) *)
    link : link;  (** default link parameters, both directions *)
    overrides : ((int * int) * link) list;  (** per-directed-link overrides *)
    seed : int64;
  }

  val make :
    ?skew_ns:int ->
    ?offsets:int array ->
    ?link:link ->
    ?overrides:((int * int) * link) list ->
    ?seed:int64 ->
    ?replicas:int ->
    machine:string ->
    int ->
    t
  (** [make ~machine:"amd" n] describes [n] nodes of that machine preset.
      Node 0's clock offset is always 0 (the cluster anchor) when offsets
      are drawn from [skew_ns].  [replicas] (default 1) partitions the
      nodes into groups of that size — group [g] is nodes
      [g*replicas .. (g+1)*replicas - 1] — and must divide [n].  Raises
      [Invalid_argument] on an unknown machine name, [n < 1], a
      mis-sized [offsets] array, or a replica count that does not divide
      the node count. *)

  val groups : t -> int
  (** [nodes / replicas]: the number of replica groups (= shards of a
      replicated service). *)

  val extend : t -> int -> t
  (** [extend t k] appends [k] nodes with clock offset 0 (service nodes:
      clients, sequencers) to the topology.  The appended nodes are not
      part of any replica group. *)

  val of_string : string -> (t, string) result
  (** Parse ["<groups>[x<replicas>]x<machine>[:k=v,...]"], e.g. ["4xamd"],
      ["3x2xamd"] (3 groups of 2 replicas = 6 nodes) or
      ["2xarm:base=500,jitter=50,mode=reorder,skew=0,seed=7"].  Keys:
      [base], [jitter], [overhead], [mode] ([fifo]|[reorder]), [skew],
      [seed]. *)

  val to_string : t -> string
  (** Canonical spec string (loses [offsets]/[overrides], which have no
      string syntax). *)

  val asymmetric_fixture : unit -> t
  (** Seeded negative fixture: two nodes, 5 µs true skew, and a link
      whose two directions differ 12x in latency — the configuration
      where an RTT/2 offset estimate under-covers the real skew and the
      offline checker must flag clock inversions
      ({!Compose.rtt2_boundary}). *)
end

type 'm t
(** A cluster carrying messages of type ['m]. *)

val create : Spec.t -> 'm t
val spec : 'm t -> Spec.t
val nodes : 'm t -> int

val now : 'm t -> int
(** Cluster time: virtual ns since run start. *)

val clock : 'm t -> int -> int
(** [clock t n]: node [n]'s reference clock (its core-0 invariant clock)
    at the current cluster time — what protocol code stamps with. *)

val offset_truth : 'm t -> int -> int
(** Ground-truth clock offset of node [n] (ns its clock runs ahead of
    node 0's).  For reports and tests only: protocol code must not read
    it — that is what the composed measurement is for. *)

val node_machine : 'm t -> int -> Ordo_sim.Machine.t
(** Node [n]'s machine model, clock offset folded into its RESET
    offsets. *)

val on_message : 'm t -> (int -> int -> 'm -> unit) -> unit
(** [on_message t f] installs the delivery handler: [f src dst msg] runs
    at the delivery instant on the destination node. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Send a message; it is delivered [overhead + base + jitter] ns later
    (FIFO links additionally never deliver out of send order).  When
    tracing is on, emits ["net.send"]/["net.recv"] probes ([b] = peer,
    [c] = message id) on the two nodes. *)

val at : 'm t -> node:int -> delay:int -> (unit -> unit) -> unit
(** Schedule a timer callback on a node [delay] ns from now. *)

val busy : 'm t -> int -> int -> unit
(** [busy t n ns] charges [ns] of service occupancy to node [n]:
    deliveries and timers reaching a busy node are deferred until it
    frees up.  This is what makes a centralized service (e.g. a
    sequencer node) a contended resource.

    Deferred events wait in a per-node FIFO inbox, and the event queue
    holds one wake per non-empty inbox.  They run in exactly the order a
    plain queue gives when every event popped for a busy node is pushed
    back at the instant it frees up, behind everything already queued
    there — including events at the same instant that pop between two
    waiting ones.  A waiting event therefore costs no queue operations
    while the node serves the events ahead of it ({!pops}), and when
    every waiting event must be re-keyed behind the next busy period,
    the whole inbox is re-keyed at once ({!restamps}). *)

val step : 'm t -> bool
(** Process one event; [false] when the queue is empty. *)

val run : 'm t -> unit
(** Drain the event queue. *)

val pops : 'm t -> int
(** Event-queue pops so far: every event run or dropped, every inbox
    wake, and every event popped for a busy node once, when it enters
    the inbox. *)

val restamps : 'm t -> int
(** Inbox keys written so far: each waiting event moved to the tail under
    a fresh key counts 1, and each busy period that re-keys the whole
    inbox at once — one O(1) run stamp — counts 1.  A deep inbox
    therefore no longer costs one key per waiting event per event
    served. *)

val sent : 'm t -> int

val delivered : 'm t -> int
(** Messages delivered so far — the traffic metric batching reduces. *)

val kill : 'm t -> int -> unit
(** Crash-stop node [n]: every delivery and timer addressed to it —
    including events already in flight — is dropped ({!dropped}) until
    {!revive}.  Messages the node sent before dying still deliver.  The
    node's engine state survives (a process restart over a durable
    store); any protocol-level amnesia is the caller's to model.
    Idempotent. *)

val revive : 'm t -> int -> unit
(** Bring a killed node back: it receives deliveries and timers scheduled
    from this instant on; everything addressed to its previous
    incarnation stays dropped.  Idempotent. *)

val alive : 'm t -> int -> bool
(** Ground truth for fault scenarios and tests.  Protocol code must not
    read it — failure detection goes through leases and timeouts, which
    is what the failover machinery exists to exercise. *)

val dropped : 'm t -> int
(** Events dropped at dead (or since-restarted) nodes. *)

val run_node : 'm t -> int -> (Ordo_sim.Machine.t -> 'a) -> 'a
(** [run_node t n f] runs [f machine] with node [n]'s simulator instance
    installed (its timeline first synced to cluster time), so [f] can
    launch {!Ordo_sim.Sim} runs on the node's machine.  The virtual time
    the run consumes is charged to the node as {!busy} occupancy. *)

val node_boundary : ?runs:int -> ?cores:int list -> 'm t -> int -> int
(** Intra-node [ORDO_BOUNDARY] of node [n], measured with the paper's
    pairwise algorithm on the node's own engine (via {!run_node}).
    [cores] defaults to an even sample of at most ~16 hardware
    threads. *)
