(** Deterministic event tracing for the Ordo substrates.

    A *domain-local* sink collects typed events from the simulator engine
    (cache-line transfers, invalidations, RMW serialization stalls, clock
    reads, spin pauses) and from algorithm code (spans and probes routed
    through [Runtime_intf.S]).  Recording is off by default and free when
    off: producers gate every emission on {!enabled}, and no
    allocation happens on the disabled path.  Recording is purely
    observational — it never charges virtual time or consumes simulation
    randomness, so a traced run is bit-identical (same [end_vtime], same
    event count) to an untraced one.

    Raw events land in per-thread ring buffers of a fixed capacity,
    which wrap (oldest dropped first, {!t.dropped} counts the loss); a
    capacity above the default is reached by doubling.  Per-core and
    per-line counters are updated online at emission and stay exact even
    after the rings wrap.

    The sink is installed per domain, so concurrent simulator instances
    (the parallel bench harness runs one per domain) trace independently.
    A runtime that spawns worker domains and wants their events in the
    parent's trace passes the parent's {!handle} to {!adopt} in each
    child — emission into a shared sink is thread-safe. *)

type kind =
  | Transfer  (** a = line id, b = transfer class, c = cost in ns *)
  | Invalidate  (** a = line id, b = shared copies invalidated *)
  | Rmw_stall  (** a = line id, b = ns spent waiting for the line *)
  | Clock_read  (** a = clock value read, c = read cost in ns *)
  | Pause  (** spin-wait hint *)
  | Span_begin  (** a = tag id *)
  | Span_end  (** a = tag id *)
  | Probe  (** a = tag id, b/c = payload *)
  | Hazard  (** a = hazard code ({!hz_rate} ...), b = target core/thread, c = magnitude *)
  | Guard  (** a = tag id of a reserved guard tag, b/c = payload *)

(** Hazard codes ([a] of [Hazard]), shared with the simulator's hazard
    scheduler and the scenario DSL. *)

val hz_rate : int
val hz_step : int
val hz_offline : int
val hz_online : int
val hz_migrate : int

val hazard_name : int -> string
(** Short human name for a hazard code ("rate", "step", ...). *)

(** Probe tags reserved for the runtime boundary guard.  A [Probe] emitted
    with one of these tags is reclassified as a [Guard] event by the sink
    (the [a] field still carries the tag id). *)

val tag_guard_ts : string  (** b = issued timestamp, c = boundary then in effect *)

val tag_guard_violation : string  (** b = observed excess, c = boundary *)

val tag_guard_bound : string  (** b = new boundary, c = observed excess *)

val tag_guard_fallback : string  (** b = fallback clock seed, c = boundary *)

val tag_guard_remeasure : string  (** b = recalibrated boundary, c = excess *)

(** Probe tags emitted by the work-stealing scheduler ([Ordo_sched]).
    Ordinary probes (not reclassified): the stock checker's invariants and
    the Chrome exporter apply to scheduler traces unchanged. *)

val tag_sched_steal : string  (** b = victim worker id, c = stolen task's stamp *)

val tag_sched_park : string  (** b = worker id, c = park count so far *)

val tag_sched_resolve : string  (** b = promise id, c = certified resolution stamp *)

(** Transfer classes ([b] of [Transfer]), the simulator's latency tiers. *)

val cls_l1 : int
val cls_llc : int
val cls_mesh : int
val cls_cross : int
val cls_mem : int
val n_classes : int
val class_name : string array

type event = { seq : int; time : int; tid : int; kind : kind; a : int; b : int; c : int }

type core_stat = {
  core : int;
  transfers : int array;  (** indexed by transfer class *)
  mutable invalidations : int;
  mutable inval_copies : int;
  mutable stalls : int;
  mutable stall_ns : int;
  mutable clock_reads : int;
  mutable pauses : int;
  mutable probes : int;
  mutable hazards : int;  (** injected hazards that fired on this core *)
  mutable guards : int;  (** guard stamps/actions emitted from this core *)
  transfer_lat : Ordo_util.Stats.Online.t;
}

type line_stat = {
  line : int;
  mutable transfers : int;
  mutable invalidations : int;
  mutable stall_ns : int;
  mutable transfer_ns : int;
}

type t = {
  events : event array;  (** ascending (time, seq) *)
  tags : string array;
  dropped : int;  (** events lost to ring wrap-around (counters are exact) *)
  cores : core_stat array;  (** cores that emitted at least once, ascending id *)
  lines : line_stat array;
      (** every line that saw traffic, in no specified order; rank them
          with [Metrics.hottest] *)
  names : (int * string) list;  (** user labels attached with [name_line] *)
}

val enabled : unit -> bool
(** Producers must check [enabled ()] before computing anything for an
    emission.  While no domain holds a live sink it is one load of a
    global count; otherwise it also reads the domain-local slot and
    whether that sink is still live.  A stopped sink reads as no sink in
    every domain, including one that adopted it.  The simulator engine
    samples it once per run and caches the answer on its hot paths. *)

val is_tracing : unit -> bool
(** Alias of {!enabled}. *)

type handle
(** An opaque reference to this domain's installed sink (or its absence),
    for propagating tracing into spawned worker domains. *)

val active_handle : unit -> handle
val adopt : handle -> unit
(** [adopt h] makes the calling domain emit into the sink behind [h]
    (captured in the parent with {!active_handle}).  Adopting a handle
    whose sink has been stopped installs no sink. *)

val start : ?capacity:int -> ?threads:int -> unit -> unit
(** Install the sink.  [capacity] is the per-thread ring size in events
    (default 16384; a larger one is reached by doubling from 16384 as a
    thread emits); [threads] pre-sizes the per-thread tables (they grow
    on demand).  Raises [Invalid_argument] if already tracing. *)

val stop : unit -> t
(** Uninstall the sink and return the collected trace: each tid's
    retained events (its last [capacity] emissions), in ascending
    [(time, seq)] order.  [seq] is unique, so the order is total.

    Each ring is read in place as contiguous slices of its data array,
    each ascending by [(time, seq)]: one slice for a ring that has not
    wrapped, two for one that has (one if its oldest slot is slot 0), and
    one more wherever its times step back (an event stamped with another
    instant than its emitter's clock, like the simulator's [Hazard]
    events).  A loser tree ({!Ordo_util.Kmerge}) merges the R slices:
    ceil(log2 R) compares per event, straight into [events].  [lines]
    is copied from the sink's table unranked.  Every domain that still
    holds the sink sees tracing off from here on.
    Raises [Invalid_argument] if not tracing. *)

val emit : tid:int -> time:int -> kind -> a:int -> b:int -> c:int -> unit
(** Record one event; no-op when no sink is installed. *)

val intern : string -> int
(** Tag id for a span/probe name (interned per recording session).
    Returns [-1] when not tracing. *)

val name_line : int -> string -> unit
(** Attach a human label to a cache-line id for reports. *)

val tag_name : t -> int -> string
val find_tag : t -> string -> int option
val line_label : t -> int -> string
