(** Discrete-event execution engine.

    Simulated threads are OCaml fibers (effect handlers); every shared
    memory operation is performed as an effect, priced by the machine's
    latency model, and the fiber resumes at the operation's completion
    instant in virtual time.  A single event queue ordered by
    [(time, sequence)] makes runs fully deterministic.

    Cache-line model: a {!cell} is one line.  The cell holds its value
    and, in the same six-word heap block, the line state: the current
    exclusive owner, the set of threads holding a valid shared copy (an
    adaptive bitmap, see {!Sharers}), and the virtual time until which
    the line is busy.  Loads by a holder cost [l1_ns]; other loads pay a
    transfer and join the sharers.  Stores and RMWs wait for the line to
    be free, pay transfer + execution cost, take ownership, and
    invalidate all sharers — RMWs on a hot line therefore serialize,
    which is precisely the logical-clock bottleneck the paper attacks.

    All previously process-global engine state (the running engine, the
    continuous timeline, the line-id allocator) lives in an {!Instance.i}.
    Every domain owns one implicit instance through domain-local storage,
    so independent simulations can run concurrently on separate OCaml 5
    domains; {!Instance.scoped} substitutes an explicit instance for a
    section of code, making its virtual-time history independent of
    whatever ran before on the same domain. *)

type 'a cell

val clock_epoch : int
(** Fixed offset added to every simulated invariant-clock reading so that
    timestamps are recognisably "clock-like" (never small counters).  The
    cluster layer uses it to express node reference clocks on the same
    scale as {!get_time}. *)

(** Simulator instances: the handle API over the engine's per-domain
    state. *)
module Instance : sig
  type i

  val create : unit -> i
  (** A fresh instance: empty timeline, no run in progress. *)

  val scoped : i -> (unit -> 'a) -> 'a
  (** [scoped inst f] makes [inst] the calling domain's simulator instance
      for the duration of [f] (restored afterwards, also on exceptions).
      Raises [Invalid_argument] if called while a run is in progress, or if
      [inst] itself is mid-run on another domain.  An instance must not be
      scoped on two domains at once. *)

  val fresh : (unit -> 'a) -> 'a
  (** [fresh f] = [scoped (create ()) f]: run [f] on a brand-new timeline. *)

  val events : i -> int
  (** Events processed by all completed runs of this instance. *)

  val runs : i -> int
  (** Number of completed runs of this instance. *)

  val timeline : i -> int
  (** Current position of the instance's continuous timeline (the virtual
      time at which its next run will start). *)

  val advance_to : i -> int -> unit
  (** [advance_to inst t] moves the instance's timeline forward to [t] so
      that its next run starts no earlier than virtual time [t].  The
      timeline never moves backwards; a smaller [t] is a no-op.  Used by
      the cluster layer to keep per-node instances synchronized with a
      shared cluster clock.  Raises [Invalid_argument] during a run. *)
end

val events_processed : unit -> int
(** Process-wide count of simulator events processed by completed runs on
    any domain or instance (monotone; for perf records). *)

type stats = {
  events : int;  (** Number of scheduled events processed. *)
  end_vtime : int;  (** Largest virtual completion time of any thread. *)
}

(* Cell operations.  Inside a simulation they perform effects and cost
   virtual time; outside (setup/teardown of workloads) they fall back to
   direct, free access so harnesses can build data structures cheaply. *)

val cell : 'a -> 'a cell
val read : 'a cell -> 'a
val write : 'a cell -> 'a -> unit
val cas : 'a cell -> 'a -> 'a -> bool
val fetch_add : int cell -> int -> int
val exchange : 'a cell -> 'a -> 'a

val get_time : unit -> int
(** Simulated invariant clock of the current core: virtual time shifted by
    the core's RESET offset (plus a fixed epoch), after paying the
    timestamp-instruction cost. *)

val await_clock : (int -> bool) -> int
(** [await_clock accept]: {!get_time} until [accept] takes a reading,
    {!pause} between reads ({!Ordo_runtime.Runtime_intf.S.await_clock}).
    Each step costs, draws and traces exactly as those calls do, at the
    same point of the run's order; but once a step has to wait for
    another thread, the scheduler takes the remaining steps itself and
    resumes the fiber once, with the accepted reading.  [accept] runs in
    scheduler context and must not call the runtime. *)

val await_cell : 'a cell -> ('a -> bool) -> 'a
(** [await_cell c accept]: {!read} [c] until [accept] takes a value,
    {!pause} between reads ({!Ordo_runtime.Runtime_intf.S.await_cell}).
    The same steps, and the same scheduler-side waiting, as
    {!await_clock}; only the read step differs. *)

val now : unit -> int
(** True virtual time (the simulator's reference clock). *)

val tid : unit -> int
val pause : unit -> unit
val work : int -> unit
val fence : unit -> unit

val line_id : 'a cell -> int
(** Stable id of the cell's cache line, as it appears in trace events
    (e.g. to label hot lines with [Ordo_trace.Trace.name_line]). *)

val span_begin : string -> unit
val span_end : string -> unit

val probe : string -> int -> int -> unit
(** Tracing hooks ({!Ordo_runtime.Runtime_intf.S}): record an app-level
    span edge or instant probe stamped with the current thread's local
    virtual time.  Free when tracing is off, and purely observational when
    on — no virtual-time charge, no effect, no RNG draw, so a traced run
    is bit-identical to an untraced one. *)

val in_simulation : unit -> bool

val run :
  ?scenario:Ordo_hazard.Scenario.t -> Machine.t -> (int * (unit -> unit)) list -> stats
(** [run machine jobs] runs each [(hw_thread, fn)] as one simulated thread
    pinned to that hardware thread, to completion, on the calling domain's
    current simulator instance.  Hardware thread ids must be distinct and
    within the machine's topology, and the machine must have fewer than
    4,095 hardware threads (a line's owner shares a word with its run
    epoch).  Raises [Invalid_argument] otherwise.  Not reentrant within
    one instance.
    Whether tracing is active is sampled once at run start — install the
    sink ([Ordo_trace.Trace.start]) before launching the run.

    [scenario] injects clock faults on the run's timeline: per-core rate
    changes and step jumps alter what {!get_time} returns (via compiled
    piecewise-linear clock functions, so perturbed runs remain fully
    deterministic), offline windows block execution on a core while its
    clock keeps running, and migrations remap a thread's latency position
    and clock source.  Hazard-free runs are unaffected. *)
