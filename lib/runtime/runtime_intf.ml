(** Execution-substrate signatures.

    Every concurrent algorithm in this reproduction (RLU, Oplog, TL2, the
    database CC schemes, and the Ordo boundary measurement itself) is a
    functor over {!S}.  Two substrates implement it:

    - {!Real} (in this library): OCaml 5 domains, [Atomic] cells and the
      host's hardware clock — used by the unit tests, the examples and the
      live binaries;
    - [Ordo_sim.Runtime]: cooperative fibers in a discrete-event simulation
      of a large cache-coherent machine — used by the benchmark harness to
      regenerate the paper's figures at 32–256 hardware threads, which the
      build host cannot provide.

    The cost-relevant contract is: a {!S.cell} models one exclusively-owned
    cache line.  Loads of a cell you already cached are cheap; stores and
    read-modify-writes invalidate other cores' copies and serialize on the
    line.  Algorithms must therefore route all *shared* mutable state
    through cells, and may use ordinary OCaml values for thread-private
    state. *)

module type S = sig
  val name : string

  type 'a cell
  (** A shared mutable location on its own cache line. *)

  val cell : 'a -> 'a cell

  val read : 'a cell -> 'a
  (** Coherent load ([Atomic.get] semantics). *)

  val write : 'a cell -> 'a -> unit
  (** Coherent store with release semantics; invalidates sharers. *)

  val cas : 'a cell -> 'a -> 'a -> bool
  (** Compare-and-set on physical equality, as [Atomic.compare_and_set]. *)

  val fetch_add : int cell -> int -> int
  (** Atomic fetch-and-add; returns the previous value. *)

  val exchange : 'a cell -> 'a -> 'a

  val tid : unit -> int
  (** Id of the calling thread within the current run, [0 .. n-1].  Threads
      are pinned: thread [i] runs on hardware thread [i] for the whole run
      (physical cores first, then SMT lanes — see [Ordo_util.Topology]). *)

  val get_time : unit -> int
  (** The calling core's invariant hardware clock, in ns.  Monotonic and
      constant-rate per core, but *not* synchronized across cores: the
      simulator injects per-socket skew, exactly the hazard Ordo exists to
      manage. *)

  val await_clock : (int -> bool) -> int
  (** [await_clock accept] reads the clock ({!get_time}) until [accept]
      takes a reading, {!pause}s between reads, and returns the accepted
      reading.  It costs and traces exactly what that loop written out
      with {!get_time} and {!pause} would.

      [accept] must be pure apart from observational hooks (the race
      detector's), and must not call the runtime: in the simulator it
      runs in scheduler context, between events, where no fiber of the
      calling thread is running to perform an operation. *)

  val await_cell : 'a cell -> ('a -> bool) -> 'a
  (** [await_cell c accept] reads [c] ({!read}) until [accept] takes a
      value, {!pause}s between reads, and returns the accepted value:
      [while not (accept (read c)) do pause () done] that also hands back
      what it read.  Every step costs, traces and reports to the race
      detector exactly as that loop's {!read} and {!pause} would, at the
      same point of the run's order.

      [accept] is pure and never calls the runtime.  It is called once
      per value read, and in the simulator from scheduler context, as
      for {!await_clock}: between events, where no fiber of the waiting
      thread is running to perform an operation. *)

  val now : unit -> int
  (** Reference monotonic time in ns (virtual time in the simulator, the
      host monotonic clock for real).  For measuring durations only —
      algorithms must never order events with it. *)

  val pause : unit -> unit
  (** Spin-wait hint (PAUSE/YIELD); in the simulator this also advances
      virtual time so spin loops converge. *)

  val work : int -> unit
  (** Consume approximately [n] ns of thread-private compute.  Used to
      model the non-shared part of an operation (hashing, payload copies);
      a calibrated spin on real hardware. *)

  val fence : unit -> unit
  (** Full memory fence. *)

  (** {2 Tracing hooks}

      Algorithm-level instrumentation routed to [Ordo_trace.Trace] when a
      sink is installed, and free otherwise (one flag load, no
      allocation).  Purely observational: none of these charge virtual
      time or consume simulation randomness, so enabling tracing never
      perturbs a run. *)

  val span_begin : string -> unit
  (** Open a named critical-section span on the calling thread (e.g.
      ["occ.validate"]).  Must be balanced by {!span_end} with the same
      name on the same thread. *)

  val span_end : string -> unit

  val probe : string -> int -> int -> unit
  (** [probe tag a b] records an instant event with two integer payload
      words — e.g. [probe "tx.commit" commit_ts 0]. *)
end

(* The reference wait: [read], and [pause] between reads, until [accept]
   takes a value.  [Real] and [Mcheck] implement [S.await_clock] and
   [S.await_cell] as this loop; the simulator runs it outside a run and
   under a hazard scenario, and otherwise takes the same steps from its
   dispatch loop. *)
let poll ~read ~pause accept =
  let rec go () =
    let v = read () in
    if accept v then v
    else begin
      pause ();
      go ()
    end
  in
  go ()

(** Launching a set of threads on specific hardware threads.  The boundary
    measurement needs explicit placement (it measures a specific core
    pair); throughput harnesses place threads [0 .. n-1]. *)
module type EXEC = sig
  module Runtime : S

  val num_cores : unit -> int
  (** Hardware threads available for placement. *)

  val run_on : (int * (unit -> unit)) list -> unit
  (** [run_on [(core, fn); ...]] runs each [fn] as one thread on the given
      hardware thread, concurrently, and waits for all of them. *)
end
