module Rng = Ordo_util.Rng
module Topology = Ordo_util.Topology
module Trace = Ordo_trace.Trace
module Race = Ordo_analyze.Race

(* Simulated clocks are offset by this epoch so that skewed clocks are
   always positive and a zero timestamp can mean "unset". *)
let clock_epoch = 1_000_000_000_000

(* A cell is its simulated cache line: the value and the line's state in
   one heap block of 6 words, so every operation reaches the line with one
   load.  [stamp] packs two fields, [epoch lsl owner_bits lor (owner + 1)]:
   the run id of the last access, so [touch] resets stale lines lazily,
   and the hardware thread holding the line exclusively (-1 = memory). *)
type 'a cell = {
  mutable v : 'a;
  lid : int;  (* stable id, for trace attribution *)
  mutable free_at : int;  (* virtual time at which the line accepts the next RMW/store *)
  mutable stamp : int;  (* run epoch and owner + 1; see above *)
  mutable sharers : Sharers.t;  (* threads holding a valid shared copy *)
}

(* [owner + 1] takes the low 12 bits of [stamp], so [run] admits machines
   of fewer than [owner_mask] = 4,095 hardware threads. *)
let owner_bits = 12
let owner_mask = (1 lsl owner_bits) - 1
let[@inline] owner c = (c.stamp land owner_mask) - 1

(* A queued event is just a thread record: the parked fiber's continuation
   and resume value are stored in the record itself ([ev_k]/[ev_v], via
   [Obj] — the pairing is re-established at the single dispatch site), so
   parking a fiber allocates only its continuation, and resuming it
   allocates nothing.
   [kind] says what the next dispatch does with the record:

   - [k_resume]: continue [ev_k] with [ev_v];
   - [k_thunk]: run [ev_k] as a [unit -> unit] — one-shot events with no
     fiber yet (thread start, hazard fire);
   - [k_await_read], [k_await_check]: the thread waits in [await_clock]
     or [await_cell] and the dispatch loop takes its next step without
     resuming the fiber — read [src] (the clock or a cell), or judge the
     value read, in [ev_v], with [pred]. *)
let k_resume = 0
let k_thunk = 1
let k_await_read = 2
let k_await_check = 3

type thread = {
  id : int;
  mutable time : int;
  mutable park : int;  (* completion instant of the last read step; see [load] *)
  smt_factor : float;  (* compute slowdown from co-resident SMT threads *)
  reset : int;  (* invariant-clock start offset of this core *)
  mutable kind : int;  (* what the next dispatch does; see above *)
  mutable ev_k : Obj.t;  (* parked continuation, or the start/fire closure *)
  mutable ev_v : Obj.t;  (* value to resume the parked continuation with *)
  mutable src : Obj.t;  (* what a wait reads: [clock_src], or the awaited cell *)
  mutable pred : Obj.t;  (* the wait's [accept] while waiting, as [Obj.t -> bool] *)
}

type stats = { events : int; end_vtime : int }

type t = {
  machine : Machine.t;
  queue : thread Equeue.t;
  rng : Rng.t;
  base : int;  (* timeline value at which this run started *)
  epoch : int;  (* globally unique id of this run, for lazy line reset *)
  trace : bool;  (* sampled once at run start: is a sink installed? *)
  analyze : bool;  (* sampled once at run start: is the race detector installed? *)
  hazard : Hazard.t option;  (* compiled clock-fault scenario, if any *)
  mutable cur : thread;
  mutable threads : thread list;  (* every thread of the run, for the final clock fold *)
  mutable n_events : int;
  mutable max_vtime : int;
      (* Highest virtual time seen by *events* (hazard fires); thread
         clocks are folded in at the end of the run — [thread.time] only
         moves forward, so its final value is its maximum and [finish]
         need not compare on every operation. *)
}

(* ---- simulator instances ----

   All previously process-global simulator state lives in an [instance]:
   the engine of the run in progress, the continuous timeline, and the
   cache-line id allocator.  Each domain owns one implicit instance
   (domain-local storage), so independent simulations may run concurrently
   on separate domains; an explicit instance can be scoped over a section
   of code to make a computation's virtual-time history independent of
   whatever ran before it on this domain (the parallel bench harness gives
   every experiment point a fresh instance for exactly that reason). *)

type instance = {
  mutable running : t option;
  mutable timeline : int;
      (* One continuous timeline per instance, across every run and all
         setup code.  Virtual time never restarts: timestamps stored in
         long-lived state (transaction contexts, version chains, logs)
         from an earlier run or from setup code must remain in the *past*
         of every later clock reading, or algorithms comparing them would
         wait for clocks to "catch up" — or worse, treat old data as
         coming from the future. *)
  mutable line_counter : int;
  mutable total_events : int;  (* events processed by completed runs *)
  mutable total_runs : int;
}

let new_instance () =
  { running = None; timeline = 0; line_counter = 0; total_events = 0; total_runs = 0 }

let instance_key : instance Domain.DLS.key = Domain.DLS.new_key new_instance

(* Run epochs must be unique across *all* instances: cells are ordinary
   heap values and nothing stops one from escaping to another instance, so
   a colliding epoch there would wrongly present a stale line as fresh. *)
let epoch_counter = Atomic.make 1

(* Process-wide count of processed events, for perf records. *)
let events_counter = Atomic.make 0
let events_processed () = Atomic.get events_counter

module Instance = struct
  type i = instance

  let create = new_instance

  let scoped inst f =
    let prev = Domain.DLS.get instance_key in
    if prev.running <> None then invalid_arg "Engine.Instance.scoped: inside a run";
    if inst.running <> None then invalid_arg "Engine.Instance.scoped: instance is running";
    Domain.DLS.set instance_key inst;
    Fun.protect ~finally:(fun () -> Domain.DLS.set instance_key prev) f

  let fresh f = scoped (create ()) f
  let events inst = inst.total_events
  let runs inst = inst.total_runs
  let timeline inst = inst.timeline

  let advance_to inst t =
    if inst.running <> None then
      invalid_arg "Engine.Instance.advance_to: inside a run";
    if t > inst.timeline then inst.timeline <- t
end

let instance () = Domain.DLS.get instance_key
let in_simulation () = (instance ()).running <> None

(* ---- hot-path sharer operations ----

   Manually inlined over the cell's [sharers] field: without flambda, a
   cross-module call per simulated cache event would cost more than the
   bit test it performs.  Only the fast cases live here; migration and
   buffer growth go through [Sharers.add]. *)

let[@inline] sharer_mem c tid =
  let s = c.sharers in
  if Obj.is_int s then tid < Sharers.small_limit && (Obj.obj s : int) land (1 lsl tid) <> 0
  else
    let big : Bytes.t = Obj.obj s and byte = tid lsr 3 in
    byte < Bytes.length big
    && Char.code (Bytes.unsafe_get big byte) land (1 lsl (tid land 7)) <> 0

let[@inline] sharer_add c tid =
  let s = c.sharers in
  if Obj.is_int s then
    if tid < Sharers.small_limit then c.sharers <- Obj.repr ((Obj.obj s : int) lor (1 lsl tid))
    else c.sharers <- Sharers.add s tid (* migrate *)
  else begin
    let big : Bytes.t = Obj.obj s and byte = tid lsr 3 in
    if byte < Bytes.length big then
      Bytes.unsafe_set big byte
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get big byte) lor (1 lsl (tid land 7))))
    else c.sharers <- Sharers.add s tid (* grow *)
  end

(* An empty small set is left unwritten: the store of an [Obj.t] goes
   through the write barrier, and most exclusive operations find the set
   empty already. *)
let[@inline] sharer_clear c =
  let s = c.sharers in
  if Obj.is_int s then (if s != Sharers.empty then c.sharers <- Sharers.empty)
  else ignore (Sharers.clear s : Sharers.t)

let[@inline] sharer_is_empty c =
  let s = c.sharers in
  if Obj.is_int s then s == Sharers.empty else Sharers.is_empty s

let[@inline] touch eng (c : _ cell) =
  if c.stamp lsr owner_bits <> eng.epoch then begin
    c.stamp <- eng.epoch lsl owner_bits (* owner -1: memory *);
    c.free_at <- 0;
    sharer_clear c
  end

let cell v =
  let inst = instance () in
  inst.line_counter <- inst.line_counter + 1;
  { v; lid = inst.line_counter; free_at = 0; stamp = 0; sharers = Sharers.empty }

let line_id c = c.lid

(* ---- the one effect ----

   All operation semantics (value computation and line-state updates)
   execute inline at initiation; initiation order equals virtual-time
   order because a thread may never advance its clock past the next queued
   event without going through the queue.  The only thing an operation
   ever needs from the scheduler is "resume me with this value at this
   instant".  The operation queues its own thread for that instant, with
   the value in [ev_v] (or, for a wait, the step the dispatch loop takes
   next), so all the fiber hands over is its continuation.  That is the
   only effect, and it carries nothing: performing it allocates the
   continuation and no payload, and its handler is built once per
   fiber. *)
type _ Effect.t += E_park : Obj.t Effect.t

(* Queue [th] for [completion], where the dispatch loop takes [kind]'s
   step with [v]. *)
let enqueue eng th kind v completion =
  th.kind <- kind;
  th.ev_v <- v;
  th.time <- completion;
  Equeue.push eng.queue ~time:completion th

(* The earliest queued event: a thread must not run past it directly.
   [Equeue.next_time] is allocation-free — this check runs once per
   operation. *)
let[@inline] horizon eng = Equeue.next_time eng.queue

(* The park path of [finish], out of line so that the inlined fast path
   stays small. *)
let park eng th v completion =
  enqueue eng th k_resume v completion;
  Effect.perform E_park

(* Finish an operation that completes at [completion]: advance the local
   clock directly when no other thread could act first, otherwise park the
   fiber in the event queue, to be continued with [v]. *)
let[@inline] finish : type a. t -> thread -> a -> int -> a =
 fun eng th v completion ->
  if completion < horizon eng then begin
    th.time <- completion;
    v
  end
  else Obj.obj (park eng th (Obj.repr v) completion)

(* ---- hazard hooks ----

   All three are no-ops (one pointer test) when the run has no scenario,
   so hazard-free runs are bit-identical to the pre-hazard engine. *)

(* Where a hardware thread currently executes — migrations remap the
   latency position while the thread id (and its cell ownership) stays. *)
let locate eng id =
  match eng.hazard with
  | None -> id
  | Some h -> if id < 0 then id else h.Hazard.loc.(id)

(* A thread initiating an operation inside one of its offline windows
   first blocks until the window closes.  Going through [finish] keeps
   the initiation-order-equals-virtual-time-order invariant: the fiber
   parks in the queue if any other thread could act first. *)
let offline_release_slow eng th h =
  let w = h.Hazard.offline.(th.id) in
  for i = 0 to Array.length w - 1 do
    let s, e = w.(i) in
    if th.time >= s && th.time < e then ignore (finish eng th () e : unit)
  done

(* The guard is split from the loop so the no-scenario case inlines to a
   pointer test (functions containing loops are never inlined without
   flambda, and this runs on every operation). *)
let[@inline] offline_release eng th =
  match eng.hazard with None -> () | Some h -> offline_release_slow eng th h

(* The invariant clock under a scenario: the thread's precompiled
   piecewise-linear function, evaluated at the completion instant. *)
let clock_value eng th completion =
  match eng.hazard with
  | None -> completion + clock_epoch - th.reset
  | Some h -> Hazard.clock_at h.Hazard.clocks.(th.id) completion

(* ---- costing ---- *)

let noise eng =
  let m = eng.machine in
  if m.Machine.noise_prob > 0.0 && Rng.chance eng.rng m.Machine.noise_prob then
    Rng.exponential_int eng.rng m.Machine.noise_mean_ns
  else 0

(* Completion time of a load miss: wait for any in-flight exclusive
   operation on the line ([free_at]), then pay the transfer — this is what
   makes the remote-write → local-read handoff of the offset measurement
   cost a full one-way delay, as on real coherence hardware.  The hit case
   (owned or validly shared: [l1_ns]) is inlined at the call site in
   [read], where it is the hottest path of a read-mostly simulation. *)
let read_miss eng th c =
  let m = eng.machine in
  let cls, cost =
    let owner = owner c in
    if owner < 0 then (Trace.cls_mem, m.Machine.mem_ns)
    else
      let req = locate eng th.id and own = locate eng owner in
      (Machine.transfer_class m req own, Machine.transfer_ns m req own)
  in
  sharer_add c th.id;
  let start = Int.max th.time c.free_at in
  (* Misses are pipelined through the line's directory slot: each one
     occupies it briefly, so a storm of misses on a hot line serializes. *)
  c.free_at <- start + m.Machine.read_service_ns;
  if eng.trace then
    Trace.emit ~tid:th.id ~time:(start + cost) Trace.Transfer ~a:c.lid ~b:cls ~c:cost;
  start + cost

(* A store or RMW: wait for the line, pull it over, invalidate sharers.
   RMWs on a hot line therefore serialize — the logical-clock bottleneck. *)
let exclusive_completion eng th c ~exec_ns =
  touch eng c;
  let m = eng.machine in
  let start = Int.max th.time c.free_at in
  let owner = owner c in
  let cls, transfer =
    if owner = th.id then
      if not (sharer_is_empty c) then (Trace.cls_llc, m.Machine.llc_ns)
      else (Trace.cls_l1, m.Machine.l1_ns)
    else if owner < 0 then (Trace.cls_mem, m.Machine.mem_ns)
    else
      let req = locate eng th.id and own = locate eng owner in
      (Machine.transfer_class m req own, Machine.transfer_ns m req own)
  in
  let completion = start + transfer + exec_ns + noise eng in
  (* Emission reads line state, so it must precede the mutations; it is
     purely observational and charges no virtual time. *)
  if eng.trace then begin
    let wait = start - th.time in
    if wait > 0 then
      Trace.emit ~tid:th.id ~time:start Trace.Rmw_stall ~a:c.lid ~b:wait ~c:0;
    let copies =
      Sharers.count c.sharers
      - (if sharer_mem c th.id then 1 else 0)
      + (if owner >= 0 && owner <> th.id then 1 else 0)
    in
    if copies > 0 then
      Trace.emit ~tid:th.id ~time:(start + transfer) Trace.Invalidate ~a:c.lid ~b:copies ~c:0;
    Trace.emit ~tid:th.id ~time:(start + transfer) Trace.Transfer ~a:c.lid ~b:cls ~c:transfer
  end;
  c.free_at <- completion;
  c.stamp <- (eng.epoch lsl owner_bits) lor (th.id + 1);
  sharer_clear c;
  completion

(* SMT scaling is the identity when the thread has its core to itself —
   the common case — and [int_of_float (float_of_int ns *. 1.0) = ns]
   exactly, so the fast path changes no timestamp. *)
let[@inline] scale th ns =
  if th.smt_factor = 1.0 then ns else int_of_float (float_of_int ns *. th.smt_factor)

(* ---- operations ---- *)

(* The steps a wait shares with [read], [get_time] and [pause]: each
   prices, draws and hooks its operation; the caller finishes or parks.
   The read steps return the value and leave the completion instant in
   [th.park], so no tuple is built. *)
let[@inline] load eng th c =
  touch eng c;
  let completion =
    if owner c = th.id || sharer_mem c th.id then th.time + eng.machine.Machine.l1_ns
    else read_miss eng th c
  in
  if eng.analyze then Race.on_read ~tid:th.id ~line:c.lid ~time:completion;
  th.park <- completion;
  c.v

let[@inline] clock_load eng th =
  let completion = th.time + scale th eng.machine.Machine.tsc_ns + noise eng in
  let value = clock_value eng th completion in
  if eng.trace then
    Trace.emit ~tid:th.id ~time:completion Trace.Clock_read ~a:value ~b:0
      ~c:(completion - th.time);
  th.park <- completion;
  value

let[@inline] pause_completion eng th =
  let completion = th.time + eng.machine.Machine.pause_ns in
  if eng.trace then Trace.emit ~tid:th.id ~time:completion Trace.Pause ~a:0 ~b:0 ~c:0;
  completion

let read c =
  match (instance ()).running with
  | None -> c.v
  | Some eng ->
    let th = eng.cur in
    offline_release eng th;
    let v = load eng th c in
    finish eng th v th.park

let write c x =
  match (instance ()).running with
  | None -> c.v <- x
  | Some eng ->
    let th = eng.cur in
    offline_release eng th;
    let completion =
      exclusive_completion eng th c ~exec_ns:eng.machine.Machine.store_ns
    in
    c.v <- x;
    if eng.analyze then Race.on_write ~tid:th.id ~line:c.lid ~time:completion;
    finish eng th () completion

let cas c expected desired =
  match (instance ()).running with
  | None ->
    let ok = c.v == expected in
    if ok then c.v <- desired;
    ok
  | Some eng ->
    let th = eng.cur in
    offline_release eng th;
    let completion =
      exclusive_completion eng th c ~exec_ns:eng.machine.Machine.atomic_ns
    in
    let ok = c.v == expected in
    if ok then c.v <- desired;
    (* A failed CAS stores nothing: for the race detector it is an
       acquire load (as in C++/LLVM), not a write — otherwise the lock
       winner's subsequent plain store would appear to race with the
       loser's failed attempt. *)
    if eng.analyze then
      if ok then Race.on_rmw ~tid:th.id ~line:c.lid ~time:completion
      else Race.on_read ~tid:th.id ~line:c.lid ~time:completion;
    finish eng th ok completion

let fetch_add c n =
  match (instance ()).running with
  | None ->
    let old = c.v in
    c.v <- old + n;
    old
  | Some eng ->
    let th = eng.cur in
    offline_release eng th;
    let completion =
      exclusive_completion eng th c ~exec_ns:eng.machine.Machine.atomic_ns
    in
    let old = c.v in
    c.v <- old + n;
    if eng.analyze then Race.on_rmw ~tid:th.id ~line:c.lid ~time:completion;
    finish eng th old completion

let exchange c x =
  match (instance ()).running with
  | None ->
    let old = c.v in
    c.v <- x;
    old
  | Some eng ->
    let th = eng.cur in
    offline_release eng th;
    let completion =
      exclusive_completion eng th c ~exec_ns:eng.machine.Machine.atomic_ns
    in
    let old = c.v in
    c.v <- x;
    if eng.analyze then Race.on_rmw ~tid:th.id ~line:c.lid ~time:completion;
    finish eng th old completion

let get_time () =
  let inst = instance () in
  match inst.running with
  | None ->
    (* Outside a simulation (setup/teardown) the clock still moves, along
       the same timeline, or Ordo's [new_time] would spin forever. *)
    inst.timeline <- inst.timeline + 10;
    clock_epoch + inst.timeline
  | Some eng ->
    let th = eng.cur in
    offline_release eng th;
    let value = clock_load eng th in
    finish eng th value th.park

let now () =
  match (instance ()).running with
  | None -> 0
  | Some eng ->
    (* Relative to the start of this run: harness loops measure durations
       with [now]; absolute ordering must use [get_time]. *)
    let th = eng.cur in
    offline_release eng th;
    let completion = th.time + eng.machine.Machine.l1_ns in
    finish eng th (completion - eng.base) completion

let tid () = match (instance ()).running with None -> 0 | Some eng -> eng.cur.id

let pause () =
  match (instance ()).running with
  | None -> ()
  | Some eng ->
    let th = eng.cur in
    offline_release eng th;
    finish eng th () (pause_completion eng th)

let work n =
  match (instance ()).running with
  | None -> ()
  | Some eng ->
    let th = eng.cur in
    offline_release eng th;
    finish eng th () (th.time + scale th (Int.max 0 n))

let fence () = ()

(* ---- waits ----

   [await_clock] and [await_cell] take the steps of the reference loop
   ([Runtime_intf.poll] over [get_time] or [read], and [pause]) through
   the same step functions as those operations, so every step has the
   same cost, noise draw, trace event, race hook and horizon test, at the
   same point of the global order.  Steps that finish below the horizon
   run inline, as in [finish]; the first one that cannot queues the
   thread in an await kind, and from then on the dispatch loop takes the
   steps — one event per park, as before — and continues the fiber once,
   with the accepted value.  A parked step thus costs a queue pop and
   push instead of a fiber resume and a fresh effect.  The two waits
   differ only in the read step, chosen by the wait's source.  Under a
   hazard scenario the thread runs the reference loop: offline windows
   block each step in [offline_release_slow], whose walk over unsorted
   windows may park several times within one step. *)

(* The source of a clock wait: every cell is a block, never this
   immediate. *)
let clock_src = Obj.repr 0

(* What a step returns once it has queued the thread: a private block, so
   no value read can be it. *)
let parked = Obj.repr (ref ())

let wait_park eng th kind v completion =
  enqueue eng th kind v completion;
  parked

(* One read of [src]. *)
let rec wait_read eng th src (accept : Obj.t -> bool) =
  let v =
    if src == clock_src then Obj.repr (clock_load eng th)
    else load eng th (Obj.obj src : Obj.t cell)
  in
  let completion = th.park in
  if completion < horizon eng then begin
    th.time <- completion;
    wait_check eng th src accept v
  end
  else wait_park eng th k_await_check v completion

(* Judge the value [v]; on a refusal, one [pause]. *)
and wait_check eng th src accept v =
  if accept v then v
  else begin
    let completion = pause_completion eng th in
    if completion < horizon eng then begin
      th.time <- completion;
      wait_read eng th src accept
    end
    else wait_park eng th k_await_read (Obj.repr ()) completion
  end

(* The callers view [accept] at [Obj.t]: it is applied only to values
   that [src] yields, so the view is the identity. *)
let await eng src (accept : Obj.t -> bool) =
  let th = eng.cur in
  let v = wait_read eng th src accept in
  if v != parked then v
  else begin
    th.src <- src;
    th.pred <- Obj.repr accept;
    Effect.perform E_park
  end

let await_clock accept =
  match (instance ()).running with
  | Some ({ hazard = None; _ } as eng) ->
    (Obj.obj (await eng clock_src (Obj.magic (accept : int -> bool))) : int)
  | _ -> Ordo_runtime.Runtime_intf.poll ~read:get_time ~pause accept

let await_cell c accept =
  match (instance ()).running with
  | Some ({ hazard = None; _ } as eng) ->
    Obj.obj (await eng (Obj.repr c) (Obj.magic (accept : _ -> bool)))
  | _ -> Ordo_runtime.Runtime_intf.poll ~read:(fun () -> read c) ~pause accept

(* ---- tracing hooks (app-level spans and probes) ----

   These stamp the current thread's local time and cost nothing: no
   virtual-time charge, no effect, no RNG draw.  The engine samples the
   sink's presence once per run ([eng.trace]), so the disabled path is a
   field load rather than a domain-local lookup. *)

let span_begin tag =
  match (instance ()).running with
  | None -> ()
  | Some eng ->
    if eng.trace then
      Trace.emit ~tid:eng.cur.id ~time:eng.cur.time Trace.Span_begin ~a:(Trace.intern tag)
        ~b:0 ~c:0;
    if eng.analyze then Race.on_span_begin ~tid:eng.cur.id tag

let span_end tag =
  match (instance ()).running with
  | None -> ()
  | Some eng ->
    if eng.trace then
      Trace.emit ~tid:eng.cur.id ~time:eng.cur.time Trace.Span_end ~a:(Trace.intern tag) ~b:0
        ~c:0;
    if eng.analyze then Race.on_span_end ~tid:eng.cur.id tag

let probe tag a b =
  match (instance ()).running with
  | None -> ()
  | Some eng ->
    if eng.trace then
      Trace.emit ~tid:eng.cur.id ~time:eng.cur.time Trace.Probe ~a:(Trace.intern tag) ~b:a ~c:b;
    if eng.analyze then Race.on_probe ~tid:eng.cur.id tag a b

(* ---- scheduler ---- *)

let no_pred = Obj.repr (fun (_ : Obj.t) -> true)

let fiber th fn =
  let open Effect.Deep in
  (* Built once per fiber: a park allocates no handler. *)
  let on_park = Some (fun (k : (Obj.t, unit) continuation) -> th.ev_k <- Obj.repr k) in
  match_with fn ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match e with E_park -> on_park | _ -> None);
    }

let run ?scenario machine jobs =
  let inst = instance () in
  if inst.running <> None then invalid_arg "Engine.run: not reentrant";
  let topo = machine.Machine.topo in
  let nthreads = Topology.total_threads topo in
  if nthreads >= owner_mask then
    invalid_arg "Engine.run: machines of 4,095 or more hardware threads are not supported";
  let seen = Array.make nthreads false in
  List.iter
    (fun (hw, _) ->
      if hw < 0 || hw >= nthreads then invalid_arg "Engine.run: hardware thread out of range";
      if seen.(hw) then invalid_arg "Engine.run: duplicate hardware thread";
      seen.(hw) <- true)
    jobs;
  (* Static SMT pressure: how many of this run's threads share each core. *)
  let lanes = Array.make (Topology.physical_cores topo) 0 in
  List.iter
    (fun (hw, _) ->
      let p = Topology.physical_of topo hw in
      lanes.(p) <- lanes.(p) + 1)
    jobs;
  let base = inst.timeline in
  let hazard =
    Option.map (fun s -> Hazard.compile ~epoch:clock_epoch ~base machine s) scenario
  in
  let thread ?(smt_factor = 1.0) ?(reset = 0) id kind ev_k =
    {
      id;
      time = base;
      park = base;
      smt_factor;
      reset;
      kind;
      ev_k;
      ev_v = Obj.repr ();
      src = clock_src;
      pred = no_pred;
    }
  in
  (* One-shot pseudo thread carrying a closure: thread start, hazard fire. *)
  let thunk_event fn = thread (-1) k_thunk (Obj.repr (fn : unit -> unit)) in
  let dummy = thread (-1) k_resume (Obj.repr ()) in
  let eng =
    {
      machine;
      queue = Equeue.create ();
      rng = Rng.create ~seed:machine.Machine.seed ();
      base;
      epoch = Atomic.fetch_and_add epoch_counter 1;
      trace = Trace.enabled ();
      analyze = Race.enabled ();
      hazard;
      cur = dummy;
      threads = [];
      n_events = 0;
      max_vtime = base;
    }
  in
  (* Hazard fires are ordinary queued events on the continuous timeline:
     they flip the compiled state (thread locations) and mark the trace,
     interleaving deterministically with thread operations. *)
  (match hazard with
  | None -> ()
  | Some h ->
    List.iter
      (fun (f : Hazard.fire) ->
        Equeue.push eng.queue ~time:f.at
          (thunk_event (fun () ->
               f.Hazard.apply ();
               if f.at > eng.max_vtime then eng.max_vtime <- f.at;
               if eng.trace then
                 Trace.emit ~tid:f.Hazard.tid ~time:f.at Trace.Hazard ~a:f.Hazard.code
                   ~b:f.Hazard.target ~c:f.Hazard.magnitude)))
      h.Hazard.fires);
  let start (hw, fn) =
    let th =
      thread hw k_thunk (Obj.repr ())
        ~smt_factor:
          (1.0
          +. (machine.Machine.smt_slowdown
             *. float_of_int (lanes.(Topology.physical_of topo hw) - 1)))
        ~reset:(Machine.clock_reset_ns machine hw)
    in
    (* The thread's first event runs its start closure; every later event
       on this record resumes the fiber or takes a clock-wait step ([kind]
       leaves [k_thunk] at the first dispatch and never comes back). *)
    th.ev_k <- Obj.repr (fun () ->
        eng.cur <- th;
        fiber th fn);
    eng.threads <- th :: eng.threads;
    Equeue.push eng.queue ~time:base th
  in
  List.iter start jobs;
  inst.running <- Some eng;
  Fun.protect
    ~finally:(fun () -> inst.running <- None)
    (fun () ->
      let queue = eng.queue in
      while not (Equeue.is_empty queue) do
        eng.n_events <- eng.n_events + 1;
        let th = Equeue.pop_exn queue in
        let kind = th.kind in
        if kind = k_resume then begin
          eng.cur <- th;
          let k : (Obj.t, unit) Effect.Deep.continuation = Obj.obj th.ev_k in
          (* [ev_v] holds the [Obj.repr] of the value the continuation
             expects; passing it back through the [Obj.t]-typed view is
             the identity at runtime. *)
          Effect.Deep.continue k th.ev_v
        end
        else if kind = k_thunk then begin
          th.kind <- k_resume;
          (Obj.obj th.ev_k : unit -> unit) ()
        end
        else begin
          (* A wait step, taken here with [cur] set so the step's and
             the predicate's hooks see the waiting thread. *)
          eng.cur <- th;
          let src = th.src and accept : Obj.t -> bool = Obj.obj th.pred in
          let v =
            if kind = k_await_read then wait_read eng th src accept
            else wait_check eng th src accept th.ev_v
          in
          if v != parked then begin
            th.kind <- k_resume;
            (* Drop the predicate and the cell: a closure or a lock node
               the record still held at the next minor collection would
               be promoted for nothing. *)
            th.src <- clock_src;
            th.pred <- no_pred;
            let k : (Obj.t, unit) Effect.Deep.continuation = Obj.obj th.ev_k in
            Effect.Deep.continue k v
          end
        end
      done);
  (* Thread clocks only move forward, so each final [time] is that
     thread's maximum — folding here replaces a compare on every call to
     [finish]. *)
  List.iter (fun th -> if th.time > eng.max_vtime then eng.max_vtime <- th.time) eng.threads;
  (* Later clock readings (and the next run) live in this run's future;
     the margin clears the largest per-core reset offset — and, after a
     hazard run, however far behind the slowest perturbed clock ended up,
     so cross-run timestamp monotonicity survives any scenario. *)
  let deficit =
    match eng.hazard with
    | None -> 0
    | Some h ->
      let worst = ref 0 in
      Array.iteri
        (fun hw segs ->
          let healthy = eng.max_vtime + clock_epoch - Machine.clock_reset_ns machine hw in
          let d = healthy - Hazard.clock_at segs eng.max_vtime in
          if d > !worst then worst := d)
        h.Hazard.clocks;
      !worst
  in
  inst.timeline <- eng.max_vtime + 10_000 + deficit;
  inst.total_events <- inst.total_events + eng.n_events;
  inst.total_runs <- inst.total_runs + 1;
  ignore (Atomic.fetch_and_add events_counter eng.n_events : int);
  { events = eng.n_events; end_vtime = eng.max_vtime - base }
