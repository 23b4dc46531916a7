(* The sink's sequence counter is infrastructure *below* the runtime
   abstraction: it must not be a [Runtime_intf] cell, or tracing an
   algorithm would perturb the very schedule (and Mcheck interleaving
   space) being observed. *)
[@@@ordo_lint.allow "atomic-confinement"]

(* Deterministic event sink for the simulator (and, best-effort, the real
   substrate).  Design constraints, in order:

   - Off by default, and *free* when off: producers guard every emission
     with a single read of [on], so a disabled sink costs one load and no
     allocation on any hot path.
   - Purely observational: recording never charges virtual time or draws
     from the simulation RNG, so a traced run has bit-identical
     [end_vtime]/event counts to an untraced one.
   - Bounded memory: raw events go to per-thread ring buffers of a fixed
     capacity, grown by doubling past the default, that wrap (oldest
     dropped first), while per-core and per-line counters are maintained
     online at emission and therefore stay exact even when the rings
     wrap. *)

module Stats = Ordo_util.Stats
module Kmerge = Ordo_util.Kmerge

type kind =
  | Transfer  (** a = line id, b = transfer class, c = cost in ns *)
  | Invalidate  (** a = line id, b = shared copies invalidated *)
  | Rmw_stall  (** a = line id, b = ns spent waiting for the line *)
  | Clock_read  (** a = clock value read, c = read cost in ns *)
  | Pause  (** spin-wait hint *)
  | Span_begin  (** a = tag id *)
  | Span_end  (** a = tag id *)
  | Probe  (** a = tag id, b/c = payload *)
  | Hazard  (** a = hazard code, b = target core/thread, c = magnitude *)
  | Guard  (** a = tag id of the guard action, b/c = payload *)

let kind_code = function
  | Transfer -> 0
  | Invalidate -> 1
  | Rmw_stall -> 2
  | Clock_read -> 3
  | Pause -> 4
  | Span_begin -> 5
  | Span_end -> 6
  | Probe -> 7
  | Hazard -> 8
  | Guard -> 9

let kind_of_code =
  [| Transfer; Invalidate; Rmw_stall; Clock_read; Pause; Span_begin; Span_end; Probe; Hazard; Guard |]

(* Hazard codes (the [a] field of [Hazard]), shared with the simulator's
   hazard scheduler and the scenario DSL of [Ordo_hazard]. *)
let hz_rate = 0
let hz_step = 1
let hz_offline = 2
let hz_online = 3
let hz_migrate = 4
let hazard_names = [| "rate"; "step"; "offline"; "online"; "migrate" |]

let hazard_name code =
  if code >= 0 && code < Array.length hazard_names then hazard_names.(code) else "?"

(* Probe tags reserved for the runtime boundary guard ([Ordo_core.Guard]).
   Probes carrying one of these tags are reclassified as [Guard] events at
   emission, so guard actions are first-class in collected traces without
   the guard having to know about the sink.  [start] interns them first,
   so their ids are [0 .. n_guard_tags - 1]. *)
let tag_guard_ts = "guard.ts"  (* b = issued timestamp, c = boundary then in effect *)
let tag_guard_violation = "guard.violation"  (* b = observed excess, c = boundary *)
let tag_guard_bound = "guard.bound"  (* b = new boundary, c = observed excess *)
let tag_guard_fallback = "guard.fallback"  (* b = fallback clock seed, c = boundary *)
let tag_guard_remeasure = "guard.remeasure"  (* b = recalibrated boundary, c = excess *)

let guard_tag_names =
  [| tag_guard_ts; tag_guard_violation; tag_guard_bound; tag_guard_fallback; tag_guard_remeasure |]

let n_guard_tags = Array.length guard_tag_names

(* Probe tags emitted by the work-stealing scheduler ([Ordo_sched]).
   Plain probes — no reclassification — so the stock offline checker and
   the Chrome exporter see them without special cases. *)
let tag_sched_steal = "sched.steal"  (* b = victim worker id, c = stolen task's stamp *)
let tag_sched_park = "sched.park"  (* b = worker id, c = park count so far *)
let tag_sched_resolve = "sched.resolve"  (* b = promise id, c = certified resolution stamp *)

(* Transfer classes (the [b] field of [Transfer]), matching the simulator's
   latency tiers. *)
let cls_l1 = 0
let cls_llc = 1
let cls_mesh = 2
let cls_cross = 3
let cls_mem = 4
let n_classes = 5
let class_name = [| "l1"; "llc"; "mesh"; "cross"; "mem" |]

type event = { seq : int; time : int; tid : int; kind : kind; a : int; b : int; c : int }

type core_stat = {
  core : int;
  transfers : int array;  (* indexed by transfer class *)
  mutable invalidations : int;  (* invalidation broadcasts issued *)
  mutable inval_copies : int;  (* shared copies those broadcasts killed *)
  mutable stalls : int;
  mutable stall_ns : int;
  mutable clock_reads : int;
  mutable pauses : int;
  mutable probes : int;
  mutable hazards : int;  (* injected hazards that fired on this core *)
  mutable guards : int;  (* guard stamps/actions emitted from this core *)
  transfer_lat : Stats.Online.t;
}

type line_stat = {
  line : int;
  mutable transfers : int;
  mutable invalidations : int;
  mutable stall_ns : int;
  mutable transfer_ns : int;
}

type t = {
  events : event array;  (* ascending (time, seq) *)
  tags : string array;
  dropped : int;
  cores : core_stat array;  (* cores that emitted at least once, ascending id *)
  lines : line_stat array;  (* every line that saw traffic, unordered *)
  names : (int * string) list;  (* user labels for line ids *)
}

(* ---- the sink ---- *)

let stride = 6

type buf = { mutable data : int array; mutable emitted : int }

(* The default capacity, and the size in events a ring starts at when
   its capacity is larger.  From there it doubles up to the capacity, so
   a sink sized for its busiest thread does not hand every thread that
   much up front.  Copying on growth costs a ring that fills its capacity
   about as much again as filling it, which rings at or below this size
   never pay. *)
let first_slots = 16_384

type sink = {
  capacity : int;
  mutable bufs : buf option array;  (* indexed by tid; grown on demand *)
  mutable core_stats : core_stat option array;
  line_stats : (int, line_stat) Hashtbl.t;
  tag_ids : (string, int) Hashtbl.t;
  mutable tag_names : string array;
  mutable n_tags : int;
  line_names : (int, string) Hashtbl.t;
  seq : int Atomic.t;
  lock : Mutex.t;  (* guards growth, interning (real-substrate emits) and [users] *)
  mutable live : bool;  (* until [stop] *)
  mutable users : int;  (* domains holding it while live *)
}

(* The installed sink is *domain-local*: each domain traces (or not)
   independently, so concurrent simulations in a parallel harness never
   observe each other's events.  Emission into one sink from several
   domains remains safe (the seq counter is atomic and growth/interning
   take the lock) — a parent that wants child domains to feed its sink
   hands them its {!handle} to {!adopt} (the real substrate does this). *)
type state = { mutable sink : sink option }

let state_key : state Domain.DLS.key = Domain.DLS.new_key (fun () -> { sink = None })

(* How many domains hold a live sink.  It is read before the domain-local
   lookup, so while no domain traces, a disabled gate is one load.  [stop]
   takes all of its sink's users off the count at once; a domain that still
   holds the stopped sink then reads [live = false], so a stopped sink is
   no sink in every domain, and adopting it again installs nothing. *)
let holders = Atomic.make 0

let current () =
  if Atomic.get holders = 0 then None
  else match (Domain.DLS.get state_key).sink with Some s as o when s.live -> o | _ -> None

(* Points the calling domain's slot at [sink]; only a live sink is held
   and counted. *)
let install sink =
  let st = Domain.DLS.get state_key in
  let hold d = function
    | None -> false
    | Some s ->
      Mutex.protect s.lock (fun () ->
          if s.live then begin
            s.users <- s.users + d;
            ignore (Atomic.fetch_and_add holders d : int)
          end;
          s.live)
  in
  ignore (hold (-1) st.sink : bool);
  st.sink <- (if hold 1 sink then sink else None)

let enabled () = Option.is_some (current ())
let is_tracing = enabled

type handle = sink option

let active_handle () = current ()
let adopt h = install h

let start ?(capacity = first_slots) ?(threads = 64) () =
  if capacity < 1 then invalid_arg "Trace.start: capacity must be >= 1";
  if is_tracing () then invalid_arg "Trace.start: already tracing";
  let tag_ids = Hashtbl.create 32 and tag_names = Array.make 32 "" in
  Array.iteri
    (fun id tag ->
      tag_names.(id) <- tag;
      Hashtbl.add tag_ids tag id)
    guard_tag_names;
  install
    (Some
      {
        capacity;
        bufs = Array.make (max 1 threads) None;
        core_stats = Array.make (max 1 threads) None;
        line_stats = Hashtbl.create 64;
        tag_ids;
        tag_names;
        n_tags = n_guard_tags;
        line_names = Hashtbl.create 8;
        seq = Atomic.make 0;
        lock = Mutex.create ();
        live = true;
        users = 0;
      })

let grow array tid =
  let n = Array.length array in
  if tid < n then array
  else begin
    let bigger = Array.make (max (tid + 1) (2 * n)) None in
    Array.blit array 0 bigger 0 n;
    bigger
  end

let buf_of s tid =
  match s.bufs.(tid) with
  | Some b -> b
  | None ->
    let b = { data = Array.make (Int.min s.capacity first_slots * stride) 0; emitted = 0 } in
    s.bufs.(tid) <- Some b;
    b

let core_of s tid =
  match s.core_stats.(tid) with
  | Some c -> c
  | None ->
    let c =
      {
        core = tid;
        transfers = Array.make n_classes 0;
        invalidations = 0;
        inval_copies = 0;
        stalls = 0;
        stall_ns = 0;
        clock_reads = 0;
        pauses = 0;
        probes = 0;
        hazards = 0;
        guards = 0;
        transfer_lat = Stats.Online.create ();
      }
    in
    s.core_stats.(tid) <- Some c;
    c

let no_line = { line = -1; transfers = 0; invalidations = 0; stall_ns = 0; transfer_ns = 0 }

let line_of s line =
  match Hashtbl.find_opt s.line_stats line with
  | Some l -> l
  | None ->
    let l = { line; transfers = 0; invalidations = 0; stall_ns = 0; transfer_ns = 0 } in
    Hashtbl.add s.line_stats line l;
    l

let intern tag =
  match current () with
  | None -> -1
  | Some s ->
    (match Hashtbl.find_opt s.tag_ids tag with
    | Some id -> id
    | None ->
      Mutex.lock s.lock;
      let id =
        match Hashtbl.find_opt s.tag_ids tag with
        | Some id -> id
        | None ->
          let id = s.n_tags in
          if id >= Array.length s.tag_names then begin
            let bigger = Array.make (2 * Array.length s.tag_names) "" in
            Array.blit s.tag_names 0 bigger 0 id;
            s.tag_names <- bigger
          end;
          s.tag_names.(id) <- tag;
          s.n_tags <- id + 1;
          Hashtbl.add s.tag_ids tag id;
          id
      in
      Mutex.unlock s.lock;
      id)

let name_line line name =
  match current () with None -> () | Some s -> Hashtbl.replace s.line_names line name

let emit ~tid ~time kind ~a ~b ~c =
  match current () with
  | None -> ()
  | Some s ->
    if tid >= Array.length s.bufs then begin
      Mutex.lock s.lock;
      s.bufs <- grow s.bufs tid;
      s.core_stats <- grow s.core_stats tid;
      Mutex.unlock s.lock
    end;
    let cs = core_of s tid in
    (* A probe carrying a reserved guard tag is really a guard action. *)
    let kind = match kind with Probe when a >= 0 && a < n_guard_tags -> Guard | k -> k in
    (match kind with
    | Transfer ->
      cs.transfers.(b) <- cs.transfers.(b) + 1;
      Stats.Online.add cs.transfer_lat (float_of_int c);
      let ls = line_of s a in
      ls.transfers <- ls.transfers + 1;
      ls.transfer_ns <- ls.transfer_ns + c
    | Invalidate ->
      cs.invalidations <- cs.invalidations + 1;
      cs.inval_copies <- cs.inval_copies + b;
      let ls = line_of s a in
      ls.invalidations <- ls.invalidations + 1
    | Rmw_stall ->
      cs.stalls <- cs.stalls + 1;
      cs.stall_ns <- cs.stall_ns + b;
      let ls = line_of s a in
      ls.stall_ns <- ls.stall_ns + b
    | Clock_read -> cs.clock_reads <- cs.clock_reads + 1
    | Pause -> cs.pauses <- cs.pauses + 1
    | Span_begin | Span_end | Probe -> cs.probes <- cs.probes + 1
    | Hazard -> cs.hazards <- cs.hazards + 1
    | Guard -> cs.guards <- cs.guards + 1);
    let buf = buf_of s tid in
    let slots = Array.length buf.data / stride in
    if buf.emitted = slots && slots < s.capacity then begin
      let bigger = Array.make (Int.min s.capacity (2 * slots) * stride) 0 in
      Array.blit buf.data 0 bigger 0 (slots * stride);
      buf.data <- bigger
    end;
    (* Below capacity, [emitted] is under the ring's size and indexes it
       directly; at capacity the ring wraps. *)
    let i = buf.emitted mod s.capacity * stride in
    buf.data.(i) <- Atomic.fetch_and_add s.seq 1;
    buf.data.(i + 1) <- time;
    buf.data.(i + 2) <- kind_code kind;
    buf.data.(i + 3) <- a;
    buf.data.(i + 4) <- b;
    buf.data.(i + 5) <- c;
    buf.emitted <- buf.emitted + 1

(* ---- collection ---- *)

(* A slice [next, stop) of one ring's data array, in words ([stride] per
   event), whose events ascend by (time, seq). *)
type run = { rtid : int; data : int array; mutable next : int; stop : int }

(* Cuts the slice [lo, hi) of a ring at every step back.  [seq] ascends
   along a ring, so times are all that can step back.  They do when a
   producer stamps an event with another instant than its emitter's clock
   — the simulator emits [Hazard] events at the hazard's instant under the
   target's tid. *)
let cut rtid data lo hi acc =
  let acc = ref acc and start = ref lo in
  let i = ref (lo + stride) in
  while !i < hi do
    if data.(!i + 1) < data.(!i + 1 - stride) then begin
      acc := { rtid; data; next = !start; stop = !i } :: !acc;
      start := !i
    end;
    i := !i + stride
  done;
  if hi > lo then { rtid; data; next = !start; stop = hi } :: !acc else !acc

(* A tid's retained window, its last [capacity] emissions, as runs.  Once
   the ring has wrapped, the window starts at the oldest slot and wraps
   past the array's end, so it is two slices (one when the oldest slot is
   slot 0). *)
let runs_of capacity tid (b : buf) acc =
  if b.emitted <= capacity then cut tid b.data 0 (b.emitted * stride) acc
  else
    let wrap = b.emitted mod capacity * stride in
    cut tid b.data wrap (capacity * stride) acc |> cut tid b.data 0 wrap

(* K-way merge of the runs through a loser tree keyed by each run's next
   (time, seq), straight into the output array. *)
let merge runs =
  let total = Array.fold_left (fun acc r -> acc + ((r.stop - r.next) / stride)) 0 runs in
  let blank = { seq = 0; time = 0; tid = 0; kind = Transfer; a = 0; b = 0; c = 0 } in
  let events = Array.make total blank in
  let m = Kmerge.create (Array.length runs) in
  Array.iteri (fun k r -> Kmerge.set m k r.data.(r.next + 1) r.data.(r.next)) runs;
  let w = ref (Kmerge.start m) in
  for n = 0 to total - 1 do
    let r = runs.(!w) in
    let data = r.data and i = r.next in
    events.(n) <-
      {
        seq = data.(i);
        time = data.(i + 1);
        tid = r.rtid;
        kind = kind_of_code.(data.(i + 2));
        a = data.(i + 3);
        b = data.(i + 4);
        c = data.(i + 5);
      };
    let i = i + stride in
    r.next <- i;
    w :=
      if i < r.stop then Kmerge.next m data.(i + 1) data.(i)
      else Kmerge.drop m
  done;
  events

let stop () =
  match current () with
  | None -> invalid_arg "Trace.stop: not tracing"
  | Some s ->
    Mutex.protect s.lock (fun () ->
        s.live <- false;
        ignore (Atomic.fetch_and_add holders (-s.users) : int);
        s.users <- 0);
    (Domain.DLS.get state_key).sink <- None;
    let runs = ref [] and dropped = ref 0 in
    Array.iteri
      (fun tid buf ->
        match buf with
        | Some b when b.emitted > 0 ->
          dropped := !dropped + max 0 (b.emitted - s.capacity);
          runs := runs_of s.capacity tid b !runs
        | _ -> ())
      s.bufs;
    let events = merge (Array.of_list !runs) in
    (* [core_stats] is indexed by tid, so its filter ascends by core. *)
    let cores = Array.to_list s.core_stats |> List.filter_map Fun.id |> Array.of_list in
    (* Unranked: ranking is [Metrics.hottest]'s, which wants a few of them. *)
    let lines = Array.make (Hashtbl.length s.line_stats) no_line and i = ref 0 in
    Hashtbl.iter
      (fun _ l ->
        lines.(!i) <- l;
        incr i)
      s.line_stats;
    {
      events;
      tags = Array.sub s.tag_names 0 s.n_tags;
      dropped = !dropped;
      cores;
      lines;
      names = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.line_names [] |> List.sort compare;
    }

(* ---- queries on a collected trace ---- *)

let tag_name t id = if id >= 0 && id < Array.length t.tags then t.tags.(id) else "?"

let find_tag t name =
  let rec scan i =
    if i >= Array.length t.tags then None else if t.tags.(i) = name then Some i else scan (i + 1)
  in
  scan 0

let line_label t line =
  match List.assoc_opt line t.names with
  | Some n -> n
  | None -> Printf.sprintf "line#%d" line
