(* Shared machinery for the experiment harness: machine sweeps, boundary
   measurement/caching, timestamp-source construction and throughput
   loops.  Everything runs on the simulator; Micro.ml covers the live
   host. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Rng = Ordo_util.Rng
module Topology = Ordo_util.Topology
module Report = Ordo_util.Report

let machines = Machine.presets
let machine_label (m : Machine.t) = m.Machine.topo.Topology.name

(* ---- parallel execution ----

   Experiment *cells* (one simulator configuration each) run as tasks on
   a domain pool.  Every task executes under a fresh simulator instance
   whether the pool is parallel or not (see [Ordo_sim.Pool]), so the
   numbers a cell produces are independent of job count, task order and
   domain placement — [--jobs n] output is byte-identical to [--jobs 1].
   Tasks must build all their simulator state (cells, timestamp sources,
   workload tables) inside the task body; sharing an [R.cell] or a
   timestamp source between tasks would race across domains. *)

let jobs = ref 1
let par_map f xs = Ordo_sim.Pool.map ~jobs:!jobs f xs

(* A table of cells: every [(row, cell)] pair of [rows] is one pool task
   [f row cell], all of them in one flat task list so rows run side by
   side.  Rows may differ in length.  Returns each row with its cells
   paired with their results, in the order given. *)
let par_grid f rows =
  let results =
    Array.of_list
      (par_map
         (fun (row, cell) -> f row cell)
         (List.concat_map (fun (row, cells) -> List.map (fun c -> (row, c)) cells) rows))
  in
  snd
    (List.fold_left_map
       (fun off (row, cells) ->
         (off + List.length cells, (row, List.mapi (fun i c -> (c, results.(off + i))) cells)))
       0 rows)

(* Opt-in gate for live multi-domain throughput measurement (the [live]
   experiment's table).  Off by default so the stock bench output stays
   byte-identical across hosts and job counts — a 1-CPU CI runner asserts
   only the determinism-insensitive invariant lines. *)
let live = ref false

(* Network work of the service runs an experiment made: event-queue pops
   and inbox re-stamps, summed over its cells ([None] if it made none).
   Both are deterministic, so the perf record carries them as exact
   columns.  Add from the calling domain, after [par_map] returns. *)
let net_work : (int * int) option ref = ref None

let add_net_work ~pops ~restamps =
  let p, r = Option.value !net_work ~default:(0, 0) in
  net_work := Some (p + pops, r + restamps)

(* Thread counts swept for a machine: physical cores socket by socket,
   then SMT lanes, like the paper's x axes. *)
let cores_for ?(full = false) (m : Machine.t) =
  let topo = m.Machine.topo in
  let total = Topology.total_threads topo in
  let physical = Topology.physical_cores topo in
  let per_socket = topo.Topology.cores_per_socket in
  let candidates =
    if full then
      let rec doubling acc n = if n >= total then List.rev (total :: acc) else doubling (n :: acc) (n * 2) in
      doubling [] 1 @ [ per_socket; physical / 2; physical ]
    else [ 1; per_socket; physical / 2; physical; total ]
  in
  List.sort_uniq compare (List.filter (fun n -> n >= 1 && n <= total) candidates)

(* Sampled hardware threads for offset matrices: cover every socket and
   the SMT extremes without measuring all O(n^2) pairs. *)
let sample_cores ?(count = 12) (m : Machine.t) =
  let topo = m.Machine.topo in
  let total = Topology.total_threads topo in
  let stride = max 1 (total / count) in
  let picks = List.init total Fun.id |> List.filter (fun i -> i mod stride = 0) in
  (* Always include the last thread of the last socket (the RESET outlier
     in the Xeon/ARM presets lives there). *)
  let physical = Topology.physical_cores topo in
  List.sort_uniq compare ((physical - 1) :: (total - 1) :: picks)

(* Measured ORDO_BOUNDARY per machine, memoized.  Tasks on any pool
   domain may ask for it, so the table is mutex-protected; the
   measurement itself runs under a *nested* fresh simulator instance, so
   the cached value is the same no matter which task computes it first —
   a cache hit and a cache miss yield identical numbers. *)
let boundary_lock = Mutex.create ()
let boundary_cache : (string, int) Hashtbl.t = Hashtbl.create 8

let set_boundary (m : Machine.t) b =
  Mutex.protect boundary_lock (fun () ->
      Hashtbl.replace boundary_cache m.Machine.topo.Topology.name b)

let boundary_of ?(runs = 60) (m : Machine.t) =
  let key = m.Machine.topo.Topology.name in
  Mutex.protect boundary_lock (fun () ->
      match Hashtbl.find_opt boundary_cache key with
      | Some b -> b
      | None ->
        let b =
          Sim.with_fresh_instance (fun () ->
              let module E = (val Sim.exec m) in
              let module B = Ordo_core.Boundary.Make (E) in
              B.measure ~runs ~cores:(sample_cores m) ())
        in
        Hashtbl.add boundary_cache key b;
        b)

(* Timestamp sources.  [logical] is generative (fresh global clock); the
   ordo source closes over the machine's measured boundary. *)
let logical_ts () : (module Ordo_core.Timestamp.S) =
  (module Ordo_core.Timestamp.Logical (R) ())

let ordo_ts ?boundary (m : Machine.t) : (module Ordo_core.Timestamp.S) =
  let b = match boundary with Some b -> b | None -> boundary_of m in
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = b end) in
  (module Ordo_core.Timestamp.Ordo_source (O))

(* Closed-loop throughput: run [op] on every thread with a warmup, return
   operations per microsecond. *)
let throughput ?(warm = 100_000) ?(dur = 400_000) ?(finish = fun _ -> ()) machine ~threads op =
  let ops = Array.make threads 0 in
  ignore
    (Sim.run machine ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int ((i * 7919) + 13)) () in
         while R.now () < warm do
           op i rng
         done;
         while R.now () < warm + dur do
           op i rng;
           ops.(i) <- ops.(i) + 1
         done;
         (* Per-thread teardown before the fiber exits (e.g. flushing RLU
            deferred commits, which would otherwise leave objects locked
            and spin conflicting threads forever). *)
         finish i)
      : Ordo_sim.Engine.stats);
  float_of_int (Array.fold_left ( + ) 0 ops) /. (float_of_int dur /. 1000.)

(* Several series over the same machine and thread counts, every
   (threads, series) cell one pool task.  Each [make] builds its whole
   configuration inside the task (the per-op closure and a per-thread
   teardown).  Returns one [(threads, rates)] row
   per thread count, the rates in the order of [makes]. *)
let par_sweeps ?full ?warm ?dur machine makes =
  par_grid
    (fun threads make ->
      let op, finish = make ~threads in
      throughput ?warm ?dur ~finish machine ~threads op)
    (List.map (fun threads -> (threads, makes)) (cores_for ?full machine))
  |> List.map (fun (threads, cells) -> (threads, List.map snd cells))
