(* Single-thread engine throughput probes, recorded in the --json perf
   record.  Four profiles stress the simulator's distinct hot paths:

   - [rmw]    contended fetch-add on one line (exclusive-completion path,
              RNG-jittered private work): the logical-clock bottleneck.
   - [shared] one line read-shared by all 240 Xeon threads (read-hit path
              and the big-mode sharer bitmap; nearly every operation parks
              in the event queue).
   - [sched]  private lines only (read/write/work): pure scheduler and
              event-queue overhead.
   - [lines]  random reads and writes by 120 threads over 200 k lines,
              half of them used only by threads at or above
              [Sharers.small_limit] (big-mode sharer sets): the one probe
              whose cost is the cell layout, since almost every access
              misses a line far out of cache.

   Each profile runs under a fresh simulator instance so the numbers are
   independent of whatever the harness ran before.  Event counts are
   deterministic; only the wall clock varies. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Rng = Ordo_util.Rng

type result = {
  name : string;
  events : int;
  wall_s : float;
  events_per_s : float;
  minor_words_per_event : float;
      (* Allocation per simulated event — deterministic for a given
         binary, unlike wall time, so the perf gate can compare it across
         runs on a loaded 1-CPU CI host. *)
}

let rmw () =
  let total = ref 0 in
  for r = 1 to 40 do
    let c = R.cell 0 in
    let s =
      Sim.run Machine.xeon ~threads:32 (fun i ->
          let rng = Rng.create ~seed:(Int64.of_int (i + r)) () in
          while R.now () < 1_000_000 do
            ignore (R.fetch_add c 1 : int);
            R.work (50 + Rng.int rng 50)
          done)
    in
    total := !total + s.Ordo_sim.Engine.events
  done;
  !total

let shared () =
  let total = ref 0 in
  for r = 1 to 2 do
    let c = R.cell 0 and w = R.cell 0 in
    let s =
      Sim.run Machine.xeon ~threads:240 (fun i ->
          let rng = Rng.create ~seed:(Int64.of_int (i + r)) () in
          while R.now () < 300_000 do
            if i = 0 && Rng.int rng 100 = 0 then ignore (R.fetch_add w 1 : int)
            else ignore (R.read c : int);
            R.work 30
          done)
    in
    total := !total + s.Ordo_sim.Engine.events
  done;
  !total

let sched () =
  let total = ref 0 in
  for _ = 1 to 3 do
    let s =
      Sim.run Machine.xeon ~threads:64 (fun i ->
          let c = R.cell i in
          while R.now () < 500_000 do
            ignore (R.read c : int);
            R.write c i;
            R.work 20
          done)
    in
    total := !total + s.Ordo_sim.Engine.events
  done;
  !total

let lines () =
  let half = 100_000 in
  let cells = Array.init (2 * half) R.cell in
  let s =
    Sim.run Machine.xeon ~threads:120 (fun i ->
        let rng = Rng.create ~seed:(Int64.of_int (i + 1)) () in
        let base = if i >= Ordo_sim.Sharers.small_limit then half else 0 in
        while R.now () < 400_000 do
          let c = cells.(base + Rng.int rng half) in
          if Rng.int rng 4 = 0 then R.write c i else ignore (R.read c : int);
          R.work 20
        done)
  in
  s.Ordo_sim.Engine.events

let profiles = [ ("rmw", rmw); ("shared", shared); ("sched", sched); ("lines", lines) ]

(* Each profile is timed [repetitions] times and the minimum wall time is
   kept — the standard way to strip scheduler and frequency noise from a
   deterministic workload's measurement. *)
let repetitions = 3

let run () =
  List.map
    (fun (name, f) ->
      Sim.with_fresh_instance (fun () ->
          let events = ref 0 and best = ref infinity and mw = ref 0.0 in
          for _ = 1 to repetitions do
            let t0 = Unix.gettimeofday () in
            let w0 = Gc.minor_words () in
            let ev = f () in
            let w1 = Gc.minor_words () in
            let wall = Unix.gettimeofday () -. t0 in
            events := ev;
            mw := (w1 -. w0) /. float_of_int ev;
            if wall < !best then best := wall
          done;
          {
            name;
            events = !events;
            wall_s = !best;
            events_per_s = float_of_int !events /. !best;
            minor_words_per_event = !mw;
          }))
    profiles
