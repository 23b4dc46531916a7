(* What the suites comparing a library wait against its explicit-loop
   reference ([Ordo_ref], [Mcs_ref]) share: the machine, the tracing
   wrapper and the checks that two runs agree on the engine's stats and
   on the whole trace stream.  Xeon at 120 threads with four times the
   preset's interrupt noise, so that noise draws land inside the waits. *)

module Machine = Ordo_sim.Machine
module Engine = Ordo_sim.Engine
module Trace = Ordo_trace.Trace

let noisy_xeon = { Machine.xeon with Machine.noise_prob = 0.04 }
let threads = 120

let traced f =
  Trace.start ~threads ();
  let r = f () in
  let t = Trace.stop () in
  (r, t)

let check_stats name (s1 : Engine.stats) (s2 : Engine.stats) =
  Alcotest.(check int) (name ^ ": events") s2.events s1.events;
  Alcotest.(check int) (name ^ ": end_vtime") s2.end_vtime s1.end_vtime

let check_trace name (t1 : Trace.t) (t2 : Trace.t) =
  Alcotest.(check int) (name ^ ": trace length") (Array.length t2.Trace.events)
    (Array.length t1.Trace.events);
  Alcotest.(check int) (name ^ ": dropped") t2.Trace.dropped t1.Trace.dropped;
  Alcotest.(check bool) (name ^ ": trace stream") true (t1.Trace.events = t2.Trace.events);
  Alcotest.(check bool) (name ^ ": tags") true (t1.Trace.tags = t2.Trace.tags)

let has kind (t : Trace.t) =
  Array.exists (fun (e : Trace.event) -> e.Trace.kind = kind) t.Trace.events
