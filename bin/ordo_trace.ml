(* Trace a simulated workload, print its coherence-traffic profile,
   export a Chrome trace_event JSON (chrome://tracing / Perfetto), and
   run the offline ordering-invariant checker against the measured
   ORDO_BOUNDARY.  --inject-skew grows one socket's clock offset *after*
   the boundary was measured, which must make the checker fail — the
   negative test for the whole pipeline. *)

open Cmdliner
module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Engine = Ordo_sim.Engine
module Topology = Ordo_util.Topology
module Rng = Ordo_util.Rng
module Report = Ordo_util.Report
module Trace = Ordo_trace.Trace
module Metrics = Ordo_trace.Metrics
module Chrome = Ordo_trace.Chrome
module Checker = Ordo_trace.Checker
module Race = Ordo_analyze.Race
module Workloads = Ordo_workloads.Workloads

(* Workload bodies and boundary measurement live in {!Workloads},
   shared with the hazard CLI. *)

let measure_boundary = Workloads.measure_boundary

(* Clone a machine with [extra] ns added to every non-zero socket's clock
   reset — skew the boundary measurement never saw. *)
let inject_skew (m : Machine.t) extra =
  let per_socket = m.Machine.topo.Topology.cores_per_socket in
  {
    m with
    Machine.reset_ns =
      Array.mapi
        (fun p r -> if p / per_socket > 0 then r + extra else r)
        m.Machine.reset_ns;
  }

let ordo_ts boundary : (module Ordo_core.Timestamp.S) =
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
  (module Ordo_core.Timestamp.Ordo_source (O))

let logical_ts () : (module Ordo_core.Timestamp.S) =
  (module Ordo_core.Timestamp.Logical (R) ())

let run_workload name machine ts ~threads ~dur =
  ignore (Workloads.run name machine ts ~threads ~dur : Engine.stats)

(* ---- driver ---- *)

let run machine_name workload source threads dur capacity out skew no_check analyze strict =
  (* Own simulator instance: boundary measurement and traced workload run
     on one continuous per-instance timeline. *)
  Sim.with_fresh_instance @@ fun () ->
  match Machine.by_name machine_name with
  | None ->
    Printf.eprintf "unknown machine %S (available: xeon phi amd arm)\n" machine_name;
    exit 2
  | Some _ when capacity < 1 ->
    Printf.eprintf "--capacity must be >= 1 (got %d)\n" capacity;
    exit 2
  | Some _ when dur < 1 ->
    Printf.eprintf "--dur must be >= 1 (got %d)\n" dur;
    exit 2
  | Some m when threads < 1 || threads > Topology.total_threads m.Machine.topo ->
    Printf.eprintf "--threads must be in 1..%d on %s (got %d)\n"
      (Topology.total_threads m.Machine.topo) machine_name threads;
    exit 2
  | Some base ->
    Report.section
      (Printf.sprintf "ordo-trace: %s/%s on %s" workload source machine_name);
    let total = Topology.total_threads base.Machine.topo in
    (* The boundary is always measured on the *unskewed* machine; the
       workload then runs with whatever skew was injected. *)
    let boundary = measure_boundary base in
    Report.kv "measured ORDO_BOUNDARY (ns)" (string_of_int boundary);
    let machine = if skew > 0 then inject_skew base skew else base in
    if skew > 0 then Report.kv "injected extra socket skew (ns)" (string_of_int skew);
    let ts, check_boundary =
      match source with
      | "ordo" -> (ordo_ts boundary, boundary)
      | "logical" -> (logical_ts (), 0)
      | s ->
        Printf.eprintf "unknown source %S (available: ordo logical)\n" s;
        exit 2
    in
    Trace.start ~capacity ~threads:total ();
    if analyze then Race.start ~boundary:check_boundary ~threads:total ();
    run_workload workload machine ts ~threads ~dur;
    let verdict = if analyze then Some (Race.stop ()) else None in
    let t = Trace.stop () in
    Report.kv "events collected" (string_of_int (Array.length t.Trace.events));
    (* Strict mode: a wrapped ring means the offline checker would judge a
       truncated stream — refuse to compute verdicts on it. *)
    if strict && t.Trace.dropped > 0 then begin
      Printf.eprintf
        "--strict: %d events dropped to ring wrap-around (capacity %d); rerun with a larger \
         --capacity\n"
        t.Trace.dropped capacity;
      exit 1
    end;
    Metrics.print ~label:workload t;
    (match out with
    | None -> ()
    | Some path ->
      Chrome.write_file t path;
      Report.kv "chrome trace written" path);
    let race_bad =
      match verdict with
      | None -> false
      | Some r ->
        List.iter print_endline (Race.describe r);
        not (Race.ok r)
    in
    if no_check then if race_bad then 1 else 0
    else begin
      let report = Checker.check ~boundary:check_boundary t in
      List.iter print_endline (Checker.describe report);
      if Checker.ok report && not race_bad then 0 else 1
    end

let machine_arg =
  let doc = "Simulated machine preset: xeon, phi, amd or arm." in
  Arg.(value & opt string "xeon" & info [ "machine"; "m" ] ~docv:"NAME" ~doc)

let workload_arg =
  let doc =
    "Workload to trace: occ, hekaton, tl2, rlu, oplog — or a seeded-defect fixture for \
     --analyze: race (unsynchronized writers), window (ordering assumed inside \
     ORDO_BOUNDARY), handshake (the same handoff done right; stays silent)."
  in
  Arg.(value & opt string "occ" & info [ "workload"; "w" ] ~docv:"NAME" ~doc)

let source_arg =
  let doc = "Timestamp source: ordo (measured boundary) or logical (global counter)." in
  Arg.(value & opt string "ordo" & info [ "source"; "s" ] ~docv:"SRC" ~doc)

let threads_arg =
  let doc =
    "Simulated threads (placed on hardware threads 0..N-1), from 1 to the machine's \
     hardware thread count."
  in
  Arg.(value & opt int 16 & info [ "threads"; "t" ] ~docv:"N" ~doc)

let dur_arg =
  let doc = "Workload duration in virtual ns." in
  Arg.(value & opt int 150_000 & info [ "dur" ] ~docv:"NS" ~doc)

let capacity_arg =
  let doc = "Per-thread event-ring capacity (oldest events drop; counters stay exact)." in
  Arg.(value & opt int 16_384 & info [ "capacity" ] ~docv:"N" ~doc)

let out_arg =
  let doc = "Write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)." in
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let skew_arg =
  let doc =
    "Add this many ns of clock skew to every socket but the first, after the boundary \
     measurement — the ordering checker must then report violations."
  in
  Arg.(value & opt int 0 & info [ "inject-skew" ] ~docv:"NS" ~doc)

let no_check_arg =
  let doc = "Skip the offline ordering-invariant checker." in
  Arg.(value & flag & info [ "no-check" ] ~doc)

let analyze_arg =
  let doc =
    "Run the dynamic race detector alongside the trace: vector-clock happens-before over \
     cell accesses, where timestamp edges are admitted only when cmp_time is certain.  \
     Nonzero exit on any conflict (the seeded fixtures $(b,race) and $(b,window) must \
     fire; correct workloads must stay silent)."
  in
  Arg.(value & flag & info [ "analyze" ] ~doc)

let strict_arg =
  let doc =
    "Fail (exit 1) if the event rings dropped anything, so no verdict is ever computed on \
     a truncated stream."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let cmd =
  let doc = "Trace a simulated Ordo workload, export it, and check ordering invariants" in
  Cmd.v (Cmd.info "ordo-trace" ~doc)
    Term.(
      const run $ machine_arg $ workload_arg $ source_arg $ threads_arg $ dur_arg
      $ capacity_arg $ out_arg $ skew_arg $ no_check_arg $ analyze_arg $ strict_arg)

let () = exit (Cmd.eval' cmd)
