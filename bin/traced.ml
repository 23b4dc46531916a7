(* What ordo_trace and ordo_hazard share: the nine flags that pick and
   trace a simulated workload, the traced run, and the verdict tail. *)

open Cmdliner
module Machine = Ordo_sim.Machine
module Topology = Ordo_util.Topology
module Report = Ordo_util.Report
module Trace = Ordo_trace.Trace
module Checker = Ordo_trace.Checker
module Race = Ordo_analyze.Race
module Workloads = Ordo_workloads.Workloads

type flags = {
  machine_name : string;
  machine : Machine.t;
  workload : string;
  threads : int;
  dur : int;
  capacity : int;
  out : string option;
  no_check : bool;
  analyze : bool;
  strict : bool;
}

let flags ~machine ~analyze_doc =
  let make (machine_name, machine) (workload, ()) threads dur capacity out no_check analyze
      strict =
    let total = Topology.total_threads machine.Machine.topo in
    if threads < 1 || threads > total then
      Error
        (Printf.sprintf "--threads must be in 1..%d on %s (got %d)" total machine_name threads)
    else
      Ok
        { machine_name; machine; workload; threads; dur; capacity; out; no_check; analyze;
          strict }
  in
  let machine =
    let doc = "Simulated machine preset: xeon, phi, amd or arm." in
    Arg.(
      value
      & opt Cli.machine (Cli.default Cli.machine machine)
      & info [ "machine"; "m" ] ~docv:"NAME" ~doc)
  in
  let workload =
    let doc =
      "Workload to run: occ, hekaton, tl2, rlu, oplog — or a seeded-defect fixture for \
       --analyze: race (unsynchronized writers), window (ordering assumed inside \
       ORDO_BOUNDARY), handshake (the same handoff done right; stays silent)."
    in
    let workloads =
      Cli.choice ~what:"workload" (List.map (fun n -> (n, ())) Workloads.names)
    in
    Arg.(
      value
      & opt workloads (Cli.default workloads "occ")
      & info [ "workload"; "w" ] ~docv:"NAME" ~doc)
  in
  let threads =
    let doc =
      "Simulated threads (placed on hardware threads 0..N-1), from 1 to the machine's \
       hardware thread count."
    in
    Arg.(value & opt int 16 & info [ "threads"; "t" ] ~docv:"N" ~doc)
  in
  let dur =
    let doc = "Workload duration in virtual ns." in
    Arg.(value & opt (Cli.int_min 1) 150_000 & info [ "dur" ] ~docv:"NS" ~doc)
  in
  let capacity =
    let doc = "Per-thread event-ring capacity (oldest events drop; counters stay exact)." in
    Arg.(value & opt (Cli.int_min 1) 16_384 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let no_check =
    let doc = "Skip the offline ordering-invariant checker." in
    Arg.(value & flag & info [ "no-check" ] ~doc)
  in
  let analyze = Arg.(value & flag & info [ "analyze" ] ~doc:analyze_doc) in
  let strict =
    let doc =
      "Fail (exit 1) if the event rings dropped anything, so no verdict is ever computed on \
       a truncated stream."
    in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  Term.(
    term_result'
      (const make $ machine $ workload $ threads $ dur $ capacity $ out $ no_check $ analyze
     $ strict))

(* Run [body] under the trace sink, and under the race detector judging
   by [boundary] with --analyze. *)
let run f ~boundary body =
  let total = Topology.total_threads f.machine.Machine.topo in
  Trace.start ~capacity:f.capacity ~threads:total ();
  if f.analyze then Race.start ~boundary ~threads:total ();
  let v = body () in
  let race = if f.analyze then Some (Race.stop ()) else None in
  (v, Trace.stop (), race)

(* The exit code of a traced run: 1 on a wrapped ring under --strict;
   otherwise the tool's [report], the Chrome export, and the race and
   [check] verdicts. *)
let verdict f ~check ~report t race =
  if f.strict && t.Trace.dropped > 0 then begin
    Printf.eprintf
      "--strict: %d events dropped to ring wrap-around (capacity %d); rerun with a larger \
       --capacity\n"
      t.Trace.dropped f.capacity;
    1
  end
  else begin
    report ();
    Option.iter
      (fun path ->
        Ordo_trace.Chrome.write_file t path;
        Report.kv "chrome trace written" path)
      f.out;
    let race_bad =
      match race with
      | None -> false
      | Some r ->
        List.iter print_endline (Race.describe r);
        not (Race.ok r)
    in
    if f.no_check then Bool.to_int race_bad
    else begin
      let report = check t in
      List.iter print_endline (Checker.describe report);
      if Checker.ok report && not race_bad then 0 else 1
    end
  end
