(* Drive the replicated service layer end to end: measure the composed
   cross-node ORDO_BOUNDARY, run the session workload against replica
   groups with epoch group-commit, admission control and lease-based
   failover, optionally under a node-death chaos scenario, and report
   throughput/latency, the degrade/promote/recover timeline and the
   stock offline checker's verdict on the recorded trace.

   Cells (e.g. epoch vs per-transaction commit wait under --compare) run
   as independent tasks on the simulator domain pool: each task builds
   its own cluster and trace sink, so --jobs n output is byte-identical
   to --jobs 1.

   Exit status: 0 all invariants hold and the checker is clean; 1 a
   checker violation, a conservation/exactly-once breach, a leaked lock
   or replica divergence; 2 usage errors. *)

open Cmdliner
module Report = Ordo_util.Report
module Net = Ordo_cluster.Net
module Compose = Ordo_cluster.Compose
module Service = Ordo_service.Service
module Chaos = Ordo_service.Chaos
module Sessions = Ordo_workloads.Sessions
module Node_fault = Ordo_hazard.Node_fault
module Trace = Ordo_trace.Trace
module Checker = Ordo_trace.Checker

let ns f = Printf.sprintf "%.0f ns" f

type cell = {
  c_label : string;
  c_result : Service.result;
  c_fault : Node_fault.t;
  c_check : Checker.report option;
}

let run_cell ~boundary ~check ~label spec cfg fault =
  if check then Trace.start ~capacity:262_144 ();
  let r = Service.run ~boundary ~fault spec cfg in
  let rep =
    if check then Some (Checker.check ~boundary (Trace.stop ())) else None
  in
  { c_label = label; c_result = r; c_fault = fault; c_check = rep }

(* Everything the run promised, checked; returns false on any breach. *)
let report_cell c =
  let r = c.c_result in
  Report.section (Printf.sprintf "Service: %s" c.c_label);
  Report.kv "sessions opened / closed / reconnects"
    (Printf.sprintf "%d / %d / %d" r.Service.sessions_opened
       r.Service.sessions_closed r.Service.reconnects);
  Report.kv "ops issued / committed / failed"
    (Printf.sprintf "%d / %d / %d" r.Service.issued r.Service.committed
       r.Service.failed);
  Report.kv "cross-group committed"
    (Printf.sprintf "%d of %d" r.Service.cross_committed r.Service.cross_issued);
  Report.kv "storm ops" (string_of_int r.Service.storm_ops);
  Report.kv "throughput" (Printf.sprintf "%.2f ops/us" r.Service.throughput);
  Report.kv "latency mean / p50 / p99"
    (Printf.sprintf "%s / %s / %s" (ns r.Service.mean_ns) (ns r.Service.p50_ns)
       (ns r.Service.p99_ns));
  Report.kv "epochs / epoch txns"
    (Printf.sprintf "%d / %d" r.Service.epochs r.Service.epoch_txns);
  Report.kv "commit waits"
    (Printf.sprintf "%d (%d ns total)" r.Service.commit_waits r.Service.wait_ns);
  Report.kv "replication shipped / applied / dups / stale"
    (Printf.sprintf "%d / %d / %d / %d" r.Service.rep_shipped
       r.Service.rep_applied r.Service.rep_dups r.Service.rep_stale);
  Report.kv "admission shed (client-observed)" (string_of_int r.Service.shed_replies);
  Array.iteri
    (fun g s ->
      Report.kv
        (Printf.sprintf "group %d admitted / shed / depth-hw" g)
        (Printf.sprintf "%d / %d / %d" s.Service.g_admitted s.Service.g_shed
           s.Service.g_depth_hw))
    r.Service.per_group;
  Report.kv "promotions / degraded reads / snapshots"
    (Printf.sprintf "%d / %d / %d" r.Service.promotions r.Service.degraded_reads
       r.Service.snapshots);
  Report.kv "messages / dropped"
    (Printf.sprintf "%d / %d" r.Service.messages r.Service.dropped);
  if r.Service.timeline <> [] then begin
    Report.section (Printf.sprintf "Chaos timeline: %s" c.c_fault.Node_fault.name);
    List.iter
      (fun e -> print_endline ("  " ^ Chaos.describe_event e))
      r.Service.timeline
  end;
  let broken = Service.violations r in
  List.iter (fun s -> print_endline ("INVARIANT FAILED: " ^ s)) broken;
  if broken = [] then
    Report.kv "exactly-once / conservation / locks / divergence" "all ok";
  let checker_ok =
    match c.c_check with
    | None -> true
    | Some rep ->
      let ok = Checker.ok rep in
      Report.kv "checker"
        (if ok then "ok (0 violations)"
         else Printf.sprintf "%d violation(s)" (List.length rep.Checker.violations));
      ok
  in
  broken = [] && checker_ok

let run_main spec sessions dur epoch compare_flag (_, preset) seed jobs no_check =
  let boundary =
    Ordo_sim.Sim.with_fresh_instance @@ fun () ->
    let c = Compose.measure spec in
    Report.section
      (Printf.sprintf "Composed Ordo measurement: %s" (Net.Spec.to_string spec));
    Report.kv "nodes" (string_of_int spec.Net.Spec.nodes);
    Report.kv "replica groups"
      (Printf.sprintf "%dx%d" (Net.Spec.groups spec) spec.Net.Spec.replicas);
    Report.kv "ORDO_BOUNDARY_cluster (ns)" (string_of_int c.Compose.boundary);
    c.Compose.boundary
  in
  let fault =
    preset ~seed ~dur ~groups:(Net.Spec.groups spec) ~replicas:spec.Net.Spec.replicas
  in
  let cfg =
    {
      Service.default with
      Service.profile = { Sessions.default with Sessions.sessions; dur_ns = dur };
      epoch_ns = epoch;
      seed;
    }
  in
  let cells =
    if compare_flag then
      [
        ("epoch group-commit", { cfg with Service.epoch_ns = Int.max 1 epoch });
        ("per-txn commit wait", { cfg with Service.epoch_ns = 0 });
      ]
    else [ ((if epoch = 0 then "per-txn commit wait" else "epoch group-commit"), cfg) ]
  in
  let results =
    Ordo_sim.Pool.map ~jobs
      (fun (label, cfg) -> run_cell ~boundary ~check:(not no_check) ~label spec cfg fault)
      cells
  in
  if List.for_all report_cell results then 0 else 1

let spec_arg =
  let doc =
    "Cluster spec: <groups>x<replicas>x<machine>[:k=v,..], e.g. 3x2xamd."
  in
  Arg.(
    value & opt Cli.spec (Cli.default Cli.spec "3x2xamd") & info [ "spec" ] ~docv:"SPEC" ~doc)

let sessions_arg =
  let doc = "Client sessions to open over the arrival window." in
  Arg.(value & opt (Cli.int_min 1) 400 & info [ "sessions" ] ~docv:"N" ~doc)

let dur_arg =
  let doc = "Arrival window in virtual ns (the run then drains)." in
  Arg.(value & opt (Cli.int_min 1) 400_000 & info [ "dur" ] ~docv:"NS" ~doc)

let epoch_arg =
  let doc = "Group-commit epoch in ns; 0 commit-waits per transaction." in
  Arg.(value & opt (Cli.int_min 0) 1_500 & info [ "epoch" ] ~docv:"NS" ~doc)

let compare_arg =
  let doc = "Run both epoch group-commit and per-txn commit-wait cells." in
  Arg.(value & flag & info [ "compare" ] ~doc)

let fault_arg =
  let doc = "Chaos scenario: none, primary_kill or rolling." in
  let faults = Cli.choice ~what:"fault scenario" Node_fault.all in
  Arg.(value & opt faults (Cli.default faults "none") & info [ "fault" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Workload / scenario seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc = "Domains for independent cells (output is identical for any value)." in
  Arg.(value & opt (Cli.int_min 1) 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_check_arg =
  let doc = "Skip tracing and the offline ordering check." in
  Arg.(value & flag & info [ "no-check" ] ~doc)

let cmd =
  let doc =
    "Replicated, admission-controlled session service over Ordo timestamps"
  in
  Cmd.v
    (Cmd.info "ordo-service" ~doc)
    Term.(
      const run_main $ spec_arg $ sessions_arg $ dur_arg $ epoch_arg
      $ compare_arg $ fault_arg $ seed_arg $ jobs_arg $ no_check_arg)

let () = exit (Cli.eval cmd)
