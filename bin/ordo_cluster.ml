(* Drive the multi-node cluster layer: measure a composed cross-node
   ORDO_BOUNDARY over messages, then run the sharded KV service on the
   same topology and report throughput/latency plus the offline checker's
   verdict on the recorded trace.

   --fixture runs the seeded link-asymmetry negative: the same service
   under the unsound NTP-style RTT/2 boundary, where the checker MUST
   flag cross-node clock inversions (the process exits non-zero if it
   does not — the fixture guards the checker, not the protocol). *)

open Cmdliner
module Report = Ordo_util.Report
module Net = Ordo_cluster.Net
module Compose = Ordo_cluster.Compose
module Kv = Ordo_cluster.Kv
module Trace = Ordo_trace.Trace
module Checker = Ordo_trace.Checker

let ns f = Printf.sprintf "%.0f ns" f

let report_measurement spec (c : Compose.t) =
  Report.section (Printf.sprintf "Composed Ordo measurement: %s" (Net.Spec.to_string spec));
  Report.kv "nodes" (string_of_int c.Compose.nodes);
  Report.kv "intra-node boundary (ns)" (string_of_int c.Compose.node_boundaries.(0));
  if c.Compose.nodes > 1 then begin
    Report.matrix ~title:"measured link offsets (ns), sender row -> receiver column"
      ~row_label:"s\\r" c.Compose.delta;
    Report.kv "pings spent measuring" (string_of_int c.Compose.pings)
  end;
  Report.kv "ORDO_BOUNDARY_cluster (ns)" (string_of_int c.Compose.boundary);
  Report.kv "RTT/2 composition (ns, unsound on asymmetric links)"
    (string_of_int c.Compose.rtt2_boundary)

let checked_run ~boundary ~check spec cfg =
  if not check then (Kv.run ~boundary spec cfg, None)
  else begin
    Trace.start ~capacity:65536 ();
    let r = Kv.run ~boundary spec cfg in
    let t = Trace.stop () in
    (r, Some (Checker.check ~boundary t))
  end

let report_kv_result name (r : Kv.result) (rep : Checker.report option) =
  Report.section (Printf.sprintf "KV service: %s source" name);
  Report.kv "issued / committed / aborted"
    (Printf.sprintf "%d / %d / %d" r.Kv.issued r.Kv.committed r.Kv.aborted);
  Report.kv "cross-shard committed"
    (Printf.sprintf "%d of %d" r.Kv.cross_committed r.Kv.cross_issued);
  Report.kv "throughput" (Printf.sprintf "%.2f txn/us" r.Kv.throughput);
  Report.kv "latency mean / p50 / p99"
    (Printf.sprintf "%s / %s / %s" (ns r.Kv.mean_ns) (ns r.Kv.p50_ns) (ns r.Kv.p99_ns));
  Report.kv "messages" (string_of_int r.Kv.messages);
  Report.kv "lease renewals" (string_of_int r.Kv.renewals);
  Report.kv "commit waits"
    (Printf.sprintf "%d (%d ns total)" r.Kv.commit_waits r.Kv.wait_ns);
  (match rep with
  | None -> ()
  | Some rep ->
    Report.kv "checker"
      (if Checker.ok rep then "ok (0 violations)"
       else Printf.sprintf "%d violation(s)" (List.length rep.Checker.violations)));
  r

let run_fixture () =
  let spec = Net.Spec.asymmetric_fixture () in
  let c = Compose.measure spec in
  report_measurement spec c;
  Report.kv "true node-1 skew (ns)" "5000";
  let cfg = { Kv.default with Kv.dur_ns = 100_000; Kv.source = Kv.Ordo } in
  Trace.start ~capacity:65536 ();
  let r = Kv.run ~boundary:c.Compose.rtt2_boundary spec cfg in
  let t = Trace.stop () in
  let rep = Checker.check ~boundary:c.Compose.rtt2_boundary t in
  ignore (report_kv_result "ordo under the UNSOUND rtt/2 boundary" r (Some rep));
  if Checker.ok rep then begin
    print_endline "FIXTURE FAILED: the checker did not flag the under-sized boundary";
    2
  end
  else begin
    Printf.printf
      "fixture ok: checker flagged %d violation(s) under the rtt/2 boundary\n"
      (List.length rep.Checker.violations);
    (* The same run under the sound composed boundary must be clean. *)
    Trace.start ~capacity:65536 ();
    let _ = Kv.run ~boundary:c.Compose.boundary spec cfg in
    let t = Trace.stop () in
    let rep = Checker.check ~boundary:c.Compose.boundary t in
    if Checker.ok rep then begin
      print_endline "composed boundary on the same topology: 0 violations";
      0
    end
    else begin
      print_endline "UNEXPECTED: violations under the sound composed boundary";
      2
    end
  end

let run_service spec (_, sources) dur arrival batch theta cross read_pct no_check fixture =
  Ordo_sim.Sim.with_fresh_instance @@ fun () ->
  if fixture then run_fixture ()
  else begin
    let c = Compose.measure spec in
    report_measurement spec c;
    let cfg =
      {
        Kv.default with
        Kv.dur_ns = dur;
        arrival_ns = arrival;
        batch;
        theta;
        cross_pct = cross;
        read_pct;
      }
    in
    let bad = ref false in
    List.iter
      (fun src ->
        let boundary = match src with Kv.Ordo -> c.Compose.boundary | Kv.Logical -> 0 in
        let r, rep =
          checked_run ~boundary ~check:(not no_check) spec { cfg with Kv.source = src }
        in
        let _ = report_kv_result (Kv.source_name src) r rep in
        match rep with
        | Some rep when not (Checker.ok rep) -> bad := true
        | _ -> ())
      sources;
    if !bad then 1 else 0
  end

let spec_arg =
  let doc = "Cluster spec: <nodes>x<machine>[:base=..,jitter=..,overhead=..,mode=fifo|reorder,skew=..,seed=..]." in
  Arg.(value & opt Cli.spec (Cli.default Cli.spec "4xamd") & info [ "spec" ] ~docv:"SPEC" ~doc)

let source_arg =
  let doc = "Timestamp source: ordo, logical, or both." in
  let sources =
    Cli.choice ~what:"source"
      [ ("ordo", [ Kv.Ordo ]); ("logical", [ Kv.Logical ]); ("both", [ Kv.Logical; Kv.Ordo ]) ]
  in
  Arg.(value & opt sources (Cli.default sources "both") & info [ "source" ] ~docv:"SRC" ~doc)

let dur_arg =
  let doc = "Arrival window in virtual ns." in
  Arg.(value & opt (Cli.int_min 1) 200_000 & info [ "dur" ] ~docv:"NS" ~doc)

let arrival_arg =
  let doc = "Mean inter-arrival of the client stream (ns)." in
  Arg.(value & opt (Cli.int_min 1) 150 & info [ "arrival" ] ~docv:"NS" ~doc)

let batch_arg =
  let doc = "Transactions per client request message." in
  Arg.(value & opt (Cli.int_min 1) 1 & info [ "batch" ] ~docv:"N" ~doc)

let theta_arg =
  let doc = "Zipf skew of the key popularity." in
  Arg.(value & opt (Cli.float_in 0.0 1.0) 0.6 & info [ "theta" ] ~docv:"T" ~doc)

let cross_arg =
  let doc = "Cross-shard transfers, percent of all transactions." in
  Arg.(value & opt (Cli.int_in 0 100) 10 & info [ "cross" ] ~docv:"PCT" ~doc)

let read_arg =
  let doc = "Read transactions, percent of all transactions." in
  Arg.(value & opt (Cli.int_in 0 100) 50 & info [ "read" ] ~docv:"PCT" ~doc)

let no_check_arg =
  let doc = "Skip tracing and the offline ordering check." in
  Arg.(value & flag & info [ "no-check" ] ~doc)

let fixture_arg =
  let doc =
    "Run the seeded link-asymmetry violation fixture: the checker must flag the \
     unsound RTT/2 boundary (exit 0 when it does)."
  in
  Arg.(value & flag & info [ "fixture" ] ~doc)

let cmd =
  let doc = "Multi-node Ordo: composed boundary measurement and the sharded KV service" in
  Cmd.v
    (Cmd.info "ordo-cluster" ~doc)
    Term.(
      const run_service $ spec_arg $ source_arg $ dur_arg $ arrival_arg $ batch_arg
      $ theta_arg $ cross_arg $ read_arg $ no_check_arg $ fixture_arg)

let () = exit (Cli.eval cmd)
