(* Self-test of the benchmark: run with  dune build @perfbench/selftest

   - Transparency: a traced pass (Trace sink on, counting wrappers in)
     reproduces the measured pass's deterministic outputs exactly: engine
     events, end_vtime, operations, commits/aborts, latency percentiles
     and every Service.result counter.  The same seed repeats them; a
     second seed changes them.
   - Bypass: each workload reaches the layers it is meant to stress and
     leaves the others at zero (the "not on" column of WORKLOADS.md). *)

module W = Ordo_perfbench.Workloads

let failures = ref 0

let expect name cond =
  Printf.printf "%-64s %s\n%!" name (if cond then "ok" else "FAIL");
  if not cond then incr failures

let layer (p : W.pass) k = Option.value (List.assoc_opt k p.W.layers) ~default:0.0

let () =
  List.iter
    (fun (w : W.workload) ->
      let n = w.W.name in
      let m1 = w.W.pass ~traced:false ~seed:1 in
      let m2 = w.W.pass ~traced:false ~seed:1 in
      let t1 = w.W.pass ~traced:true ~seed:1 in
      let s2 = w.W.pass ~traced:false ~seed:2 in
      expect (n ^ ": same seed repeats every output") (m1.W.out = m2.W.out);
      expect (n ^ ": traced pass reproduces the measured outputs") (t1.W.out = m1.W.out);
      expect (n ^ ": a second seed changes the outputs")
        (s2.W.out.W.ops <> m1.W.out.W.ops || s2.W.out.W.p99_ns <> m1.W.out.W.p99_ns);
      let on cond k = expect (Printf.sprintf "%s: %s %s" n k (if cond then "> 0" else "= 0"))
          (if cond then layer t1 k > 0.0 else layer t1 k = 0.0) in
      let exim = n = "exim-oplog" and tpcc = n = "tpcc-occ" in
      let svc = not (exim || tpcc) in
      on exim "oplog.update_calls";
      expect (Printf.sprintf "%s: oplog drain %s" n (if exim then "timed" else "absent"))
        (if exim then t1.W.drain_s > 0.0 else t1.W.drain_s = 0.0);
      on tpcc "db.attempts";
      on tpcc "db.aborts";
      on (exim || tpcc) "core.after_calls";
      on svc "cluster.messages";
      on svc "service.epochs";
      on svc "workloads.issued";
      on true "core.boundary_ns";
      on true "trace.events";
      on false "trace.dropped";
      expect (n ^ ": set-up processes engine events") (t1.W.out.W.setup_events > 0);
      expect
        (Printf.sprintf "%s: run-phase engine events %s" n (if svc then "= 0" else "> 0"))
        (if svc then t1.W.out.W.events = 0 else t1.W.out.W.events > 0);
      if svc then begin
        let overload = n = "svc-overload" in
        on overload "service.shed";
        on overload "service.promotions"
      end)
    W.all;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
