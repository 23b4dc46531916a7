(* Mcheck: the DPOR explorer itself (oracle agreement with exhaustive
   enumeration, pruning, determinism, bounded-preemption semantics,
   livelock detection), the six genuine targets, the seeded mutants, the
   counterexample pipeline (shrink → replay → Ordo_trace render → stock
   checker), and the Ordo-aware property combinators. *)

module Mcheck = Ordo_mcheck.Mcheck
module Suites = Ordo_mcheck.Suites
module Mutants = Ordo_mutants.Mutants
module R = Mcheck.Runtime
module Checker = Ordo_trace.Checker

(* Small budgets keep the whole suite in CI time; every target below is
   known to finish well inside them. *)
let cfg ?(mode = Mcheck.Dpor) ?(seed = 0) () =
  { Mcheck.default with Mcheck.mode; seed; spin_bound = 8; max_interleavings = 500_000 }

let stats_of = function
  | Mcheck.Verified s | Mcheck.Violation (_, s) | Mcheck.Budget_exceeded s -> s

let run_target ?mode ?seed (t : Suites.target) = t.t_run (cfg ?mode ?seed ())

let check_verified what = function
  | Mcheck.Verified _ -> ()
  | Mcheck.Violation (v, _) -> Alcotest.failf "%s: unexpected violation:\n%s" what v.pretty
  | Mcheck.Budget_exceeded _ -> Alcotest.failf "%s: exploration budget exceeded" what

let violation_of what = function
  | Mcheck.Violation (v, _) -> v
  | Mcheck.Verified _ -> Alcotest.failf "%s: verified, expected a violation" what
  | Mcheck.Budget_exceeded _ -> Alcotest.failf "%s: budget exceeded, expected a violation" what

(* ---- explorer basics on synthetic scenarios ---- *)

(* The textbook lost update: two unsynchronized read-modify-write
   threads.  DPOR must find the violation; the counterexample must
   shrink to few context switches and replay. *)
let racy_counter () =
  let init () = R.cell 0 in
  let body c =
    let v = R.read c in
    R.write c (v + 1)
  in
  (init, body, fun c -> R.read c = 2)

let test_racy_counter_found () =
  let init, body, prop = racy_counter () in
  match Mcheck.check ~config:(cfg ()) ~init ~threads:[ body; body ] ~prop () with
  | Mcheck.Violation (v, _) ->
    Alcotest.(check string) "reason" "property violated" v.reason;
    Alcotest.(check bool) "shrunk to <= 2 switches" true (v.switches <= 2);
    let again = Mcheck.replay_check ~init ~threads:[ body; body ] ~prop ~schedule:v.schedule () in
    Alcotest.(check (option string)) "replays to same reason" (Some v.reason) again
  | _ -> Alcotest.fail "lost update not found"

let test_exhaustive_counts () =
  (* 2 threads x 2 steps, all steps conflicting: 4!/(2!2!) = 6 maximal
     interleavings — the exhaustive mode must enumerate exactly those. *)
  let init () = R.cell 0 in
  let body c =
    ignore (R.read c);
    R.write c 1
  in
  let o =
    Mcheck.check ~config:(cfg ~mode:Mcheck.Exhaustive ()) ~init ~threads:[ body; body ]
      ~prop:(fun _ -> true) ()
  in
  check_verified "exhaustive" o;
  Alcotest.(check int) "6 interleavings" 6 (stats_of o).interleavings

let test_dpor_prunes_independent () =
  (* Threads touching disjoint cells: one interleaving suffices. *)
  let init () = (R.cell 0, R.cell 0) in
  let a (x, _) = R.write x 1 in
  let b (_, y) = R.write y 1 in
  let o =
    Mcheck.check ~config:(cfg ()) ~init ~threads:[ a; b ]
      ~prop:(fun (x, y) -> R.read x + R.read y = 2)
      ()
  in
  check_verified "independent" o;
  Alcotest.(check int) "1 interleaving" 1 (stats_of o).interleavings

let test_livelock_detected () =
  (* A consumer spinning on a flag nobody sets: fair scheduling cannot
     save it, the writeless-window verdict must fire. *)
  let init () = R.cell 0 in
  let spin c =
    while R.read c = 0 do
      R.pause ()
    done
  in
  let v =
    violation_of "livelock"
      (Mcheck.check ~config:(cfg ()) ~init ~threads:[ spin ] ~prop:(fun _ -> true) ())
  in
  Alcotest.(check string) "reason" "livelock (no progress within spin bound)" v.reason

let test_thread_exception_is_violation () =
  let init () = R.cell 0 in
  let bad c =
    ignore (R.read c);
    failwith "boom"
  in
  let v =
    violation_of "exception"
      (Mcheck.check ~config:(cfg ()) ~init ~threads:[ bad ] ~prop:(fun _ -> true) ())
  in
  Alcotest.(check bool) "reason carries the exception" true
    (String.length v.reason >= 16 && String.sub v.reason 0 16 = "thread exception")

(* ---- oracle agreement: DPOR vs exhaustive ---- *)

let test_oracle_agreement_verified () =
  List.iter
    (fun name ->
      let t = Option.get (Suites.find name) in
      let d = run_target ~mode:Mcheck.Dpor t in
      let e = run_target ~mode:Mcheck.Exhaustive t in
      check_verified (name ^ " dpor") d;
      check_verified (name ^ " exhaustive") e;
      let sd = stats_of d and se = stats_of e in
      Alcotest.(check bool)
        (name ^ " pruning factor > 1")
        true
        (sd.interleavings < se.interleavings))
    [ "spinlock"; "mcs" ]

let test_oracle_agreement_violation () =
  (* Both modes must find the seeded oplog race. *)
  let t = Option.get (Mutants.find "mut-oplog") in
  ignore (violation_of "dpor" (run_target ~mode:Mcheck.Dpor t));
  ignore (violation_of "exhaustive" (run_target ~mode:Mcheck.Exhaustive t))

(* ---- the six genuine targets ---- *)

let test_genuine_targets_verified () =
  List.iter
    (fun (t : Suites.target) ->
      let o = run_target t in
      check_verified t.t_name o;
      Alcotest.(check bool)
        (t.t_name ^ " explored more than one interleaving")
        true
        ((stats_of o).interleavings > 1))
    Suites.all

(* ---- mutants must die ---- *)

let test_mutants_killed () =
  List.iter
    (fun (t : Suites.target) ->
      let v = violation_of t.t_name (run_target t) in
      (* and the shrunk schedule replays to the same verdict *)
      Alcotest.(check (option string))
        (t.t_name ^ " counterexample replays")
        (Some v.reason) (t.t_replays v.schedule))
    Mutants.all

let test_mutant_kill_reasons () =
  let reason name =
    (violation_of name (run_target (Option.get (Mutants.find name)))).Mcheck.reason
  in
  Alcotest.(check string) "oplog race is a property violation" "property violated"
    (reason "mut-oplog");
  Alcotest.(check string) "torn deque bottom is a property violation" "property violated"
    (reason "mut-deque");
  Alcotest.(check string) "barrier fence bug deadlocks"
    "livelock (no progress within spin bound)" (reason "mut-barrier")

(* ---- counterexample determinism (satellite) ---- *)

let test_counterexample_deterministic () =
  List.iter
    (fun (t : Suites.target) ->
      let v1 = violation_of t.t_name (run_target t) in
      let v2 = violation_of t.t_name (run_target t) in
      Alcotest.(check string) (t.t_name ^ " byte-identical pretty") v1.pretty v2.pretty;
      (* a different seed may find a different counterexample, but the
         run must stay self-deterministic *)
      let v3 = violation_of t.t_name (run_target ~seed:1 t) in
      let v4 = violation_of t.t_name (run_target ~seed:1 t) in
      Alcotest.(check string) (t.t_name ^ " seed 1 deterministic") v3.pretty v4.pretty)
    Mutants.all

(* ---- counterexamples through the Ordo_trace pipeline ---- *)

let test_render_through_trace_checker () =
  let t = Option.get (Mutants.find "mut-deque") in
  let v = violation_of "mut-deque" (run_target t) in
  let tr = t.t_render v.schedule in
  (* one mcheck.step probe per schedule step, in step order *)
  let steps =
    Array.to_list tr.Ordo_trace.Trace.events
    |> List.filter (fun (e : Ordo_trace.Trace.event) ->
           e.kind = Ordo_trace.Trace.Probe
           && Ordo_trace.Trace.tag_name tr e.a = "mcheck.step")
  in
  Alcotest.(check int) "one probe per step" (Array.length v.schedule) (List.length steps);
  List.iteri
    (fun i (e : Ordo_trace.Trace.event) ->
      Alcotest.(check int) (Printf.sprintf "step %d tid" i) v.schedule.(i).Mcheck.s_tid e.tid)
    steps;
  (* the stock offline checker accepts the rendered trace *)
  let report = Checker.check ~boundary:4 tr in
  Alcotest.(check bool) "stock checker passes" true (Checker.ok report);
  (* rendering is deterministic: same schedule, same event stream *)
  let tr2 = t.t_render v.schedule in
  let sig_of (t : Ordo_trace.Trace.t) =
    Array.map
      (fun (e : Ordo_trace.Trace.event) -> (e.time, e.tid, e.a, e.b, e.c))
      t.events
  in
  Alcotest.(check bool) "deterministic rendering" true (sig_of tr = sig_of tr2)

(* ---- bounded-preemption mode ---- *)

let test_bounded_semantics () =
  let t = Option.get (Mutants.find "mut-oplog") in
  (* no preemptions: every thread runs to completion once scheduled —
     the race needs a drain *between* a read and a CAS, so it survives *)
  (match run_target ~mode:(Mcheck.Bounded 0) t with
  | Mcheck.Verified s ->
    Alcotest.(check (option int)) "budget logged" (Some 0) s.preemption_bound;
    Alcotest.(check bool) "budget pruned something" true (s.budget_pruned > 0)
  | Mcheck.Violation (v, _) -> Alcotest.failf "bound 0 found:\n%s" v.pretty
  | Mcheck.Budget_exceeded _ -> Alcotest.fail "bound 0 blew the budget");
  (* two preemptions suffice *)
  match run_target ~mode:(Mcheck.Bounded 2) t with
  | Mcheck.Violation (v, s) ->
    Alcotest.(check (option int)) "budget logged" (Some 2) s.preemption_bound;
    Alcotest.(check bool) "kill within bound" true (v.switches <= 4)
  | Mcheck.Verified _ -> Alcotest.fail "bound 2 missed the oplog race"
  | Mcheck.Budget_exceeded _ -> Alcotest.fail "bound 2 blew the budget"

(* ---- Ordo-aware combinators ---- *)

let test_stamps_skew_boundary () =
  (* Two threads each read the guarded clock twice; with skew <= boundary
     the certainly-before contract holds in every interleaving, with
     skew > boundary it must be violated in some interleaving. *)
  let scenario ~skew ~boundary =
    let init () = (Mcheck.Stamps.create (), R.cell 0) in
    let body (st, c) =
      ignore (R.fetch_add c 1);
      Mcheck.Stamps.observe st (R.get_time ());
      ignore (R.fetch_add c 1);
      Mcheck.Stamps.observe st (R.get_time ())
    in
    let prop (st, _) = Mcheck.Stamps.ordo_consistent ~boundary st in
    Mcheck.check
      ~config:{ (cfg ()) with Mcheck.skew }
      ~init ~threads:[ body; body ] ~prop ()
  in
  check_verified "skew within boundary" (scenario ~skew:[| 0; 3 |] ~boundary:4);
  ignore
    (violation_of "skew beyond boundary" (scenario ~skew:[| 0; 40 |] ~boundary:4))

let test_stamps_certainly_before () =
  let init () = Mcheck.Stamps.create () in
  let body st =
    Mcheck.Stamps.observe st (R.now ());
    for _ = 0 to 12 do
      ignore (R.read (R.cell 0))
    done;
    Mcheck.Stamps.observe st (R.now () + 10)
  in
  let prop st =
    Mcheck.Stamps.count st = 2 && Mcheck.Stamps.certainly_before ~boundary:4 st 0 1
  in
  check_verified "certainly_before" (Mcheck.check ~config:(cfg ()) ~init ~threads:[ body ] ~prop ())

let test_lin_combinator () =
  (* Counter model: ops are (observed_before, delta); the model accepts
     an op whose observation matches the current value. *)
  let step m (seen, d) = if seen = m then Some (m + d) else None in
  let h = Mcheck.Lin.create () in
  Mcheck.Lin.record h (0, 1);
  Mcheck.Lin.record h (1, 1);
  Alcotest.(check bool) "sequential history accepted" true
    (Mcheck.Lin.check h ~init:0 ~step);
  let h2 = Mcheck.Lin.create () in
  Mcheck.Lin.record h2 (1, 1);
  Mcheck.Lin.record h2 (1, 1);
  Alcotest.(check bool) "impossible history rejected" false
    (Mcheck.Lin.check h2 ~init:0 ~step)

let test_lin_spinlock_counter () =
  (* Linearizability of the locked counter against the sequential model,
     as a model-checked property across every interleaving. *)
  let module Sl = Ordo_runtime.Spinlock.Make (R) in
  let init () = (Sl.create (), R.cell 0, Mcheck.Lin.create ()) in
  let body (l, c, h) =
    Sl.acquire l;
    let v = R.read c in
    R.write c (v + 1);
    Mcheck.Lin.record h (v, 1);
    Sl.release l
  in
  let prop (_, _, h) = Mcheck.Lin.check h ~init:0 ~step:(fun m (seen, d) ->
      if seen = m then Some (m + d) else None)
  in
  check_verified "lin spinlock"
    (Mcheck.check ~config:(cfg ()) ~init ~threads:[ body; body ] ~prop ())

(* ---- config guards ---- *)

let test_runtime_outside_check_raises () =
  Alcotest.check_raises "cell outside check"
    (Failure "Mcheck.Runtime used outside Mcheck.check") (fun () -> ignore (R.cell 0))

(* [Ordo.new_time] waits through [await_clock], which the controlled
   runtime runs as the read/pause loop: one thread stamps and publishes,
   the other waits past the stamp it sees, under a skew below the
   boundary.  Every interleaving must order the second stamp certainly
   after the first. *)
let test_await_clock_orders () =
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = 3 end) in
  let init () = (R.cell 0, R.cell 0) in
  let stamp (published, _) = R.write published (O.new_time (O.get_time ())) in
  let follow (published, seen) =
    let t = R.read published in
    if t > 0 then R.write seen (O.new_time t)
  in
  let prop (published, seen) =
    let t = R.read published and s = R.read seen in
    s = 0 || O.cmp_time s t = 1
  in
  check_verified "await_clock"
    (Mcheck.check
       ~config:{ (cfg ()) with Mcheck.skew = [| 0; 2 |] }
       ~init ~threads:[ stamp; follow ] ~prop ())

let suite =
  [
    Alcotest.test_case "racy counter found + replays" `Quick test_racy_counter_found;
    Alcotest.test_case "exhaustive enumerates 6 of 6" `Quick test_exhaustive_counts;
    Alcotest.test_case "dpor prunes independent threads" `Quick test_dpor_prunes_independent;
    Alcotest.test_case "livelock detected" `Quick test_livelock_detected;
    Alcotest.test_case "thread exception is a violation" `Quick test_thread_exception_is_violation;
    Alcotest.test_case "oracle agreement (verified)" `Quick test_oracle_agreement_verified;
    Alcotest.test_case "oracle agreement (violation)" `Quick test_oracle_agreement_violation;
    Alcotest.test_case "six genuine targets verify" `Quick test_genuine_targets_verified;
    Alcotest.test_case "all mutants killed + replay" `Quick test_mutants_killed;
    Alcotest.test_case "mutant kill reasons" `Quick test_mutant_kill_reasons;
    Alcotest.test_case "counterexamples deterministic" `Quick test_counterexample_deterministic;
    Alcotest.test_case "render through trace checker" `Quick test_render_through_trace_checker;
    Alcotest.test_case "bounded-preemption semantics" `Quick test_bounded_semantics;
    Alcotest.test_case "stamps: skew vs boundary" `Quick test_stamps_skew_boundary;
    Alcotest.test_case "stamps: certainly_before" `Quick test_stamps_certainly_before;
    Alcotest.test_case "lin combinator accept/reject" `Quick test_lin_combinator;
    Alcotest.test_case "lin: locked counter linearizable" `Quick test_lin_spinlock_counter;
    Alcotest.test_case "runtime outside check raises" `Quick test_runtime_outside_check_raises;
    Alcotest.test_case "await_clock orders stamps" `Quick test_await_clock_orders;
  ]
