(* Cluster layer: network-model determinism, the composed cross-node
   boundary (soundness property + the seeded asymmetric fixture), and the
   sharded KV service (conservation, checker cleanliness, leases,
   batching). *)

module Sim = Ordo_sim.Sim
module Engine = Ordo_sim.Engine
module Net = Ordo_cluster.Net
module Spec = Ordo_cluster.Net.Spec
module Compose = Ordo_cluster.Compose
module Kv = Ordo_cluster.Kv
module Trace = Ordo_trace.Trace
module Checker = Ordo_trace.Checker

let check = Alcotest.check
let qtest ?(count = 8) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Quick measurement settings for tests: fewer pings and boundary runs
   than the bench defaults, still sound (minima only tighten with more
   rounds). *)
let measure spec = Compose.measure ~rounds:10 ~node_runs:4 spec

(* ---- engine instance timeline ---- *)

let test_advance_to () =
  let i = Engine.Instance.create () in
  check Alcotest.int "fresh timeline" 0 (Engine.Instance.timeline i);
  Engine.Instance.advance_to i 500;
  check Alcotest.int "moved forward" 500 (Engine.Instance.timeline i);
  Engine.Instance.advance_to i 100;
  check Alcotest.int "never backwards" 500 (Engine.Instance.timeline i)

(* ---- spec parsing ---- *)

let test_spec_parse () =
  (match Spec.of_string "4xamd" with
  | Ok s ->
    check Alcotest.int "nodes" 4 s.Spec.nodes;
    check Alcotest.string "machine" "amd" s.Spec.machine_name;
    check Alcotest.int "default base" Spec.default_link.Spec.base_ns s.Spec.link.Spec.base_ns
  | Error e -> Alcotest.failf "4xamd rejected: %s" e);
  match Spec.of_string "2xarm:base=500,jitter=50,overhead=10,mode=reorder,skew=0,seed=7" with
  | Ok s ->
    check Alcotest.int "base" 500 s.Spec.link.Spec.base_ns;
    check Alcotest.int "jitter" 50 s.Spec.link.Spec.jitter_ns;
    check Alcotest.int "overhead" 10 s.Spec.link.Spec.overhead_ns;
    check Alcotest.bool "mode" true (s.Spec.link.Spec.mode = Spec.Reorder);
    check Alcotest.int "skew" 0 s.Spec.skew_ns;
    check Alcotest.bool "seed" true (s.Spec.seed = 7L)
  | Error e -> Alcotest.failf "full spec rejected: %s" e

let test_spec_replicas () =
  (* "<groups>x<replicas>x<machine>" — the replica count multiplies into
     nodes and survives a round-trip; a bare "<n>x<machine>" spec keeps
     replicas = 1 and prints without the middle segment. *)
  (match Spec.of_string "3x2xamd" with
  | Ok s ->
    check Alcotest.int "groups" 3 (Spec.groups s);
    check Alcotest.int "replicas" 2 s.Spec.replicas;
    check Alcotest.int "nodes = groups * replicas" 6 s.Spec.nodes;
    check Alcotest.string "machine" "amd" s.Spec.machine_name
  | Error e -> Alcotest.failf "3x2xamd rejected: %s" e);
  (match Spec.of_string "4xamd" with
  | Ok s ->
    check Alcotest.int "bare spec keeps replicas=1" 1 s.Spec.replicas;
    check Alcotest.int "bare spec groups = nodes" 4 (Spec.groups s)
  | Error e -> Alcotest.failf "4xamd rejected: %s" e);
  match Spec.of_string "2x3xarm:base=500" with
  | Ok s ->
    check Alcotest.int "options compose with the middle segment" 500 s.Spec.link.Spec.base_ns;
    check Alcotest.bool "printed form keeps the replica segment" true
      (String.length (Spec.to_string s) >= 6
      && String.sub (Spec.to_string s) 0 6 = "2x3xar")
  | Error e -> Alcotest.failf "2x3xarm:base=500 rejected: %s" e

let test_spec_replica_errors () =
  List.iter
    (fun str ->
      match Spec.of_string str with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S accepted" str)
    [ "3x0xamd"; "3x-1xamd"; "0x2xamd"; "3x2xnosuch"; "3xxamd" ]

let test_spec_roundtrip () =
  List.iter
    (fun str ->
      match Spec.of_string str with
      | Error e -> Alcotest.failf "%s rejected: %s" str e
      | Ok s -> (
        match Spec.of_string (Spec.to_string s) with
        | Error e -> Alcotest.failf "to_string not parseable: %s" e
        | Ok s' -> check Alcotest.bool (str ^ " round-trips") true (s = s')))
    [
      "1xamd"; "4xamd"; "2xxeon:base=900"; "3xarm:mode=reorder,skew=9000,seed=3";
      "3x2xamd"; "2x3xarm:base=500";
    ]

let test_spec_errors () =
  List.iter
    (fun str ->
      match Spec.of_string str with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S accepted" str)
    [ ""; "amd"; "0xamd"; "-1xamd"; "3xnosuch"; "2xamd:bogus=1"; "2xamd:base=x" ]

(* ---- network model ---- *)

let deliveries spec count =
  Sim.with_fresh_instance @@ fun () ->
  let net : int Net.t = Net.create spec in
  let order = ref [] in
  Net.on_message net (fun _src _dst m -> order := m :: !order);
  for m = 0 to count - 1 do
    Net.send net ~src:0 ~dst:1 m
  done;
  Net.run net;
  List.rev !order

let test_fifo_in_order () =
  let spec = Spec.make ~machine:"amd" ~link:{ Spec.default_link with Spec.jitter_ns = 2_000 } 2 in
  check
    Alcotest.(list int)
    "fifo keeps send order"
    (List.init 40 Fun.id)
    (deliveries spec 40)

let test_reorder_overtakes () =
  let link = { Spec.default_link with Spec.jitter_ns = 2_000; Spec.mode = Spec.Reorder } in
  let spec = Spec.make ~machine:"amd" ~link 2 in
  let order = deliveries spec 40 in
  check Alcotest.bool "same multiset" true (List.sort compare order = List.init 40 Fun.id);
  check Alcotest.bool "some delivery overtakes" true (order <> List.init 40 Fun.id)

let test_network_deterministic () =
  let spec = Spec.make ~machine:"amd" ~skew_ns:5_000 3 in
  let run () =
    Sim.with_fresh_instance @@ fun () ->
    let net : int Net.t = Net.create spec in
    let log = ref [] in
    Net.on_message net (fun src dst m -> log := (src, dst, m, Net.now net) :: !log);
    for m = 0 to 20 do
      Net.send net ~src:(m mod 3) ~dst:((m + 1) mod 3) m
    done;
    Net.run net;
    !log
  in
  check Alcotest.bool "identical delivery history" true (run () = run ())

(* ---- busy deferral ---- *)

module Heap = Ordo_sim.Heap
module Rng = Ordo_util.Rng

(* Reference stepping: every event popped for a busy node is pushed back
   at [busy_until] with a fresh seq.  [Net]'s inboxes must run events in
   exactly this order. *)
module Repush = struct
  type ev = { node : int; inc : int; fn : unit -> unit }

  type t = {
    q : ev Heap.t;
    busy_until : int array;
    alive : bool array;
    incarnation : int array;
    mutable now : int;
    mutable dropped : int;
  }

  let create n =
    {
      q = Heap.create ();
      busy_until = Array.make n 0;
      alive = Array.make n true;
      incarnation = Array.make n 0;
      now = 0;
      dropped = 0;
    }

  let at t ~node ~delay fn =
    Heap.push t.q ~time:(t.now + delay) { node; inc = t.incarnation.(node); fn }

  let busy t n ns = t.busy_until.(n) <- max t.busy_until.(n) t.now + ns

  let kill t n =
    if t.alive.(n) then begin
      t.alive.(n) <- false;
      t.incarnation.(n) <- t.incarnation.(n) + 1
    end

  let revive t n =
    if not t.alive.(n) then begin
      t.alive.(n) <- true;
      t.busy_until.(n) <- t.now
    end

  let rec run t =
    match Heap.pop t.q with
    | None -> ()
    | Some (time, ev) ->
      let n = ev.node in
      if (not t.alive.(n)) || ev.inc <> t.incarnation.(n) then t.dropped <- t.dropped + 1
      else if t.busy_until.(n) > time then Heap.push t.q ~time:t.busy_until.(n) ev
      else begin
        t.now <- max t.now time;
        ev.fn ()
      end;
      run t
end

type driver = {
  at : node:int -> delay:int -> (unit -> unit) -> unit;
  busy : int -> int -> unit;
  kill : int -> unit;
  revive : int -> unit;
  now : unit -> int;
  run : unit -> bool;  (* false: the queue did not drain *)
  dropped : unit -> int;
}

let drive_net (net : unit Net.t) =
  {
    at = (fun ~node ~delay fn -> Net.at net ~node ~delay fn);
    busy = Net.busy net;
    kill = Net.kill net;
    revive = Net.revive net;
    now = (fun () -> Net.now net);
    (* A step budget turns a stepping bug that loops into a mismatch. *)
    run =
      (fun () ->
        let steps = ref 0 in
        while !steps < 100_000 && Net.step net do
          incr steps
        done;
        !steps < 100_000);
    dropped = (fun () -> Net.dropped net);
  }

let net_driver n = drive_net (Net.create (Spec.make ~machine:"amd" n))

let repush_driver n =
  let r = Repush.create n in
  {
    at = Repush.at r;
    busy = Repush.busy r;
    kill = Repush.kill r;
    revive = Repush.revive r;
    now = (fun () -> r.Repush.now);
    run =
      (fun () ->
        Repush.run r;
        true);
    dropped = (fun () -> r.Repush.dropped);
  }

(* A random timer program, replayed identically on any driver: the
   handler of event [id] draws, from an RNG keyed by [seed] and [id], its
   own [busy] (0 to [busy_max] ns), up to two follow-up timers with small
   delays (same-instant ties) and an occasional kill, revive or restart.
   Returns the executed [(time, node, id)] list, the drop count and
   whether the queue drained. *)
let timer_program ?(busy_max = 10) d ~nodes ~seed initial =
  let log = ref [] and next_id = ref 0 in
  let delays = [| 0; 1; 2; 5; 10 |] in
  let rec schedule node delay =
    let id = !next_id in
    incr next_id;
    d.at ~node ~delay (fun () -> handle node id)
  and handle node id =
    log := (d.now (), node, id) :: !log;
    let r = Rng.create ~seed:(Int64.of_int ((seed * 1_000_003) + id)) () in
    d.busy node (Rng.int r (busy_max + 1));
    for _ = 1 to Rng.int r 3 do
      let dst = Rng.int r nodes and delay = delays.(Rng.int r 5) in
      if !next_id < 600 then schedule dst delay
    done;
    match Rng.int r 40 with
    | 0 -> d.kill (Rng.int r nodes)
    | 1 | 2 | 3 -> d.revive (Rng.int r nodes)
    | 4 ->
      let n = Rng.int r nodes in
      d.kill n;
      d.revive n
    | _ -> ()
  in
  List.iter (fun (node, delay) -> schedule node delay) initial;
  let drained = d.run () in
  (List.rev !log, d.dropped (), drained)

let test_deferral_matches_repush =
  qtest ~count:200 "busy deferral runs events in re-push order"
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 0 1_000_000)
        (list_size (int_range 1 40) (pair (int_range 0 3) (int_range 0 20))))
    (fun (nodes, seed, initial) ->
      let initial = List.map (fun (n, delay) -> (n mod nodes, delay)) initial in
      let got = timer_program (net_driver nodes) ~nodes ~seed initial in
      let want = timer_program (repush_driver nodes) ~nodes ~seed initial in
      got = want)

(* Deep inboxes: up to 200 timers start at one instant, and each handler
   keeps its node busy for up to 40 ns, so most events wait behind
   dozens of others and [Net] takes both its run stamps and its
   per-event re-stamps. *)
let test_deferral_deep_inboxes =
  qtest ~count:100 "busy deferral with deep inboxes runs in re-push order"
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 0 1_000_000)
        (list_size (int_range 1 200) (int_range 0 3)))
    (fun (nodes, seed, initial) ->
      let initial = List.map (fun n -> (n mod nodes, 0)) initial in
      let got = timer_program ~busy_max:40 (net_driver nodes) ~nodes ~seed initial in
      let want = timer_program ~busy_max:40 (repush_driver nodes) ~nodes ~seed initial in
      got = want)

(* A partial cycle while a run is live.  B1's serve stamps B2 and B3 as
   one run at instant 20; Z, scheduled at 12 for instant 20, takes the
   seq right after the run's block, and C, deferred at 15, the one after
   Z.  When B2's serve keeps node 0 busy to 30, B3 (a run key) is below Z
   but C is not: only B3 is re-stamped to 30, and C waits on a stale wake
   until Z has run and put Y at 30.  C's later re-stamp orders it behind
   Y; stamping B3 and C as one run would have put it ahead.  W, put at 20
   by B1 just before the run is stamped, holds the seq right below the
   block, so a run base one too low ties the wake with W, and one too
   high ties B3 with Z. *)
let live_run_program d =
  let log = ref [] in
  let rec ev name node delay f =
    d.at ~node ~delay (fun () ->
        log := (d.now (), name) :: !log;
        f ())
  and b1 () =
    d.busy 0 10;
    ev "W" 1 10 ignore
  in
  ev "A" 0 0 (fun () -> d.busy 0 10);
  ev "B1" 0 0 b1;
  ev "B2" 0 0 (fun () -> d.busy 0 10);
  ev "B3" 0 0 ignore;
  ev "P" 1 12 (fun () -> ev "Z" 1 8 (fun () -> ev "Y" 2 10 ignore));
  ev "C" 0 15 ignore;
  let drained = d.run () in
  (List.rev !log, d.dropped (), drained)

let test_partial_cycle_live_run () =
  let ((log, _, _) as want) = live_run_program (repush_driver 3) in
  check
    Alcotest.(list (pair int string))
    "re-push reference"
    [
      (0, "A"); (10, "B1"); (12, "P"); (20, "W"); (20, "B2"); (20, "Z"); (30, "B3");
      (30, "Y"); (30, "C");
    ]
    log;
  let net : unit Net.t = Net.create (Spec.make ~machine:"amd" 3) in
  check Alcotest.bool "same as re-push" true (live_run_program (drive_net net) = want);
  (* The run stamp at 10, B3's re-stamp at 20 and C's after the stale
     wake. *)
  check Alcotest.int "re-stamps" 3 (Net.restamps net)

(* A restart empties node 0's inbox (B drops) and orphans its wake at
   (100, seq of B).  F, deferred after the restart, lands at instant 100
   too, behind X: it must not run off the orphaned wake ahead of X. *)
let restart_program d =
  let log = ref [] in
  let ev name node delay f =
    d.at ~node ~delay (fun () ->
        log := (d.now (), name) :: !log;
        f ())
  in
  ev "A" 0 0 (fun () -> d.busy 0 100);
  ev "B" 0 1 ignore;
  ev "K" 1 3 (fun () ->
      d.kill 0;
      d.revive 0;
      ev "X" 1 97 ignore;
      ev "E" 0 1 (fun () -> d.busy 0 96);
      ev "F" 0 2 ignore);
  let drained = d.run () in
  (List.rev !log, d.dropped (), drained)

let test_restart_orphans_wake () =
  let ((log, dropped, _) as want) = restart_program (repush_driver 2) in
  check
    Alcotest.(list (pair int string))
    "re-push reference"
    [ (0, "A"); (3, "K"); (4, "E"); (100, "X"); (100, "F") ]
    log;
  check Alcotest.int "B dropped" 1 dropped;
  check Alcotest.bool "same as re-push" true (restart_program (net_driver 2) = want)

(* 2,000 timers queued at one instant behind a node that each of them
   keeps busy: re-pushing pops every waiting timer once per timer served
   (about 2 million pops); the inbox pops each about twice, and re-keys
   the whole inbox with one run stamp per timer served. *)
let test_deferral_pops_linear () =
  let n = 2_000 in
  let net : unit Net.t = Net.create (Spec.make ~machine:"amd" 1) in
  let order = ref [] in
  for i = 0 to n - 1 do
    Net.at net ~node:0 ~delay:0 (fun () ->
        order := (Net.now net, i) :: !order;
        Net.busy net 0 10)
  done;
  check Alcotest.bool "drained" true ((drive_net net).run ());
  check Alcotest.bool "FIFO, one every 10 ns" true
    (List.rev !order = List.init n (fun i -> (10 * i, i)));
  let pops = Net.pops net in
  if pops > 3 * n then Alcotest.failf "%d heap pops for %d timers" pops n;
  let restamps = Net.restamps net in
  if restamps > 3 * n then Alcotest.failf "%d inbox re-stamps for %d timers" restamps n

(* ---- composed boundary ---- *)

(* Soundness: the composed boundary must cover the worst true pairwise
   clock offset for any topology — measured delta_ij only ever
   *over*-estimates o_j - o_i (flight time is nonnegative), so this holds
   by construction; the property pins it against regressions. *)
let test_boundary_sound =
  qtest ~count:6 "composed boundary covers the true pairwise skew"
    QCheck2.Gen.(
      triple (int_range 2 4) (int_range 0 20_000)
        (triple (int_range 100 3_000) (int_range 0 1_000) int64))
    (fun (nodes, skew, (base, jitter, seed)) ->
      Sim.with_fresh_instance @@ fun () ->
      let link = { Spec.default_link with Spec.base_ns = base; Spec.jitter_ns = jitter } in
      let spec = Spec.make ~machine:"amd" ~skew_ns:skew ~link ~seed nodes in
      let c = measure spec in
      let net : unit Net.t = Net.create spec in
      let worst = ref 0 in
      for i = 0 to nodes - 1 do
        for j = 0 to nodes - 1 do
          worst := max !worst (Net.offset_truth net j - Net.offset_truth net i)
        done
      done;
      c.Compose.boundary >= !worst && c.Compose.boundary >= c.Compose.node_boundaries.(0))

let test_fixture_rtt2_undercovers () =
  Sim.with_fresh_instance @@ fun () ->
  let spec = Spec.asymmetric_fixture () in
  let c = measure spec in
  let net : unit Net.t = Net.create spec in
  let true_skew = abs (Net.offset_truth net 1 - Net.offset_truth net 0) in
  check Alcotest.bool "fixture has real skew" true (true_skew >= 5_000);
  check Alcotest.bool "rtt/2 under-covers" true (c.Compose.rtt2_boundary < true_skew);
  check Alcotest.bool "composed covers" true (c.Compose.boundary >= true_skew)

(* ---- KV service ---- *)

let run_kv ?(spec = Spec.make ~machine:"amd" 2) ?(boundary = None) cfg =
  Sim.with_fresh_instance @@ fun () ->
  let boundary =
    match boundary with
    | Some b -> b
    | None -> ( match cfg.Kv.source with Kv.Logical -> 0 | Kv.Ordo -> (measure spec).Compose.boundary)
  in
  Kv.run ~boundary spec cfg

let base_cfg = { Kv.default with Kv.dur_ns = 60_000 }

let test_kv_deterministic () =
  let a = run_kv base_cfg and b = run_kv base_cfg in
  check Alcotest.bool "identical results" true (a = b)

let test_kv_completes_and_conserves () =
  (* The shard count is the spec's node count: 2 and 3 shards. *)
  List.iter
    (fun (nodes, source) ->
      let cfg = { base_cfg with Kv.read_pct = 0; cross_pct = 100; source } in
      let r = run_kv ~spec:(Spec.make ~machine:"amd" nodes) cfg in
      let name = Printf.sprintf "%s %d shards" (Kv.source_name source) nodes in
      check Alcotest.bool (name ^ " issued some") true (r.Kv.issued > 0);
      check Alcotest.int (name ^ " all resolved") r.Kv.issued (r.Kv.committed + r.Kv.aborted);
      check Alcotest.int (name ^ " no locks left") 0 r.Kv.locks_left;
      (* Transfers move value between keys; the total is invariant. *)
      check Alcotest.int (name ^ " conservation") (Kv.keys * 100) r.Kv.sum_values;
      check Alcotest.bool (name ^ " cross committed") true (r.Kv.cross_committed > 0))
    [ (2, Kv.Logical); (2, Kv.Ordo); (3, Kv.Logical); (3, Kv.Ordo) ]

let checker_report ?boundary cfg =
  let spec = Spec.make ~machine:"amd" 2 in
  Sim.with_fresh_instance @@ fun () ->
  let boundary =
    match boundary with
    | Some b -> b
    | None -> ( match cfg.Kv.source with Kv.Logical -> 0 | Kv.Ordo -> (measure spec).Compose.boundary)
  in
  Trace.start ~capacity:65536 ();
  let r = Kv.run ~boundary spec cfg in
  let t = Trace.stop () in
  (r, Checker.check ~boundary t)

let test_kv_checker_clean () =
  List.iter
    (fun source ->
      let r, rep = checker_report { base_cfg with Kv.source } in
      check Alcotest.bool (Kv.source_name source ^ " checker ok") true (Checker.ok rep);
      check Alcotest.bool
        (Kv.source_name source ^ " checker saw the commits")
        true
        (rep.Checker.committed = r.Kv.committed))
    [ Kv.Logical; Kv.Ordo ]

let test_kv_fixture_flagged () =
  Sim.with_fresh_instance @@ fun () ->
  let spec = Spec.asymmetric_fixture () in
  let c = measure spec in
  let cfg = { base_cfg with Kv.source = Kv.Ordo } in
  let verdict boundary =
    Trace.start ~capacity:65536 ();
    let (_ : Kv.result) = Kv.run ~boundary spec cfg in
    Checker.check ~boundary (Trace.stop ())
  in
  check Alcotest.bool "rtt/2 boundary flagged" false (Checker.ok (verdict c.Compose.rtt2_boundary));
  check Alcotest.bool "composed boundary clean" true (Checker.ok (verdict c.Compose.boundary))

let test_kv_lease_renewals () =
  (* Read-mostly traffic skewed onto a few hot keys: reads must land
     inside a still-active lease instead of bouncing it. *)
  let cfg = { base_cfg with Kv.theta = 0.9; read_pct = 90 } in
  let r = run_kv cfg in
  check Alcotest.bool "leases renewed" true (r.Kv.renewals > 0)

let test_kv_batching_reduces_messages () =
  let r1 = run_kv { base_cfg with Kv.batch = 1 } in
  let r4 = run_kv { base_cfg with Kv.batch = 4 } in
  check Alcotest.int "same offered load" r1.Kv.issued r4.Kv.issued;
  check Alcotest.bool "fewer messages" true (r4.Kv.messages < r1.Kv.messages)

(* A delivery is one heap block, [Deliver {node; inc; src; id; msg}]: 6
   words with its header.  On a warmed-up heap, with an immediate payload,
   each of 10 k send+deliver cycles may allocate no more than that.  When
   a delivery was a pend record plus a closure over the message, and the
   jitter draw boxed its mean, a cycle cost 19 words. *)
let test_delivery_allocation () =
  let net : int Net.t = Net.create (Spec.make ~machine:"amd" 2) in
  let sum = ref 0 in
  Net.on_message net (fun _ _ m -> sum := !sum + m);
  let cycle i =
    Net.send net ~src:0 ~dst:1 i;
    ignore (Net.step net : bool)
  in
  for i = 1 to 1_000 do
    cycle i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    cycle i
  done;
  let per = (Gc.minor_words () -. w0) /. 10_000.0 in
  check Alcotest.int "every message delivered" 11_000 (Net.delivered net);
  check Alcotest.int "payloads intact" ((1_000 * 1_001 / 2) + (10_000 * 10_001 / 2)) !sum;
  check Alcotest.bool (Printf.sprintf "%.2f words per message, at most 6" per) true (per <= 6.0)

let suite =
  [
    ("instance advance_to", `Quick, test_advance_to);
    ("spec parse", `Quick, test_spec_parse);
    ("spec replica groups", `Quick, test_spec_replicas);
    ("spec replica errors", `Quick, test_spec_replica_errors);
    ("spec round-trip", `Quick, test_spec_roundtrip);
    ("spec errors", `Quick, test_spec_errors);
    ("fifo links deliver in order", `Quick, test_fifo_in_order);
    ("reorder links overtake", `Quick, test_reorder_overtakes);
    ("network deterministic", `Quick, test_network_deterministic);
    ("a delivery allocates one record", `Quick, test_delivery_allocation);
    test_deferral_matches_repush;
    test_deferral_deep_inboxes;
    ("partial cycle with a live run", `Quick, test_partial_cycle_live_run);
    ("restart orphans the inbox wake", `Quick, test_restart_orphans_wake);
    ("busy deferral pops linear", `Quick, test_deferral_pops_linear);
    test_boundary_sound;
    ("fixture: rtt/2 under-covers", `Quick, test_fixture_rtt2_undercovers);
    ("kv deterministic", `Quick, test_kv_deterministic);
    ("kv conservation (both sources)", `Quick, test_kv_completes_and_conserves);
    ("kv checker clean (both sources)", `Quick, test_kv_checker_clean);
    ("kv fixture flagged", `Quick, test_kv_fixture_flagged);
    ("kv lease renewals", `Quick, test_kv_lease_renewals);
    ("kv batching reduces messages", `Quick, test_kv_batching_reduces_messages);
  ]
