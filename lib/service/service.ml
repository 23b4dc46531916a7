(* Ordo_service: a replicated, admission-controlled session front-end.

   Composes the repo's layers end to end: Sessions (lib/workloads)
   generates deterministic client traffic; each replica group runs a
   Kv.Key-shaped store under the Tardis read-lease / 2PC discipline of
   lib/cluster's Kv service; writes group-commit Silo-style in epochs
   (Epoch) with ONE Ordo commit-wait per epoch instead of one per
   cross-shard transaction; every state transition replicates
   primary -> backup over a sequenced idempotent stream (Replog); and
   leadership is lease-based (Lease) with failover as soon as the
   lease has certainly expired, so a chaos scenario (Node_fault via
   Chaos) that kills a primary mid-2PC degrades, promotes and recovers
   without losing or duplicating a commit.

   The protocol lives in four modules, each hiding one concern:
   - Node: the wire protocol, per-node state and the run context, the
     group arithmetic and the timer discipline;
   - Client: sessions, requests in flight, retransmission and redirects,
     latencies, and when the run stops;
   - Replication: buffered output and its release behind replication
     acks (flush before sync-ship, the exactly-once argument), stream
     application, snapshots and re-joins;
   - Twopc: coordinator and participant 2PC, epoch publish with its one
     commit wait, presumed abort and the decision chase.
   This file keeps leadership (heartbeat, failure monitor, the one
   takeover path), request execution and message dispatch.  Lease
   math: a backup promotes only once the lease has certainly expired
   on every clock and stamps above [promotion_floor > until +
   boundary]; degraded reads served while suspicion is pending stay at
   or below [min (rts, until)] — below anything the old primary
   promised a writer and below anything a promoted peer will stamp.

   The run is fully deterministic: all randomness flows through
   Sessions' split rng streams, the cluster sim is single-threaded
   discrete-event, and hashtable iteration is deterministic given a
   deterministic insertion history. *)

module Node_fault = Ordo_hazard.Node_fault
module Stats = Ordo_util.Stats
module Trace = Ordo_trace.Trace
module R = Replication
open Node

type config = {
  profile : Sessions.profile;  (** traffic shape; [keys] come from here *)
  adm : Admission.config;
  epoch_ns : int;  (** group-commit epoch; 0 = per-transaction commit wait *)
  seed : int;
}

let default =
  { profile = Sessions.default; adm = Admission.default; epoch_ns = 1_500; seed = 1 }

type group_stats = { g_admitted : int; g_shed : int; g_depth_hw : int }

type result = {
  issued : int;
  committed : int;
  failed : int;  (** ops the client gave up on (attempt budget exhausted) *)
  shed_replies : int;  (** shed replies observed by the client *)
  cross_issued : int;
  cross_committed : int;
  sessions_opened : int;
  sessions_closed : int;
  reconnects : int;
  storm_ops : int;
  epochs : int;
  epoch_txns : int;  (** cross-shard commits that rode an epoch batch *)
  commit_waits : int;  (** per epoch when batching, per transaction otherwise *)
  wait_ns : int;
  rep_shipped : int;
  rep_applied : int;
  rep_dups : int;
  rep_stale : int;  (** stream messages dropped by term/role checks *)
  promotions : int;
  degraded_reads : int;
  snapshots : int;  (** re-joins completed (restart or deposed leader) *)
  messages : int;
  dropped : int;  (** events dropped at dead nodes *)
  net_pops : int;  (** event-queue pops of the run's network ([Net.pops]) *)
  net_restamps : int;  (** inbox keys its network wrote ([Net.restamps]) *)
  end_ns : int;
  boundary : int;
  throughput : float;  (** committed ops per µs *)
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  sum_values : int;  (** conservation: must equal [expected_sum] *)
  expected_sum : int;
  locks_left : int;  (** must be 0 after the drain *)
  divergence : int;  (** live replica (value, ver) mismatches vs the leader *)
  per_group : group_stats array;
  timeline : Chaos.event list;
}

(* ---- leadership ---- *)

let rec heartbeat c n =
  if (not c.stopping) && leading n then begin
    let now = obs_clock c n.n_id in
    (* Renew only a still-valid lease (continuous possession).  Once it
       lapses — e.g. this timer starved under load — a replicated peer
       may already be counting down to promotion, so re-granting
       ourselves a term would race its floor; stay leader but stop
       serving (the Req path sheds on an invalid lease) until the
       peer's Promoted demotes us.  Unreplicated groups have no one to
       defer to and re-grant unconditionally. *)
    if Lease.valid n.n_lease ~now then n.n_lease <- Lease.renew n.n_lease ~now ~term_ns
    else if c.replicas = 1 then
      n.n_lease <- Lease.grant ~holder:n.n_id ~term:n.n_term ~now ~term_ns;
    if Lease.valid n.n_lease ~now then
      to_peers c n (Heartbeat { term = n.n_term; until = n.n_lease.Lease.until });
    arm c n hb_timer ~delay:heartbeat_ns heartbeat
  end

let start_heartbeat c n = if not n.n_armed.(hb_timer) then heartbeat c n

(* Follow [leader] in [term] with a lease until at least [until], never
   shortening the one already held. *)
let follow n ~leader ~term ~until =
  n.n_suspected <- false;
  n.n_lease <- { Lease.holder = leader; term; until = Int.max n.n_lease.Lease.until until }

(* The one leadership takeover, shared by a promoted backup and a
   restarted unreplicated node, once the caller has presume-aborted: a
   new term whose floor clears the old lease as of clock [now]; chase
   every unacknowledged decision; then a lease, announced to every node.
   Promotion grants it at a fresh clock read once the flush is out
   ([reread]); a restart grants it at [now]. *)
let take_lead (c : ctx) n now ~reread =
  n.n_role <- Leader;
  n.n_term <- n.n_term + 1;
  n.n_floor <- Lease.promotion_floor ~until:n.n_lease.Lease.until ~boundary:c.boundary ~now;
  n.n_to_send <- sorted_keys n.n_unacked;
  Twopc.flush_pump c n;
  let now = if reread then obs_clock c n.n_id else now in
  n.n_lease <- Lease.grant ~holder:n.n_id ~term:n.n_term ~now ~term_ns;
  c.views.(n.n_id).(n.n_group) <- n.n_id;
  let pos = Replog.position n.n_log in
  for d = 0 to c.client do
    if d <> n.n_id then
      Net.send c.net ~src:n.n_id ~dst:d
        (Promoted { group = n.n_group; term = n.n_term; leader = n.n_id; pos })
  done;
  start_heartbeat c n

let promote (c : ctx) n =
  let now = obs_clock c n.n_id in
  n.n_suspected <- false;
  Replog.seed_from_applied n.n_log;
  IntTbl.reset n.n_peer_ack;  (* old-term acks refer to a forked stream *)
  Queue.clear n.n_held;
  c.promotions <- c.promotions + 1;
  probe c n.n_id "svc.promote" n.n_group (n.n_term + 1);
  Chaos.record c.tl ~at:(Net.now c.net) ~node:n.n_id ~group:n.n_group "PROMOTED";
  Twopc.presume_abort_undecided n;
  take_lead c n now ~reread:true

let rec monitor (c : ctx) n =
  if (not c.stopping) && n.n_role = Backup && not n.n_syncing then begin
    let now = obs_clock c n.n_id in
    if Lease.valid n.n_lease ~now then n.n_suspected <- false
    else begin
      if not n.n_suspected then begin
        n.n_suspected <- true;
        probe c n.n_id "svc.degraded" n.n_group n.n_term;
        Chaos.record c.tl ~at:(Net.now c.net) ~node:n.n_id ~group:n.n_group "DEGRADED"
      end;
      (* fail over once expiry is certain on every clock; each later
         rank waits one more lease term *)
      let rank = n.n_id - base_of c n.n_group in
      let give_up_at = n.n_lease.Lease.until + c.boundary + 1 + (Int.max 0 (rank - 1) * term_ns) in
      if now > give_up_at then promote c n
    end;
    if n.n_role = Backup then arm_monitor c n
  end

and arm_monitor c n = arm c n mon_timer ~delay:heartbeat_ns monitor

(* Chaos restart hook.  Volatile buffers and timers died with the old
   incarnation.  An unreplicated group resumes leadership over its
   durable store (presume-aborting the 2PC coordination that died with
   the process); a replicated one re-joins with amnesia. *)
let restart_node c node =
  let n = c.st.(node) in
  R.clear_volatile n;
  Array.fill n.n_armed 0 (Array.length n.n_armed) false;
  if c.replicas = 1 then begin
    let now = obs_clock c node in
    Twopc.presume_abort_undecided n;
    take_lead c n now ~reread:false;
    Chaos.record c.tl ~at:(Net.now c.net) ~node ~group:n.n_group "RECOVERED"
  end
  else R.rejoin c n

(* ---- request execution (leader) ---- *)

(* A read of version [ver] of key [k], served at [ts]. *)
let emit_read c node k ver ts =
  Obs.emit_tx c.net node ~start_ts:ts ~reads:[ (k, ver) ] ~installs:[] ~commit_ts:ts

let rec exec c n rid op tries =
  let k = match op with Sessions.Get k | Sessions.Put k | Sessions.Transfer (k, _) -> k in
  let stk = n.n_store.(k) in
  if stk.Key.locked then retry_locked c n rid op tries
  else
    match op with
    | Sessions.Get _ ->
      (* reads ride the same ack watermark as writes: the reply (and the
         trace record) must not leave until the rts extension — and any
         unacked install this read observed — is replicated, or a
         promotion could stamp a write under a read we already served (a
         read past its replicated rts) *)
      let read_at = Int.max (obs_clock c n.n_id) stk.Key.wts in
      let new_rts = Int.max stk.Key.rts (read_at + Kv.lease_ns) in
      stk.Key.rts <- new_rts;
      let ver = stk.Key.ver in
      R.buffer_entry n (Replog.Lease_ext { key = k; rts = new_rts });
      if Trace.enabled () then R.buffer_probe n (fun () -> emit_read c n.n_id k ver read_at);
      IntTbl.remove n.n_exec rid;
      Admission.release n.n_adm;
      R.buffer_reply n rid Done_ok;
      Twopc.ensure_flush c n
    | Sessions.Put _ ->
      let ts = Key.write_stamp ~clock:(obs_clock c n.n_id) ~floor:n.n_floor stk in
      let old = stk.Key.ver in
      R.install n k ~ver:(old + 1) ~ts ~delta:1;
      R.resolve n rid (true, 1);
      if Trace.enabled () then
        R.buffer_probe n (fun () ->
            Obs.emit_tx c.net n.n_id ~start_ts:ts ~reads:[] ~installs:[ (k, old + 1) ] ~commit_ts:ts);
      Twopc.ensure_flush c n
    | Sessions.Transfer (a, b) -> Twopc.prepare c n ~rid a b

and retry_locked c n rid op tries =
  if tries >= Kv.max_retries then begin
    R.resolve n rid (false, 0);
    Twopc.ensure_flush c n
  end
  else
    Net.at c.net ~node:n.n_id ~delay:(Kv.retry_ns * (tries + 1)) (fun () ->
        if leading n && Lease.valid n.n_lease ~now:(obs_clock c n.n_id) then begin
          Net.busy c.net n.n_id Kv.op_ns;
          exec c n rid op (tries + 1)
        end
        else begin
          (* deposed while queued: the client's retransmit chases the new
             leader; just free the admission slot *)
          IntTbl.remove n.n_exec rid;
          Admission.release n.n_adm
        end)

let on_req (c : ctx) n rid op =
  let dst = n.n_id in
  if leading n then begin
    if not (Lease.valid n.n_lease ~now:(obs_clock c dst)) then
      (* own lease lapsed (e.g. deferred under load): shed rather than
         risk serving past it *)
      reply_client c dst rid (Shed_retry heartbeat_ns)
    else if IntTbl.mem n.n_unflushed rid then ()  (* reply already buffered *)
    else
      match IntTbl.find_opt n.n_done rid with
      | Some (ok, _) ->
        (* retransmit of a resolved request: replay the outcome *)
        reply_client c dst rid (if ok then Done_ok else Done_fail)
      | None when IntTbl.mem n.n_exec rid -> ()  (* still executing (2PC or locked-key backoff) *)
      | None -> (
        match Admission.admit n.n_adm ~now:(Net.now c.net) with
        | `Shed ra ->
          probe c dst "svc.shed" n.n_group ra;
          reply_client c dst rid (Shed_retry ra)
        | `Admit ->
          IntTbl.replace n.n_exec rid ();
          Net.busy c.net dst Kv.op_ns;
          exec c n rid op 0)
  end
  else if n.n_syncing then ()
  else if n.n_suspected then
    (* degraded service while failover is pending: reads at timestamps
       the replicated leases already cover, writes shed *)
    match op with
    | Sessions.Get k -> (
      let stk = n.n_store.(k) in
      if stk.Key.locked then reply_client c dst rid (Shed_retry Kv.retry_ns)
      else
        match
          Lease.degraded_read_ts ~wts:stk.Key.wts ~rts:stk.Key.rts ~until:n.n_lease.Lease.until
            ~clock:(obs_clock c dst)
        with
        | Some dts ->
          c.degraded_reads <- c.degraded_reads + 1;
          emit_read c dst k stk.Key.ver dts;
          reply_client c dst rid Done_ok
        | None -> reply_client c dst rid (Shed_retry (Kv.retry_ns * 4)))
    | _ -> reply_client c dst rid (Shed_retry heartbeat_ns)
  else reply_client c dst rid (Moved c.views.(dst).(n.n_group))

(* ---- message dispatch ---- *)

(* Node occupancy a delivered message charges: one step more for those
   that touch the store or the 2PC tables. *)
let cost = function
  | Prepare _ | Prepared _ | Decision _ | Join _ | Snapshot _ -> Kv.msg_ns + Kv.op_ns
  | _ -> Kv.msg_ns

let dispatch (c : ctx) cl src dst m =
  if dst = c.client then
    match m with
    | Reply { rid; outcome } -> Client.on_reply cl rid outcome
    | Promoted { group; leader; _ } -> Client.on_promoted cl ~group ~leader
    | _ -> ()
  else begin
    Net.busy c.net dst (cost m);
    let n = c.st.(dst) in
    match m with
    | Req { rid; op } -> on_req c n rid op
    | Prepare { txid; key_b; prop; coord } -> Twopc.on_prepare c n ~txid ~key_b ~prop ~coord
    | Prepared { txid; ver_b; prop } -> Twopc.on_prepared c n ~txid ~ver_b ~prop
    | Conflict { txid } -> Twopc.on_conflict c n ~txid
    | Decision { txid; commit; ts; ver_b } -> Twopc.on_decision c n ~src ~txid ~commit ~ts ~ver_b
    | DecisionAck { txid } -> Twopc.on_decision_ack c n ~txid
    | Rep { term; entries } -> R.on_rep c n ~src ~term entries
    | RepAck { term; seq } -> if R.on_rep_ack c n ~src ~term ~seq then Twopc.pump c n
    | Heartbeat { term; until } ->
      if n.n_role = Backup && (not n.n_syncing) && term >= n.n_term then begin
        if term > n.n_term then n.n_term <- term;
        follow n ~leader:src ~term ~until
      end
    | Promoted { group; term; leader; pos } ->
      c.views.(dst).(group) <- leader;
      if n.n_group = group && dst <> leader && term > n.n_term then begin
        n.n_term <- term;
        follow n ~leader ~term ~until:(obs_clock c dst + term_ns);
        if n.n_role = Leader then R.rejoin c n  (* deposed *)
        else if (not n.n_syncing) && Replog.applied_seq n.n_log <> pos then
          (* the promotion forked the sequence space at [pos]; a backup
             applied to any other point must resync *)
          R.rejoin c n
      end
    | Join { node } ->
      if leading n && group_of_node c node = n.n_group then begin
        Twopc.flush c n;  (* snapshot = the shipped prefix *)
        if R.send_snapshot c n ~node then Twopc.pump c n
      end
    | Snapshot { term; snap } ->
      if n.n_syncing then begin
        R.install_snapshot n ~term snap;
        follow n ~leader:src ~term:n.n_term ~until:(obs_clock c dst + term_ns);
        c.snapshots <- c.snapshots + 1;
        Chaos.record c.tl ~at:(Net.now c.net) ~node:dst ~group:n.n_group "RECOVERED";
        arm_monitor c n
      end
    | Reply _ -> ()
  end

(* ---- results ---- *)

let result (c : ctx) cl =
  let net = c.net and st = c.st in
  let acting g =
    match List.filter (fun m -> Net.alive net m && st.(m).n_role = Leader) (members c g) with
    | l :: _ -> l
    | [] -> base_of c g
  in
  let sum_values = ref 0 and locks_left = ref 0 and divergence = ref 0 in
  let expected_sum = ref (c.keys * 100) in
  for g = 0 to c.groups - 1 do
    let a = acting g in
    let l = st.(a) in
    for k = 0 to c.keys - 1 do
      if group_of_key c k = g then begin
        sum_values := !sum_values + l.n_store.(k).Key.value;
        if l.n_store.(k).Key.locked then incr locks_left
      end
    done;
    IntTbl.iter (fun _ (ok, d) -> if ok then expected_sum := !expected_sum + d) l.n_done;
    List.iter
      (fun m ->
        if m <> a && Net.alive net m && not st.(m).n_syncing then
          for k = 0 to c.keys - 1 do
            let mk = st.(m).n_store.(k) and lk = l.n_store.(k) in
            if group_of_key c k = g && (mk.Key.value <> lk.Key.value || mk.Key.ver <> lk.Key.ver)
            then incr divergence
          done)
      (members c g)
  done;
  let per_group =
    Array.init c.groups (fun g ->
        List.fold_left
          (fun acc m ->
            let adm = st.(m).n_adm in
            { g_admitted = acc.g_admitted + Admission.admitted adm;
              g_shed = acc.g_shed + Admission.shed adm;
              g_depth_hw = Int.max acc.g_depth_hw (Admission.depth_hw adm) })
          { g_admitted = 0; g_shed = 0; g_depth_hw = 0 }
          (members c g))
  in
  let sum_over f = Array.fold_left (fun acc n -> acc + f n) 0 st in
  let lats = Array.map float_of_int (Client.latencies cl) in
  let pct p = if Array.length lats = 0 then 0.0 else Stats.percentile lats p in
  let ss = Sessions.stats cl.Client.gen in
  let end_ns = cl.Client.end_ns in
  {
    issued = cl.Client.issued;
    committed = cl.Client.committed;
    failed = cl.Client.failed;
    shed_replies = cl.Client.shed_replies;
    cross_issued = cl.Client.cross_issued;
    cross_committed = c.cross_committed;
    sessions_opened = ss.Sessions.opened;
    sessions_closed = ss.Sessions.closed;
    reconnects = ss.Sessions.reconnects;
    storm_ops = ss.Sessions.storm_ops;
    epochs = sum_over (fun n -> Epoch.epochs n.n_batch);
    epoch_txns = sum_over (fun n -> Epoch.total_members n.n_batch);
    commit_waits = c.commit_waits;
    wait_ns = c.wait_ns;
    rep_shipped = sum_over (fun n -> Replog.shipped n.n_log);
    rep_applied = sum_over (fun n -> Replog.applied n.n_log);
    rep_dups = sum_over (fun n -> Replog.dups n.n_log);
    rep_stale = c.rep_stale;
    promotions = c.promotions;
    degraded_reads = c.degraded_reads;
    snapshots = c.snapshots;
    messages = Net.delivered net;
    dropped = Net.dropped net;
    net_pops = Net.pops net;
    net_restamps = Net.restamps net;
    end_ns;
    boundary = c.boundary;
    throughput =
      (if end_ns = 0 then 0.0
       else float_of_int cl.Client.committed /. (float_of_int end_ns /. 1_000.0));
    mean_ns = (if Array.length lats = 0 then 0.0 else Stats.mean lats);
    p50_ns = pct 0.5;
    p99_ns = pct 0.99;
    sum_values = !sum_values;
    expected_sum = !expected_sum;
    locks_left = !locks_left;
    divergence = !divergence;
    per_group;
    timeline = Chaos.events c.tl;
  }

let run ~boundary ?(fault = Node_fault.empty "none") spec cfg =
  let groups = Net.Spec.groups spec in
  if groups < 2 then invalid_arg "Service.run: need at least 2 groups";
  if boundary < 0 then invalid_arg "Service.run: negative boundary";
  if cfg.epoch_ns < 0 then invalid_arg "Service.run: negative epoch";
  Node_fault.validate ~nodes:spec.Net.Spec.nodes fault;
  (* transfers partner across groups: the traffic's partition count is
     the group count, whatever the profile said *)
  let profile = { cfg.profile with Sessions.partitions = groups } in
  let c = Node.create ~boundary ~epoch_ns:cfg.epoch_ns ~adm:cfg.adm ~keys:profile.Sessions.keys spec in
  let cl = Client.create c ~seed:cfg.seed profile in
  Net.on_message c.net (dispatch c cl);
  (* the construction-time lease predates the simulated clock base; the
     real grant happens here, at each leader's own clock *)
  Array.iter
    (fun n ->
      if n.n_role = Leader then begin
        n.n_lease <- Lease.grant ~holder:n.n_id ~term:n.n_term ~now:(obs_clock c n.n_id) ~term_ns;
        start_heartbeat c n
      end
      else arm_monitor c n)
    c.st;
  Chaos.install c.net fault ~timer_node:c.client ~group_of:(group_of_node c)
    ~on_restart:(restart_node c) c.tl;
  Client.start cl;
  Net.run c.net;
  result c cl

let violations r =
  let v = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  if r.issued <> r.committed + r.failed then
    fail "%d issued but %d committed + %d failed" r.issued r.committed r.failed;
  if r.sum_values <> r.expected_sum then
    fail "conservation: sum %d, expected %d (lost or duplicated commits)" r.sum_values
      r.expected_sum;
  if r.locks_left <> 0 then fail "%d locks leaked" r.locks_left;
  if r.divergence <> 0 then fail "%d replica divergences" r.divergence;
  List.rev !v
