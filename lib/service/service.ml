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

   Correctness skeleton — each rule is load-bearing:

   - Flush before sync-ship.  A primary buffers replication entries,
     client replies and trace-probe thunks; [flush] ships the entries
     to the backups BEFORE any reply or 2PC protocol message leaves the
     node.  So acknowledged => replicated, and unacknowledged => the
     client retransmits and the replicated done-table dedups.  That
     pair is the whole exactly-once argument.

   - Epoch group commit.  Cross-shard commits join the open epoch with
     their joint (max) proposal; the epoch close commit-waits the joint
     proposal once (one [ordo.new_time] probe per epoch), then installs
     every member at the epoch's final stamp.  Single-shard writes ride
     the same flush for replication amortization but need no wait.

   - Lease math (Lease).  A backup promotes only once the lease has
     certainly expired on every clock and stamps above
     [promotion_floor > until + boundary]; degraded reads served while
     suspicion is pending stay at or below [min (rts, until)] — below
     anything the old primary promised a writer and below anything a
     promoted peer will stamp.

   - Presumed abort.  A promoted (or restarted, for unreplicated
     groups) leader aborts every replicated-but-undecided
     coordinator-side preparation: decisions flush before they ship, so
     no decision in the replicated prefix means no participant has one
     either.  Decisions retransmit until acknowledged; the participant
     dedups by txid.  Promotion and the unreplicated restart take over
     through one path ([take_lead]).

   - Stream identity.  A promotion reuses the dead primary's sequence
     space from the promoted node's applied position; the [Promoted]
     broadcast carries that position, and any same-group backup whose
     applied position differs re-joins via snapshot rather than apply a
     forked stream.

   The run is fully deterministic: all randomness flows through
   Sessions' split rng streams, the cluster sim is single-threaded
   discrete-event, and hashtable iteration is deterministic given a
   deterministic insertion history. *)

module Net = Ordo_cluster.Net
module Kv = Ordo_cluster.Kv
module Key = Kv.Key
module Obs = Kv.Obs
module Sessions = Ordo_workloads.Sessions
module Node_fault = Ordo_hazard.Node_fault
module Stats = Ordo_util.Stats
module Trace = Ordo_trace.Trace

(* Every service table is keyed by an int (rid, txid or node id), and an
   int-specialised table hashes without a C call.  Its iteration order
   follows this hash, which is safe: every iteration over these tables
   is sorted, summed, re-inserted into another table, or order-free
   (resetting a field on each entry). *)
module IntTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Fun.id
end)

let sorted_keys tbl = List.sort Int.compare (IntTbl.fold (fun k _ acc -> k :: acc) tbl [])

(* [List.iter f (List.rev l)] without building the reversed list: the
   service buffers newest first and ships oldest first. *)
let rec iter_oldest_first f = function
  | [] -> ()
  | x :: older ->
    iter_oldest_first f older;
    f x

type config = {
  profile : Sessions.profile;  (** traffic shape; [keys] come from here *)
  adm : Admission.config;
  epoch_ns : int;  (** group-commit epoch; 0 = per-transaction commit wait *)
  seed : int;
}

let default =
  { profile = Sessions.default; adm = Admission.default; epoch_ns = 1_500; seed = 1 }

(* Engineering constants no caller varies.  Step and message costs,
   locked-key backoff and its cap, and the read-lease length are Kv's. *)
let term_ns = 60_000  (* leadership lease term *)
let heartbeat_ns = 20_000  (* lease renewal / failure-detector tick *)
let client_retry_ns = 40_000  (* client retransmit patience *)
let max_attempts = 12  (* client attempts (sheds included) before giving up *)
let prep_abort_ns = 30_000  (* coordinator patience before presuming a prepare dead *)
let rexmit_ns = 15_000  (* decision retransmit interval *)
let rexmit_cap = 64  (* decision retransmits before giving up *)

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

type role = Leader | Backup

(* One side of a pending 2PC transfer ([pr_coord] = coordinator). *)
type prep = {
  pr_txid : int;
  pr_key : int;  (* the key this node locked *)
  pr_other : int;  (* coordinator side: the participant's key *)
  pr_prop : int;  (* this side's commit proposal *)
  pr_rid : int;  (* coordinator side: the client request *)
  pr_peer : int;  (* the other side's group *)
  pr_coord : bool;
}

(* A decision the participant group has not acknowledged yet. *)
type undec = {
  u_commit : bool;
  u_ts : int;
  u_ver_b : int;
  u_peer : int;
  mutable u_tries : int;
}

type outcome =
  | Done_ok
  | Done_fail
  | Shed_retry of int  (* retry-after hint, ns *)
  | Moved of int  (* redirect: believed leader of the key's group *)

type msg =
  | Req of { rid : int; op : Sessions.op }
  | Reply of { rid : int; outcome : outcome }
  | Prepare of { txid : int; key_b : int; prop : int; coord : int }
  | Prepared of { txid : int; ver_b : int; prop : int }
  | Conflict of { txid : int }
  | Decision of { txid : int; commit : bool; ts : int; ver_b : int }
  | DecisionAck of { txid : int }
  | Rep of { term : int; entries : Replog.entry list }  (* newest first *)
  | RepAck of { term : int; seq : int }  (* backup applied through [seq] *)
  | Heartbeat of { term : int; until : int }
  | Promoted of { group : int; term : int; leader : int; pos : int }
  | Join of { node : int }
  | Snapshot of {
      term : int;
      seq : int;  (* stream position the snapshot is current as of *)
      keys : (int * int * int * int * int * bool) list;
          (* (key, value, ver, wts, rts, locked) *)
      preps : prep list;
      dones : (int * bool * int) list;  (* (rid, ok, delta) *)
      decideds : (int * bool) list;
      unackeds : (int * undec) list;
    }

(* Output of one flush that waits for replication acks: it leaves once
   every peer has acknowledged the stream through [h_wm].  Both lists are
   newest first. *)
type held = { h_wm : int; h_probes : (unit -> unit) list; h_replies : (int * outcome) list }

type nstate = {
  n_id : int;
  n_group : int;
  mutable n_role : role;
  mutable n_term : int;
  mutable n_lease : Lease.t;
  mutable n_floor : int;  (* promotion floor: min stamp this leader may use *)
  n_store : Key.t array;
  n_log : Replog.t;
  n_adm : Admission.t;
  n_done : (bool * int) IntTbl.t;  (* rid -> (ok, value delta) *)
  n_prep : prep IntTbl.t;
  n_decided : bool IntTbl.t;  (* txid -> commit? *)
  n_unacked : undec IntTbl.t;
  n_exec : unit IntTbl.t;
      (* rids admitted but not yet resolved (locked-key backoff, open
         2PC): a retransmit of one of these must not execute again *)
  n_batch : (int -> unit) Epoch.t;  (* members are commit closures *)
  mutable n_entries : Replog.entry list;  (* buffered, newest first *)
  mutable n_replies : (int * outcome) list;  (* newest first *)
  mutable n_probes : (unit -> unit) list;  (* newest first *)
  n_unflushed : unit IntTbl.t;  (* rids with a buffered or held reply *)
  n_peer_ack : int IntTbl.t;  (* peer -> highest replicated seq it acked *)
  n_held : held Queue.t;
      (* flushed probes and replies awaiting replication acks, in ship
         order, so with ascending watermarks: both leave only
         once every peer has acknowledged the stream through the
         watermark, so an acknowledged or trace-visible op is
         replicated — not merely shipped.  A commit the group never
         saw must stay out of the trace too: a promotion that forks
         the stream under it would otherwise serve older versions at
         later stamps and the offline checker would (rightly) flag
         the orphaned write as a lost update *)
  mutable n_to_send : int list;  (* decisions awaiting first transmission *)
  mutable n_flush_armed : bool;
  mutable n_rexmit_armed : bool;
  mutable n_hb_armed : bool;
  mutable n_mon_armed : bool;
  mutable n_syncing : bool;  (* re-joining: awaiting a snapshot *)
  mutable n_suspected : bool;  (* backup: lease lapsed, failover pending *)
}

(* One client-side op in flight. *)
type pend = {
  p_rid : int;
  p_op : Sessions.op;
  p_group : int;
  p_arrival : int;
  mutable p_attempts : int;
  mutable p_rot : int;  (* replica rotation, bumped on timeouts only *)
  mutable p_sent_at : int;
  p_fin : bool -> unit;
}

let run ~boundary ?(fault = Node_fault.empty "none") spec cfg =
  let replicas = spec.Net.Spec.replicas in
  let groups = Net.Spec.groups spec in
  if groups < 2 then invalid_arg "Service.run: need at least 2 groups";
  if boundary < 0 then invalid_arg "Service.run: negative boundary";
  if cfg.epoch_ns < 0 then invalid_arg "Service.run: negative epoch";
  Node_fault.validate ~nodes:spec.Net.Spec.nodes fault;
  (* transfers partner across groups: the traffic's partition count is
     the group count, whatever the profile said *)
  let profile = { cfg.profile with Sessions.partitions = groups } in
  let keys = profile.Sessions.keys in
  let nodes = spec.Net.Spec.nodes in
  let client = nodes in
  let net : msg Net.t = Net.create (Net.Spec.extend spec 1) in
  let tl = Chaos.timeline () in
  let base_of g = g * replicas in
  let group_of_node i = i / replicas in
  let group_of_key k = k mod groups in
  let members g = List.init replicas (fun r -> base_of g + r) in

  (* ---- counters ---- *)
  let issued = ref 0 and committed = ref 0 and failed = ref 0 in
  let shed_replies = ref 0 in
  let cross_issued = ref 0 and cross_committed = ref 0 in
  let commit_waits = ref 0 and wait_ns = ref 0 in
  let rep_stale = ref 0 in
  let promotions = ref 0 and degraded_reads = ref 0 and snapshots = ref 0 in
  let end_ns = ref 0 in
  let lats = ref (Array.make 1024 0) and n_lats = ref 0 in
  let rid_counter = ref 0 and txid_counter = ref 0 in
  let stopping = ref false in

  (* ---- per-node state ---- *)
  let st =
    Array.init nodes (fun i ->
        let g = group_of_node i in
        {
          n_id = i;
          n_group = g;
          n_role = (if i mod replicas = 0 then Leader else Backup);
          n_term = 1;
          n_lease =
            Lease.grant ~holder:(base_of g) ~term:1 ~now:0 ~term_ns;
          n_floor = 0;
          n_store = Array.init keys (fun _ -> Key.make ~value:100);
          n_log = Replog.create ();
          n_adm = Admission.create cfg.adm;
          n_done = IntTbl.create 256;
          n_prep = IntTbl.create 32;
          n_decided = IntTbl.create 256;
          n_unacked = IntTbl.create 32;
          n_exec = IntTbl.create 32;
          n_peer_ack = IntTbl.create 4;
          n_held = Queue.create ();
          n_batch = Epoch.create ~epoch_ns:cfg.epoch_ns;
          n_entries = [];
          n_replies = [];
          n_probes = [];
          n_unflushed = IntTbl.create 32;
          n_to_send = [];
          n_flush_armed = false;
          n_rexmit_armed = false;
          n_hb_armed = false;
          n_mon_armed = false;
          n_syncing = false;
          n_suspected = false;
        })
  in
  (* views.(v).(g): node v's belief about group g's leader (last row =
     the client) *)
  let views = Array.init (nodes + 1) (fun _ -> Array.init groups base_of) in
  let peers_of =
    Array.init nodes (fun i -> List.filter (fun m -> m <> i) (members (group_of_node i)))
  in
  let peers n = peers_of.(n.n_id) in
  let rank n = n.n_id - base_of n.n_group in
  let obs_clock node = Obs.clock net node in
  let probe node name b c = Obs.probe net node name b c in
  let reply_client src rid outcome = Net.send net ~src ~dst:client (Reply { rid; outcome }) in

  (* ---- client bookkeeping ---- *)
  let gen = Sessions.create ~seed:cfg.seed profile in
  let live = ref 0 in
  let arrivals_open = ref true in
  let pending : pend IntTbl.t = IntTbl.create 1024 in

  (* ---- decision retransmission ---- *)
  let send_decision n txid =
    match IntTbl.find_opt n.n_unacked txid with
    | None -> ()
    | Some u ->
      Net.send net ~src:n.n_id ~dst:views.(n.n_id).(u.u_peer)
        (Decision { txid; commit = u.u_commit; ts = u.u_ts; ver_b = u.u_ver_b })
  in
  let rec rexmit_tick n () =
    n.n_rexmit_armed <- false;
    (* keeps running past [stopping]: unacknowledged decisions must land
       or the participant group drains with a lock held *)
    if n.n_role = Leader && not n.n_syncing && IntTbl.length n.n_unacked > 0
    then begin
      List.iter
        (fun txid ->
          match IntTbl.find_opt n.n_unacked txid with
          | None -> ()
          | Some u ->
            if u.u_tries >= rexmit_cap then IntTbl.remove n.n_unacked txid
            else begin
              u.u_tries <- u.u_tries + 1;
              send_decision n txid
            end)
        (sorted_keys n.n_unacked);
      arm_rexmit n
    end
  and arm_rexmit n =
    if not n.n_rexmit_armed then begin
      n.n_rexmit_armed <- true;
      Net.at net ~node:n.n_id ~delay:rexmit_ns (rexmit_tick n)
    end
  in
  (* First transmission of freshly decided transactions, then keep the
     retransmit timer alive while anything is unacknowledged. *)
  let pump_decisions n =
    (match n.n_to_send with
    | [] -> ()
    | fresh ->
      n.n_to_send <- [];
      iter_oldest_first (send_decision n) fresh);
    if IntTbl.length n.n_unacked > 0 then arm_rexmit n
  in

  (* ---- buffered flush discipline ---- *)
  let buffer_entry n op = n.n_entries <- Replog.next n.n_log op :: n.n_entries in
  let buffer_probe n f = n.n_probes <- f :: n.n_probes in
  let buffer_reply n rid outcome =
    IntTbl.replace n.n_unflushed rid ();
    n.n_replies <- (rid, outcome) :: n.n_replies
  in
  (* Ship buffered entries to the backups FIRST; the buffered probe
     thunks and replies leave together only once every peer has
     acknowledged the stream through the flush's watermark (sent-but-
     unapplied entries can still be orphaned by a promotion that forks
     the stream under them).  Release additionally requires this
     node's lease to still be valid: under a valid lease no peer can
     have promoted (the promotion floor sits above until + boundary),
     so the acked batch is part of the one true stream.  A lapsed
     holder's batches are dropped wholesale by the deposition paths —
     their writes either survive on the new leader (which re-serves
     the retransmitting client from the replicated done-table) or
     never happened anywhere that matters.  Once [stopping] is set no
     monitor can promote anyone, so late acks release freely.
     Unreplicated groups have no peers to wait for and emit/reply
     immediately. *)
  let send_reply n (rid, outcome) =
    IntTbl.remove n.n_unflushed rid;
    reply_client n.n_id rid outcome
  in
  let peer_ack n p = match IntTbl.find n.n_peer_ack p with s -> s | exception Not_found -> -1 in
  let rec min_ack n acc = function [] -> acc | p :: ps -> min_ack n (Int.min acc (peer_ack n p)) ps in
  let min_peer_ack n = min_ack n max_int (peers n) in
  let release_held n =
    if
      (not (Queue.is_empty n.n_held))
      && (Lease.valid n.n_lease ~now:(obs_clock n.n_id) || !stopping)
    then begin
      let ack = min_peer_ack n in
      (* watermarks ascend along the queue (a stream position never moves
         back), so the batches ready to leave are a prefix of it *)
      if (Queue.peek n.n_held).h_wm <= ack then begin
        while (not (Queue.is_empty n.n_held)) && (Queue.peek n.n_held).h_wm <= ack do
          let h = Queue.take n.n_held in
          iter_oldest_first (fun f -> f ()) h.h_probes;
          iter_oldest_first (send_reply n) h.h_replies
        done;
        (* released thunks may have queued first Decision
           transmissions (cross-commit sends are emission-gated) *)
        pump_decisions n
      end
    end
  in
  let flush n =
    (match n.n_entries with
    | [] -> ()
    | entries ->
      n.n_entries <- [];
      List.iter
        (fun p -> Net.send net ~src:n.n_id ~dst:p (Rep { term = n.n_term; entries }))
        (peers n));
    (match (n.n_probes, n.n_replies) with
    | [], [] -> ()
    | probes, replies ->
      n.n_probes <- [];
      n.n_replies <- [];
      if replicas = 1 then begin
        iter_oldest_first (fun f -> f ()) probes;
        iter_oldest_first (send_reply n) replies
      end
      else Queue.add { h_wm = Replog.position n.n_log; h_probes = probes; h_replies = replies } n.n_held);
    release_held n
  in
  (* Flush, then give fresh decisions their first transmission. *)
  let flush_pump n =
    flush n;
    pump_decisions n
  in

  (* ---- epoch publish ---- *)
  let publish n joint fns =
    let fin () =
      let final = obs_clock n.n_id in
      probe n.n_id "ordo.new_time" joint final;
      List.iter (fun f -> f final) fns;
      flush_pump n
    in
    let c = obs_clock n.n_id in
    if c > joint + boundary then fin ()
    else begin
      let delay = joint + boundary + 1 - c in
      incr commit_waits;
      wait_ns := !wait_ns + delay;
      Net.at net ~node:n.n_id ~delay fin
    end
  in
  let epoch_tick n () =
    n.n_flush_armed <- false;
    match Epoch.close n.n_batch with
    | Some (joint, fns) -> publish n joint fns
    | None -> flush_pump n
  in
  (* Immediate mode flushes inline; epoch mode arms one close timer. *)
  let ensure_flush n =
    if cfg.epoch_ns = 0 then flush_pump n
    else if not n.n_flush_armed then begin
      n.n_flush_armed <- true;
      Net.at net ~node:n.n_id ~delay:cfg.epoch_ns (epoch_tick n)
    end
  in

  (* ---- request resolution ---- *)
  (* Resolve admitted request [rid] with [outcome] = (ok, value delta):
     record it in the done-table and the stream, free its execution mark
     and admission slot, and buffer the reply.  A failure burns the rid
     (the client reissues under a fresh one).  Callers pass a literal
     pair, which is a static constant: the done-table entry allocates
     nothing. *)
  let resolve n rid ((ok, delta) as outcome) =
    IntTbl.replace n.n_done rid outcome;
    buffer_entry n (Replog.Done { rid; ok; delta });
    IntTbl.remove n.n_exec rid;
    Admission.release n.n_adm;
    buffer_reply n rid (if ok then Done_ok else Done_fail)
  in
  (* Install version [ver] of key [k] at [ts] and log its absolute state. *)
  let install n k ~ver ~ts ~delta =
    let stk = n.n_store.(k) in
    Key.install stk ~ver ~ts ~delta;
    buffer_entry n
      (Replog.Install { key = k; value = stk.Key.value; ver; wts = ts; rts = stk.Key.rts })
  in
  (* Lock [key] for one side of 2PC transaction [txid]. *)
  let lock_prep n ~txid ~key ~other ~prop ~rid ~peer ~coord =
    n.n_store.(key).Key.locked <- true;
    IntTbl.replace n.n_prep txid
      {
        pr_txid = txid;
        pr_key = key;
        pr_other = other;
        pr_prop = prop;
        pr_rid = rid;
        pr_peer = peer;
        pr_coord = coord;
      }
  in

  (* ---- 2PC resolution ---- *)
  (* Coordinator-side abort: release the lock, fail the request, and
     optionally chase the participant with an abort decision (presumed
     abort / prepare timeout; a Conflict abort has no participant-side
     lock to release). *)
  let abort_tx n txid p ~notify_peer =
    n.n_store.(p.pr_key).Key.locked <- false;
    IntTbl.remove n.n_prep txid;
    IntTbl.replace n.n_decided txid false;
    buffer_entry n (Replog.Decide { txid; commit = false; ts = 0; ver_b = 0 });
    resolve n p.pr_rid (false, 0);
    if notify_peer then begin
      IntTbl.replace n.n_unacked txid
        { u_commit = false; u_ts = 0; u_ver_b = 0; u_peer = p.pr_peer; u_tries = 0 };
      n.n_to_send <- txid :: n.n_to_send
    end
  in
  (* Coordinator-side commit of one cross-group transfer, at the epoch's
     (or its own) final stamp. *)
  let commit_cross n txid p ~ver_b ~tx_start ~final =
    let a = p.pr_key in
    let stk = n.n_store.(a) in
    let old = stk.Key.ver in
    install n a ~ver:(old + 1) ~ts:final ~delta:(-1);
    stk.Key.locked <- false;
    IntTbl.remove n.n_prep txid;
    IntTbl.replace n.n_decided txid true;
    buffer_entry n (Replog.Decide { txid; commit = true; ts = final; ver_b = ver_b + 1 });
    resolve n p.pr_rid (true, 0);
    let b = p.pr_other and peer = p.pr_peer in
    buffer_probe n (fun () ->
        Obs.emit_tx net n.n_id ~start_ts:tx_start
          ~reads:[ (a, old); (b, ver_b) ]
          ~installs:[ (a, old + 1); (b, ver_b + 1) ]
          ~commit_ts:final;
        (* The first Decision transmission is gated with the emission:
           this one probe publishes installs on BOTH shards, so if the
           Decision shipped at commit the participant could install
           key b — and emit its own next write over it — before this
           record exists, sequencing its version under ours.  Should
           we be deposed with the batch still parked, the replicated
           Decide entry rebuilds n_unacked on whoever promotes and the
           chase resumes there. *)
        IntTbl.replace n.n_unacked txid
          { u_commit = true; u_ts = final; u_ver_b = ver_b + 1; u_peer = peer; u_tries = 0 };
        n.n_to_send <- txid :: n.n_to_send);
    incr cross_committed
  in

  (* ---- backup stream application ---- *)
  let apply_entry n (e : Replog.entry) =
    match e.Replog.op with
    | Replog.Install { key; value; ver; wts; rts } ->
      let stk = n.n_store.(key) in
      stk.Key.value <- value;
      stk.Key.ver <- ver;
      stk.Key.wts <- wts;
      stk.Key.rts <- Int.max stk.Key.rts rts
    | Replog.Lease_ext { key; rts } ->
      let stk = n.n_store.(key) in
      stk.Key.rts <- Int.max stk.Key.rts rts
    | Replog.Prep { txid; key; prop; rid; peer; coord } ->
      lock_prep n ~txid ~key ~other:(-1) ~prop ~rid ~peer ~coord
    | Replog.Decide { txid; commit; ts; ver_b } ->
      (match IntTbl.find_opt n.n_prep txid with
      | Some p ->
        n.n_store.(p.pr_key).Key.locked <- false;
        IntTbl.remove n.n_prep txid;
        (* if we are ever promoted, keep chasing the participant until
           it acknowledges (commits and aborts both) *)
        if p.pr_coord then
          IntTbl.replace n.n_unacked txid
            { u_commit = commit; u_ts = ts; u_ver_b = ver_b; u_peer = p.pr_peer; u_tries = 0 }
      | None -> ());
      IntTbl.replace n.n_decided txid commit
    | Replog.Done { rid; ok; delta } -> IntTbl.replace n.n_done rid (ok, delta)
    | Replog.Acked { txid } -> IntTbl.remove n.n_unacked txid
  in

  (* ---- leadership ---- *)
  let rec heartbeat n () =
    n.n_hb_armed <- false;
    if (not !stopping) && n.n_role = Leader && not n.n_syncing then begin
      let c = obs_clock n.n_id in
      (* Renew only a still-valid lease (continuous possession).  Once
         it lapses — e.g. this timer starved under load — a replicated
         peer may already be counting down to promotion, so re-granting
         ourselves a term would race its floor; stay leader but stop
         serving (the Req path sheds on an invalid lease) until the
         peer's Promoted demotes us.  Unreplicated groups have no one
         to defer to and re-grant unconditionally. *)
      if Lease.valid n.n_lease ~now:c then
        n.n_lease <- Lease.renew n.n_lease ~now:c ~term_ns
      else if replicas = 1 then
        n.n_lease <- Lease.grant ~holder:n.n_id ~term:n.n_term ~now:c ~term_ns;
      if Lease.valid n.n_lease ~now:c then
        List.iter
          (fun p ->
            Net.send net ~src:n.n_id ~dst:p
              (Heartbeat { term = n.n_term; until = n.n_lease.Lease.until }))
          (peers n);
      n.n_hb_armed <- true;
      Net.at net ~node:n.n_id ~delay:heartbeat_ns (heartbeat n)
    end
  in
  let start_heartbeat n = if not n.n_hb_armed then heartbeat n () in
  (* Follow [leader] in [term]: a term of lease from our own clock, never
     shortening the one already held. *)
  let follow n ~leader ~term =
    n.n_suspected <- false;
    let c = obs_clock n.n_id in
    n.n_lease <-
      { Lease.holder = leader; term; until = Int.max n.n_lease.Lease.until (c + term_ns) }
  in
  let presume_abort_undecided n =
    IntTbl.fold
      (fun txid p acc ->
        if p.pr_coord && not (IntTbl.mem n.n_decided txid) then (txid, p) :: acc
        else acc)
      n.n_prep []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.iter (fun (txid, p) -> abort_tx n txid p ~notify_peer:true)
  in
  (* The one leadership takeover, shared by a promoted backup and a
     restarted unreplicated node: a new term whose floor clears the old
     lease as of clock [c]; presume-abort, then chase every
     unacknowledged decision; then a lease, announced to every node.
     Promotion grants it at a fresh clock read once the flush is out
     ([reread]); a restart grants it at [c]. *)
  let take_lead n c ~reread =
    n.n_role <- Leader;
    n.n_term <- n.n_term + 1;
    n.n_floor <- Lease.promotion_floor ~until:n.n_lease.Lease.until ~boundary ~now:c;
    presume_abort_undecided n;
    n.n_to_send <- sorted_keys n.n_unacked;
    flush_pump n;
    let now = if reread then obs_clock n.n_id else c in
    n.n_lease <- Lease.grant ~holder:n.n_id ~term:n.n_term ~now ~term_ns;
    views.(n.n_id).(n.n_group) <- n.n_id;
    let pos = Replog.position n.n_log in
    for d = 0 to nodes do
      if d <> n.n_id then
        Net.send net ~src:n.n_id ~dst:d
          (Promoted { group = n.n_group; term = n.n_term; leader = n.n_id; pos })
    done;
    start_heartbeat n
  in
  let promote n =
    let c = obs_clock n.n_id in
    n.n_suspected <- false;
    Replog.seed_from_applied n.n_log;
    IntTbl.reset n.n_peer_ack;  (* old-term acks refer to a forked stream *)
    Queue.clear n.n_held;
    incr promotions;
    probe n.n_id "svc.promote" n.n_group (n.n_term + 1);
    Chaos.record tl ~at:(Net.now net) ~node:n.n_id ~group:n.n_group "PROMOTED";
    take_lead n c ~reread:true
  in
  let rec monitor n () =
    n.n_mon_armed <- false;
    if (not !stopping) && n.n_role = Backup && not n.n_syncing then begin
      let c = obs_clock n.n_id in
      if Lease.valid n.n_lease ~now:c then n.n_suspected <- false
      else begin
        if not n.n_suspected then begin
          n.n_suspected <- true;
          probe n.n_id "svc.degraded" n.n_group n.n_term;
          Chaos.record tl ~at:(Net.now net) ~node:n.n_id ~group:n.n_group "DEGRADED"
        end;
        (* fail over once expiry is certain on every clock; each
           later rank waits one more lease term *)
        let give_up_at =
          n.n_lease.Lease.until + boundary + 1 + (Int.max 0 (rank n - 1) * term_ns)
        in
        if c > give_up_at then promote n
      end;
      if n.n_role = Backup then arm_monitor n
    end
  and arm_monitor n =
    if not n.n_mon_armed then begin
      n.n_mon_armed <- true;
      Net.at net ~node:n.n_id ~delay:heartbeat_ns (monitor n)
    end
  in

  (* ---- re-join (amnesia + snapshot) ---- *)
  (* State that lives only in the process: buffered and held output,
     peer acks, in-flight execution marks and failure suspicion. *)
  let clear_volatile n =
    n.n_entries <- [];
    n.n_replies <- [];
    n.n_probes <- [];
    n.n_to_send <- [];
    Queue.clear n.n_held;
    IntTbl.reset n.n_peer_ack;
    IntTbl.reset n.n_unflushed;
    IntTbl.reset n.n_exec;
    n.n_suspected <- false
  in
  let rec rejoin n =
    n.n_role <- Backup;
    n.n_syncing <- true;
    clear_volatile n;
    IntTbl.reset n.n_prep;
    IntTbl.reset n.n_unacked;
    IntTbl.reset n.n_decided;
    IntTbl.reset n.n_done;
    Array.iter (fun k -> k.Key.locked <- false) n.n_store;
    join_loop n ()
  and join_loop n () =
    if n.n_syncing && not !stopping then begin
      List.iter
        (fun p -> Net.send net ~src:n.n_id ~dst:p (Join { node = n.n_id }))
        (peers n);
      Net.at net ~node:n.n_id ~delay:term_ns (join_loop n)
    end
  in
  (* Chaos restart hook.  Volatile buffers and timers died with the old
     incarnation.  An unreplicated group resumes leadership over its
     durable store (presume-aborting the 2PC coordination that died with
     the process); a replicated one re-joins with amnesia. *)
  let restart_node node =
    let n = st.(node) in
    clear_volatile n;
    n.n_flush_armed <- false;
    n.n_rexmit_armed <- false;
    n.n_hb_armed <- false;
    n.n_mon_armed <- false;
    if replicas = 1 then begin
      take_lead n (obs_clock node) ~reread:false;
      Chaos.record tl ~at:(Net.now net) ~node ~group:n.n_group "RECOVERED"
    end
    else rejoin n
  in

  (* ---- request execution (leader) ---- *)
  let rec exec n rid op tries =
    match op with
    | Sessions.Get k ->
      let stk = n.n_store.(k) in
      if stk.Key.locked then retry_locked n rid op tries
      else begin
        (* reads ride the same ack watermark as writes: the reply (and
           the trace record) must not leave until the rts extension —
           and any unacked install this read observed — is replicated,
           or a promotion could stamp a write under a read we already
           served (a read past its replicated rts) *)
        let c = obs_clock n.n_id in
        let read_at = Int.max c stk.Key.wts in
        let new_rts = Int.max stk.Key.rts (read_at + Kv.lease_ns) in
        stk.Key.rts <- new_rts;
        let ver = stk.Key.ver in
        buffer_entry n (Replog.Lease_ext { key = k; rts = new_rts });
        if Trace.enabled () then
          buffer_probe n (fun () ->
              Obs.emit_tx net n.n_id ~start_ts:read_at
                ~reads:[ (k, ver) ]
                ~installs:[] ~commit_ts:read_at);
        IntTbl.remove n.n_exec rid;
        Admission.release n.n_adm;
        buffer_reply n rid Done_ok;
        ensure_flush n
      end
    | Sessions.Put k ->
      let stk = n.n_store.(k) in
      if stk.Key.locked then retry_locked n rid op tries
      else begin
        let c = obs_clock n.n_id in
        let ts = Key.write_stamp ~clock:c ~floor:n.n_floor stk in
        let old = stk.Key.ver in
        install n k ~ver:(old + 1) ~ts ~delta:1;
        resolve n rid (true, 1);
        if Trace.enabled () then
          buffer_probe n (fun () ->
              Obs.emit_tx net n.n_id ~start_ts:ts ~reads:[]
                ~installs:[ (k, old + 1) ]
                ~commit_ts:ts);
        ensure_flush n
      end
    | Sessions.Transfer (a, b) ->
      let stk = n.n_store.(a) in
      if stk.Key.locked then retry_locked n rid op tries
      else begin
        let c = obs_clock n.n_id in
        let prop = Key.write_stamp ~clock:c ~floor:n.n_floor stk in
        incr txid_counter;
        let txid = !txid_counter in
        let peer_group = group_of_key b in
        lock_prep n ~txid ~key:a ~other:b ~prop ~rid ~peer:peer_group ~coord:true;
        buffer_entry n
          (Replog.Prep { txid; key = a; prop; rid; peer = peer_group; coord = true });
        (* flush before sync-ship: the prepare is on the backups before
           the participant can observe it *)
        flush n;
        Net.send net ~src:n.n_id ~dst:views.(n.n_id).(peer_group)
          (Prepare { txid; key_b = b; prop; coord = n.n_id });
        Net.at net ~node:n.n_id ~delay:prep_abort_ns (fun () ->
            match IntTbl.find_opt n.n_prep txid with
            | Some p when p.pr_coord && not (IntTbl.mem n.n_decided txid) ->
              abort_tx n txid p ~notify_peer:true;
              flush_pump n
            | _ -> ())
      end
  and retry_locked n rid op tries =
    if tries >= Kv.max_retries then begin
      resolve n rid (false, 0);
      ensure_flush n
    end
    else
      Net.at net ~node:n.n_id ~delay:(Kv.retry_ns * (tries + 1)) (fun () ->
          if
            n.n_role = Leader && (not n.n_syncing)
            && Lease.valid n.n_lease ~now:(obs_clock n.n_id)
          then begin
            Net.busy net n.n_id Kv.op_ns;
            exec n rid op (tries + 1)
          end
          else begin
            (* deposed while queued: the client's retransmit chases the
               new leader; just free the admission slot *)
            IntTbl.remove n.n_exec rid;
            Admission.release n.n_adm
          end)
  in

  (* ---- client machinery ---- *)
  let maybe_stop () =
    if (not !arrivals_open) && !live = 0 && IntTbl.length pending = 0 then
      stopping := true
  in
  let target_of p =
    let base = base_of p.p_group in
    base + ((views.(client).(p.p_group) - base + p.p_rot) mod replicas)
  in
  let send_req p =
    p.p_sent_at <- Net.now net;
    Net.send net ~src:client ~dst:(target_of p) (Req { rid = p.p_rid; op = p.p_op })
  in
  let finishp p ok =
    if Net.now net > !end_ns then end_ns := Net.now net;
    if ok then begin
      incr committed;
      if !n_lats = Array.length !lats then begin
        let bigger = Array.make (2 * !n_lats) 0 in
        Array.blit !lats 0 bigger 0 !n_lats;
        lats := bigger
      end;
      !lats.(!n_lats) <- Net.now net - p.p_arrival;
      incr n_lats
    end
    else incr failed;
    p.p_fin ok;
    maybe_stop ()
  in
  (* Count one more attempt at [p]; true if that spent the budget, in
     which case the client has given the op up. *)
  let exhausted p =
    p.p_attempts <- p.p_attempts + 1;
    let out = p.p_attempts >= max_attempts in
    if out then begin
      IntTbl.remove pending p.p_rid;
      finishp p false
    end;
    out
  in
  let issue op fin =
    incr issued;
    let k =
      match op with
      | Sessions.Get k | Sessions.Put k | Sessions.Transfer (k, _) -> k
    in
    (match op with Sessions.Transfer _ -> incr cross_issued | _ -> ());
    incr rid_counter;
    let p =
      {
        p_rid = !rid_counter;
        p_op = op;
        p_group = group_of_key k;
        p_arrival = Net.now net;
        p_attempts = 0;
        p_rot = 0;
        p_sent_at = 0;
        p_fin = fin;
      }
    in
    IntTbl.replace pending p.p_rid p;
    send_req p
  in
  (* Retransmit scanner: rotate to the next replica once a request has
     gone unanswered for the client patience window. *)
  let rec scan () =
    if not !stopping then begin
      let now = Net.now net in
      let late =
        IntTbl.fold
          (fun _ p acc ->
            if now - p.p_sent_at >= client_retry_ns then p :: acc else acc)
          pending []
      in
      let late = List.sort (fun a b -> Int.compare a.p_rid b.p_rid) late in
      List.iter
        (fun p ->
          p.p_rot <- p.p_rot + 1;
          if not (exhausted p) then send_req p)
        late;
      Net.at net ~node:client ~delay:(Int.max 1 (client_retry_ns / 2)) scan
    end
  in
  (* Session driving: think, issue, repeat; churn back in on completion. *)
  let rec session_loop s =
    if Sessions.finished s then begin
      if Sessions.complete gen s then session_loop (Sessions.connect gen)
      else begin
        decr live;
        maybe_stop ()
      end
    end
    else
      Net.at net ~node:client ~delay:(Sessions.think_gap gen s) (fun () ->
          let op = Sessions.op gen s ~now:(Net.now net) in
          issue op (fun _ok -> session_loop s))
  in
  let rec arrive () =
    match Sessions.next_arrival gen ~now:(Net.now net) with
    | Some gap ->
      Net.at net ~node:client ~delay:gap (fun () ->
          let s = Sessions.connect gen in
          incr live;
          session_loop s;
          arrive ())
    | None ->
      arrivals_open := false;
      maybe_stop ()
  in

  (* ---- message dispatch ---- *)
  let handler src dst m =
    match m with
    | Req { rid; op } ->
      Net.busy net dst Kv.msg_ns;
      let n = st.(dst) in
      (match n.n_role with
      | Leader when not n.n_syncing ->
        let c = obs_clock dst in
        if not (Lease.valid n.n_lease ~now:c) then
          (* own lease lapsed (e.g. deferred under load): shed rather
             than risk serving past it *)
          reply_client dst rid (Shed_retry heartbeat_ns)
        else if IntTbl.mem n.n_unflushed rid then ()  (* reply already buffered *)
        else (
          match IntTbl.find_opt n.n_done rid with
          | Some (ok, _) ->
            (* retransmit of a resolved request: replay the outcome *)
            reply_client dst rid (if ok then Done_ok else Done_fail)
          | None ->
            if IntTbl.mem n.n_exec rid then
              ()  (* still executing (2PC or locked-key backoff) *)
            else (
              match Admission.admit n.n_adm ~now:(Net.now net) with
              | `Shed ra ->
                probe dst "svc.shed" n.n_group ra;
                reply_client dst rid (Shed_retry ra)
              | `Admit ->
                IntTbl.replace n.n_exec rid ();
                Net.busy net dst Kv.op_ns;
                exec n rid op 0))
      | _ ->
        if n.n_syncing then ()
        else if n.n_suspected then (
          (* degraded service while failover is pending: reads at
             timestamps the replicated leases already cover, writes shed *)
          match op with
          | Sessions.Get k ->
            let stk = n.n_store.(k) in
            if stk.Key.locked then reply_client dst rid (Shed_retry Kv.retry_ns)
            else (
              let c = obs_clock dst in
              match
                Lease.degraded_read_ts ~wts:stk.Key.wts ~rts:stk.Key.rts
                  ~until:n.n_lease.Lease.until ~clock:c
              with
              | Some dts ->
                incr degraded_reads;
                Obs.emit_tx net dst ~start_ts:dts
                  ~reads:[ (k, stk.Key.ver) ]
                  ~installs:[] ~commit_ts:dts;
                reply_client dst rid Done_ok
              | None -> reply_client dst rid (Shed_retry (Kv.retry_ns * 4)))
          | _ -> reply_client dst rid (Shed_retry heartbeat_ns))
        else reply_client dst rid (Moved views.(dst).(n.n_group)))
    | Prepare { txid; key_b; prop; coord } ->
      Net.busy net dst (Kv.msg_ns + Kv.op_ns);
      let n = st.(dst) in
      if n.n_role <> Leader || n.n_syncing then ()
      else if IntTbl.mem n.n_decided txid || IntTbl.mem n.n_prep txid then ()
      else begin
        let stk = n.n_store.(key_b) in
        if stk.Key.locked || not (Lease.valid n.n_lease ~now:(obs_clock dst))
        then
          (* locked, or own lease lapsed (a peer may be promoting):
             refuse rather than grant a prepare we may not honor *)
          Net.send net ~src:dst ~dst:coord (Conflict { txid })
        else begin
          let c = obs_clock dst in
          let prop2 = Key.write_stamp ~clock:c ~floor:(Int.max prop n.n_floor) stk in
          let peer = group_of_node coord in
          lock_prep n ~txid ~key:key_b ~other:(-1) ~prop:prop2 ~rid:0 ~peer ~coord:false;
          buffer_entry n
            (Replog.Prep { txid; key = key_b; prop = prop2; rid = 0; peer; coord = false });
          (* The Prepared reply rides the ack watermark: it must not
             reach the coordinator before (a) the prep is really on
             our backups and (b) every install of ours the reported
             ver_b builds on is trace-visible — the coordinator's
             cross-commit record references (key_b, ver_b), so our
             emissions must be sequenced under it. *)
          let ver_b = stk.Key.ver in
          buffer_probe n (fun () ->
              Net.send net ~src:dst ~dst:coord (Prepared { txid; ver_b; prop = prop2 }));
          flush n
        end
      end
    | Prepared { txid; ver_b; prop } ->
      Net.busy net dst (Kv.msg_ns + Kv.op_ns);
      let n = st.(dst) in
      if n.n_role <> Leader || n.n_syncing || IntTbl.mem n.n_decided txid then ()
      else (
        match IntTbl.find_opt n.n_prep txid with
        | None -> ()
        | Some p ->
          let tx_start = Int.max p.pr_prop prop in
          let fn final =
            (* the prepare can be presume-aborted while the epoch is
               open (prep timeout racing the close): re-check.  The
               lease is re-checked too — the epoch close (and its
               commit wait) can land after this leader's lease lapsed,
               and a commit stamped then could collide with a promoted
               peer's stamp space; abort instead, the client reissues *)
            match IntTbl.find_opt n.n_prep txid with
            | Some p when not (IntTbl.mem n.n_decided txid) ->
              if
                n.n_role = Leader && (not n.n_syncing)
                && Lease.valid n.n_lease ~now:final
              then commit_cross n txid p ~ver_b ~tx_start ~final
              else abort_tx n txid p ~notify_peer:true
            | _ -> ()
          in
          if cfg.epoch_ns > 0 then begin
            let first = Epoch.add n.n_batch ~prop:tx_start fn in
            if first then ensure_flush n
          end
          else publish n tx_start [ fn ])
    | Conflict { txid } ->
      Net.busy net dst Kv.msg_ns;
      let n = st.(dst) in
      (match IntTbl.find_opt n.n_prep txid with
      | Some p when p.pr_coord && not (IntTbl.mem n.n_decided txid) ->
        (* participant never locked: no decision to chase *)
        abort_tx n txid p ~notify_peer:false;
        ensure_flush n
      | _ -> ())
    | Decision { txid; commit; ts; ver_b } ->
      Net.busy net dst (Kv.msg_ns + Kv.op_ns);
      let n = st.(dst) in
      if
        n.n_role <> Leader || n.n_syncing
        || not (Lease.valid n.n_lease ~now:(obs_clock dst))
      then ()  (* no ack: the retransmit finds a valid leader *)
      else begin
        (match IntTbl.find_opt n.n_prep txid with
        | Some p when not p.pr_coord ->
          if commit then install n p.pr_key ~ver:ver_b ~ts ~delta:1;
          n.n_store.(p.pr_key).Key.locked <- false;
          IntTbl.remove n.n_prep txid;
          IntTbl.replace n.n_decided txid commit;
          buffer_entry n (Replog.Decide { txid; commit; ts; ver_b });
          (* flush before the ack ships *)
          flush n
        | Some _ -> ()
        | None -> if not (IntTbl.mem n.n_decided txid) then IntTbl.replace n.n_decided txid commit);
        Net.send net ~src:dst ~dst:src (DecisionAck { txid })
      end
    | DecisionAck { txid } ->
      Net.busy net dst Kv.msg_ns;
      let n = st.(dst) in
      if IntTbl.mem n.n_unacked txid then begin
        IntTbl.remove n.n_unacked txid;
        buffer_entry n (Replog.Acked { txid });
        ensure_flush n
      end
    | Rep { term; entries } ->
      Net.busy net dst Kv.msg_ns;
      let n = st.(dst) in
      if n.n_role <> Backup || n.n_syncing || term < n.n_term then incr rep_stale
      else begin
        if term > n.n_term then n.n_term <- term;
        iter_oldest_first (fun e -> if Replog.admit n.n_log e then apply_entry n e) entries;
        Net.send net ~src:dst ~dst:src
          (RepAck { term = n.n_term; seq = Replog.applied_seq n.n_log })
      end
    | RepAck { term; seq } ->
      Net.busy net dst Kv.msg_ns;
      let n = st.(dst) in
      (* an old-term ack refers to a forked sequence space: ignore it *)
      if n.n_role = Leader && (not n.n_syncing) && term = n.n_term then begin
        if seq > peer_ack n src then IntTbl.replace n.n_peer_ack src seq;
        release_held n
      end
    | Heartbeat { term; until } ->
      Net.busy net dst Kv.msg_ns;
      let n = st.(dst) in
      if n.n_role = Backup && (not n.n_syncing) && term >= n.n_term then begin
        if term > n.n_term then n.n_term <- term;
        n.n_lease <-
          { Lease.holder = src; term; until = Int.max n.n_lease.Lease.until until };
        n.n_suspected <- false
      end
    | Promoted { group; term; leader; pos } ->
      if dst = client then begin
        views.(client).(group) <- leader;
        (* new leader: stop rotating away from it *)
        IntTbl.iter (fun _ p -> if p.p_group = group then p.p_rot <- 0) pending
      end
      else begin
        Net.busy net dst Kv.msg_ns;
        views.(dst).(group) <- leader;
        let n = st.(dst) in
        if n.n_group = group && dst <> leader && term > n.n_term then begin
          n.n_term <- term;
          follow n ~leader ~term;
          if n.n_role = Leader then rejoin n  (* deposed *)
          else if (not n.n_syncing) && Replog.applied_seq n.n_log <> pos then
            (* the promotion forked the sequence space at [pos]; a
               backup applied to any other point must resync *)
            rejoin n
        end
      end
    | Join { node } ->
      Net.busy net dst (Kv.msg_ns + Kv.op_ns);
      let n = st.(dst) in
      if n.n_role = Leader && (not n.n_syncing) && group_of_node node = n.n_group
      then begin
        flush n;  (* snapshot = the shipped prefix *)
        let ks = ref [] in
        for k = keys - 1 downto 0 do
          if group_of_key k = n.n_group then begin
            let stk = n.n_store.(k) in
            ks :=
              (k, stk.Key.value, stk.Key.ver, stk.Key.wts, stk.Key.rts, stk.Key.locked)
              :: !ks
          end
        done;
        Net.send net ~src:dst ~dst:node
          (Snapshot
             {
               term = n.n_term;
               seq = Replog.position n.n_log;
               keys = !ks;
               preps = IntTbl.fold (fun _ p acc -> p :: acc) n.n_prep [];
               dones = IntTbl.fold (fun rid (ok, d) acc -> (rid, ok, d) :: acc) n.n_done [];
               decideds = IntTbl.fold (fun txid cmt acc -> (txid, cmt) :: acc) n.n_decided [];
               unackeds = IntTbl.fold (fun txid u acc -> (txid, u) :: acc) n.n_unacked [];
             });
        (* the snapshot carries the whole stream prefix: once it is in
           flight the joiner can only ever resume from at or above it,
           so it counts as an ack through [position] *)
        IntTbl.replace n.n_peer_ack node (Replog.position n.n_log);
        release_held n
      end
    | Snapshot { term; seq; keys = ks; preps; dones; decideds; unackeds } ->
      Net.busy net dst (Kv.msg_ns + Kv.op_ns);
      let n = st.(dst) in
      if n.n_syncing then begin
        List.iter
          (fun (k, value, ver, w, r, locked) ->
            let stk = n.n_store.(k) in
            stk.Key.value <- value;
            stk.Key.ver <- ver;
            stk.Key.wts <- w;
            stk.Key.rts <- r;
            stk.Key.locked <- locked)
          ks;
        IntTbl.reset n.n_prep;
        List.iter (fun p -> IntTbl.replace n.n_prep p.pr_txid p) preps;
        IntTbl.reset n.n_done;
        List.iter (fun (rid, ok, d) -> IntTbl.replace n.n_done rid (ok, d)) dones;
        IntTbl.reset n.n_decided;
        List.iter (fun (txid, cmt) -> IntTbl.replace n.n_decided txid cmt) decideds;
        IntTbl.reset n.n_unacked;
        List.iter (fun (txid, u) -> IntTbl.replace n.n_unacked txid { u with u_tries = 0 }) unackeds;
        Replog.set_applied n.n_log seq;
        if term > n.n_term then n.n_term <- term;
        n.n_syncing <- false;
        n.n_role <- Backup;
        follow n ~leader:src ~term:n.n_term;
        incr snapshots;
        Chaos.record tl ~at:(Net.now net) ~node:dst ~group:n.n_group "RECOVERED";
        arm_monitor n
      end
    | Reply { rid; outcome } -> (
      match IntTbl.find_opt pending rid with
      | None -> ()  (* late duplicate of a resolved request *)
      | Some p -> (
        match outcome with
        | Done_ok ->
          IntTbl.remove pending rid;
          finishp p true
        | Done_fail ->
          IntTbl.remove pending rid;
          if not (exhausted p) then begin
            (* the old rid is burned in the done-table: fresh identity *)
            incr rid_counter;
            let p2 = { p with p_rid = !rid_counter } in
            IntTbl.replace pending p2.p_rid p2;
            Net.at net ~node:client ~delay:(Kv.retry_ns * p2.p_attempts) (fun () ->
                if IntTbl.mem pending p2.p_rid then send_req p2)
          end
        | Shed_retry ra ->
          incr shed_replies;
          if not (exhausted p) then begin
            (* hold the scanner off until the retry fires *)
            p.p_sent_at <- Net.now net + ra;
            Net.at net ~node:client ~delay:(Int.max 1 ra) (fun () ->
                if IntTbl.mem pending rid then send_req p)
          end
        | Moved leader ->
          views.(client).(p.p_group) <- leader;
          p.p_rot <- 0;
          if not (exhausted p) then send_req p))
  in
  Net.on_message net handler;

  (* ---- bootstrap ---- *)
  (* the construction-time lease predates the simulated clock base; the
     real grant happens here, at each leader's own clock *)
  Array.iter
    (fun n ->
      if n.n_role = Leader then begin
        n.n_lease <- Lease.grant ~holder:n.n_id ~term:n.n_term ~now:(obs_clock n.n_id) ~term_ns;
        start_heartbeat n
      end
      else arm_monitor n)
    st;
  Chaos.install net fault ~timer_node:client ~group_of:group_of_node
    ~on_restart:restart_node tl;
  arrive ();
  Net.at net ~node:client ~delay:(Int.max 1 (client_retry_ns / 2)) scan;
  Net.run net;

  (* ---- results ---- *)
  let acting =
    Array.init groups (fun g ->
        match
          List.filter (fun m -> Net.alive net m && st.(m).n_role = Leader) (members g)
        with
        | l :: _ -> l
        | [] -> base_of g)
  in
  let sum_values = ref 0 and locks_left = ref 0 and divergence = ref 0 in
  let expected_sum = ref (keys * 100) in
  for g = 0 to groups - 1 do
    let l = st.(acting.(g)) in
    for k = 0 to keys - 1 do
      if group_of_key k = g then begin
        sum_values := !sum_values + l.n_store.(k).Key.value;
        if l.n_store.(k).Key.locked then incr locks_left
      end
    done;
    IntTbl.iter (fun _ (ok, d) -> if ok then expected_sum := !expected_sum + d) l.n_done;
    List.iter
      (fun m ->
        if m <> acting.(g) && Net.alive net m && not st.(m).n_syncing then
          for k = 0 to keys - 1 do
            if
              group_of_key k = g
              && (st.(m).n_store.(k).Key.value <> l.n_store.(k).Key.value
                 || st.(m).n_store.(k).Key.ver <> l.n_store.(k).Key.ver)
            then incr divergence
          done)
      (members g)
  done;
  let per_group =
    Array.init groups (fun g ->
        List.fold_left
          (fun acc m ->
            {
              g_admitted = acc.g_admitted + Admission.admitted st.(m).n_adm;
              g_shed = acc.g_shed + Admission.shed st.(m).n_adm;
              g_depth_hw = Int.max acc.g_depth_hw (Admission.depth_hw st.(m).n_adm);
            })
          { g_admitted = 0; g_shed = 0; g_depth_hw = 0 }
          (members g))
  in
  let sum_over f = Array.fold_left (fun acc n -> acc + f n) 0 st in
  let lats = Array.sub !lats 0 !n_lats in
  Array.sort Int.compare lats;
  let lats = Array.map float_of_int lats in
  let pct p = if Array.length lats = 0 then 0.0 else Stats.percentile lats p in
  let ss = Sessions.stats gen in
  {
    issued = !issued;
    committed = !committed;
    failed = !failed;
    shed_replies = !shed_replies;
    cross_issued = !cross_issued;
    cross_committed = !cross_committed;
    sessions_opened = ss.Sessions.opened;
    sessions_closed = ss.Sessions.closed;
    reconnects = ss.Sessions.reconnects;
    storm_ops = ss.Sessions.storm_ops;
    epochs = sum_over (fun n -> Epoch.epochs n.n_batch);
    epoch_txns = sum_over (fun n -> Epoch.total_members n.n_batch);
    commit_waits = !commit_waits;
    wait_ns = !wait_ns;
    rep_shipped = sum_over (fun n -> Replog.shipped n.n_log);
    rep_applied = sum_over (fun n -> Replog.applied n.n_log);
    rep_dups = sum_over (fun n -> Replog.dups n.n_log);
    rep_stale = !rep_stale;
    promotions = !promotions;
    degraded_reads = !degraded_reads;
    snapshots = !snapshots;
    messages = Net.delivered net;
    dropped = Net.dropped net;
    net_pops = Net.pops net;
    net_restamps = Net.restamps net;
    end_ns = !end_ns;
    boundary;
    throughput =
      (if !end_ns = 0 then 0.0
       else float_of_int !committed /. (float_of_int !end_ns /. 1_000.0));
    mean_ns = (if Array.length lats = 0 then 0.0 else Stats.mean lats);
    p50_ns = pct 0.5;
    p99_ns = pct 0.99;
    sum_values = !sum_values;
    expected_sum = !expected_sum;
    locks_left = !locks_left;
    divergence = !divergence;
    per_group;
    timeline = Chaos.events tl;
  }

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
