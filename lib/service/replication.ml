(* The primary -> backup stream of one replica group.  It hides how
   output waits for replication: a leader buffers stream entries, trace
   probes and client replies; [flush] ships the entries to the backups
   BEFORE any reply or 2PC protocol message leaves the node, and parks
   the probes and replies until every peer has acknowledged the stream
   through the flush's watermark.  So acknowledged => replicated, and
   unacknowledged => the client retransmits and the replicated
   done-table dedups: the whole exactly-once argument.  Backups apply
   the stream in sequence order; a node that lost its state re-joins
   with amnesia and installs its leader's snapshot.

   [release_held], [flush] and the ack handlers return whether parked
   output left: released probes may have queued first Decision
   transmissions, which the caller then pumps. *)

open Node

let buffer_entry n op = n.n_entries <- Replog.next n.n_log op :: n.n_entries
let buffer_probe n f = n.n_probes <- f :: n.n_probes

let buffer_reply n rid outcome =
  IntTbl.replace n.n_unflushed rid ();
  n.n_replies <- (rid, outcome) :: n.n_replies

let send_reply c n (rid, outcome) =
  IntTbl.remove n.n_unflushed rid;
  reply_client c n.n_id rid outcome

let peer_ack n p = match IntTbl.find n.n_peer_ack p with s -> s | exception Not_found -> -1
let rec min_ack n acc = function [] -> acc | p :: ps -> min_ack n (Int.min acc (peer_ack n p)) ps

let emit c n probes replies =
  iter_oldest_first (fun f -> f ()) probes;
  iter_oldest_first (send_reply c n) replies

(* Release additionally requires this node's lease to still be valid:
   under a valid lease no peer can have promoted (the promotion floor
   sits above until + boundary), so the acked batch is part of the one
   true stream.  A lapsed holder's batches are dropped wholesale by the
   deposition paths — their writes either survive on the new leader
   (which re-serves the retransmitting client from the replicated
   done-table) or never happened anywhere that matters.  Once the
   client stops no monitor can promote anyone, so late acks release
   freely. *)
let release_held c n =
  if
    Queue.is_empty n.n_held
    || not (Lease.valid n.n_lease ~now:(obs_clock c n.n_id) || c.stopping)
  then false
  else begin
    let ack = min_ack n max_int (peers c n) in
    (* watermarks ascend along the queue (a stream position never moves
       back), so the batches ready to leave are a prefix of it *)
    (Queue.peek n.n_held).h_wm <= ack
    && begin
         while (not (Queue.is_empty n.n_held)) && (Queue.peek n.n_held).h_wm <= ack do
           let h = Queue.take n.n_held in
           emit c n h.h_probes h.h_replies
         done;
         true
       end
  end

(* Sent-but-unapplied entries can still be orphaned by a promotion that
   forks the stream under them, hence the wait for acks.  Unreplicated
   groups have no peers to wait for and emit/reply immediately. *)
let flush c n =
  (match n.n_entries with
  | [] -> ()
  | entries ->
    n.n_entries <- [];
    to_peers c n (Rep { term = n.n_term; entries }));
  (match (n.n_probes, n.n_replies) with
  | [], [] -> ()
  | probes, replies ->
    n.n_probes <- [];
    n.n_replies <- [];
    if c.replicas = 1 then emit c n probes replies
    else Queue.add { h_wm = Replog.position n.n_log; h_probes = probes; h_replies = replies } n.n_held);
  release_held c n

(* ---- leader-side state transitions, each with its stream entry ---- *)

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

(* Install version [ver] of key [k] at [ts] and log its absolute state. *)
let install n k ~ver ~ts ~delta =
  let stk = n.n_store.(k) in
  Key.install stk ~ver ~ts ~delta;
  buffer_entry n (Replog.Install { key = k; value = stk.Key.value; ver; wts = ts; rts = stk.Key.rts })

(* Lock [key] for one side of 2PC transaction [txid]. *)
let lock_prep n ~txid ~key ~other ~prop ~rid ~peer ~coord =
  n.n_store.(key).Key.locked <- true;
  IntTbl.replace n.n_prep txid
    { pr_txid = txid; pr_key = key; pr_other = other; pr_prop = prop; pr_rid = rid; pr_peer = peer;
      pr_coord = coord }

(* Settle this node's side of 2PC transaction [txid] (prepared as [p]):
   unlock its key and log the decision. *)
let decide n txid p ~commit ~ts ~ver_b =
  n.n_store.(p.pr_key).Key.locked <- false;
  IntTbl.remove n.n_prep txid;
  IntTbl.replace n.n_decided txid commit;
  buffer_entry n (Replog.Decide { txid; commit; ts; ver_b })

(* ---- backup side ---- *)

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

let on_rep c n ~src ~term entries =
  if n.n_role <> Backup || n.n_syncing || term < n.n_term then c.rep_stale <- c.rep_stale + 1
  else begin
    if term > n.n_term then n.n_term <- term;
    iter_oldest_first (fun e -> if Replog.admit n.n_log e then apply_entry n e) entries;
    Net.send c.net ~src:n.n_id ~dst:src (RepAck { term = n.n_term; seq = Replog.applied_seq n.n_log })
  end

(* An old-term ack refers to a forked sequence space: ignored. *)
let on_rep_ack c n ~src ~term ~seq =
  if leading n && term = n.n_term then begin
    if seq > peer_ack n src then IntTbl.replace n.n_peer_ack src seq;
    release_held c n
  end
  else false

(* ---- re-join (amnesia + snapshot) ---- *)

let pairs tbl = IntTbl.fold (fun k v acc -> (k, v) :: acc) tbl []

(* Answer a same-group [Join] with this leader's state as of its
   flushed stream position. *)
let send_snapshot c n ~node =
  let ks = ref [] in
  for k = c.keys - 1 downto 0 do
    let stk = n.n_store.(k) in
    if group_of_key c k = n.n_group then ks := (k, { stk with Key.value = stk.Key.value }) :: !ks
  done;
  let snap =
    {
      s_seq = Replog.position n.n_log;
      s_keys = !ks;
      s_preps = pairs n.n_prep;
      s_dones = pairs n.n_done;
      s_decideds = pairs n.n_decided;
      s_unackeds = IntTbl.fold (fun k u acc -> (k, { u with u_tries = 0 }) :: acc) n.n_unacked [];
    }
  in
  Net.send c.net ~src:n.n_id ~dst:node (Snapshot { term = n.n_term; snap });
  (* the snapshot carries the whole stream prefix: once it is in flight
     the joiner can only ever resume from at or above it, so it counts
     as an ack through [position] *)
  IntTbl.replace n.n_peer_ack node (Replog.position n.n_log);
  release_held c n

let refill tbl l =
  IntTbl.reset tbl;
  List.iter (fun (k, v) -> IntTbl.replace tbl k v) l

(* A re-joining node takes the snapshot as its state, as a backup. *)
let install_snapshot n ~term s =
  List.iter (fun (k, key) -> n.n_store.(k) <- key) s.s_keys;
  refill n.n_prep s.s_preps;
  refill n.n_done s.s_dones;
  refill n.n_decided s.s_decideds;
  refill n.n_unacked s.s_unackeds;
  Replog.set_applied n.n_log s.s_seq;
  if term > n.n_term then n.n_term <- term;
  n.n_syncing <- false;
  n.n_role <- Backup

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

let rec rejoin c n =
  n.n_role <- Backup;
  n.n_syncing <- true;
  clear_volatile n;
  IntTbl.reset n.n_prep;
  IntTbl.reset n.n_unacked;
  IntTbl.reset n.n_decided;
  IntTbl.reset n.n_done;
  Array.iter (fun k -> k.Key.locked <- false) n.n_store;
  join_loop c n

and join_loop c n =
  if n.n_syncing && not c.stopping then begin
    to_peers c n (Join { node = n.n_id });
    Net.at c.net ~node:n.n_id ~delay:term_ns (fun () -> join_loop c n)
  end
