(* Cross-group transfers: timestamped two-phase commit under Tardis
   read leases, coordinator and participant sides, with epoch group
   commit.  It hides the commit discipline:

   - Epoch group commit.  Cross-shard commits join the open epoch with
     their joint (max) proposal; the epoch close commit-waits the joint
     proposal once (one [ordo.new_time] probe per epoch), then installs
     every member at the epoch's final stamp.  Single-shard writes ride
     the same flush for replication amortization but need no wait.

   - Presumed abort.  A leader that takes over ([presume_abort_undecided])
     aborts every replicated-but-undecided coordinator-side preparation:
     decisions flush before they ship, so no decision in the replicated
     prefix means no participant has one either.  Decisions retransmit
     until acknowledged ([pump]); the participant dedups by txid. *)

open Node
open Replication

(* ---- decision chase ---- *)

let send_decision c n txid =
  match IntTbl.find_opt n.n_unacked txid with
  | None -> ()
  | Some u ->
    Net.send c.net ~src:n.n_id ~dst:c.views.(n.n_id).(u.u_peer)
      (Decision { txid; commit = u.u_commit; ts = u.u_ts; ver_b = u.u_ver_b })

let rec rexmit_tick c n =
  (* keeps running past [stopping]: unacknowledged decisions must land
     or the participant group drains with a lock held *)
  if leading n && IntTbl.length n.n_unacked > 0 then begin
    List.iter
      (fun txid ->
        match IntTbl.find_opt n.n_unacked txid with
        | None -> ()
        | Some u ->
          if u.u_tries >= rexmit_cap then IntTbl.remove n.n_unacked txid
          else begin
            u.u_tries <- u.u_tries + 1;
            send_decision c n txid
          end)
      (sorted_keys n.n_unacked);
    arm_rexmit c n
  end

and arm_rexmit c n = arm c n rexmit_timer ~delay:rexmit_ns rexmit_tick

(* First transmission of freshly decided transactions, then keep the
   retransmit timer alive while anything is unacknowledged. *)
let pump c n =
  (match n.n_to_send with
  | [] -> ()
  | fresh ->
    n.n_to_send <- [];
    iter_oldest_first (send_decision c n) fresh);
  if IntTbl.length n.n_unacked > 0 then arm_rexmit c n

(* Flush, chasing any decision the released output queued.  [pump] is
   idempotent, so [flush_pump] need not ask whether anything left. *)
let flush c n = if Replication.flush c n then pump c n

let flush_pump c n =
  ignore (Replication.flush c n : bool);
  pump c n

(* ---- epoch publish ---- *)

let publish c n joint fns =
  let fin () =
    let final = obs_clock c n.n_id in
    probe c n.n_id "ordo.new_time" joint final;
    List.iter (fun f -> f final) fns;
    flush_pump c n
  in
  let now = obs_clock c n.n_id in
  if now > joint + c.boundary then fin ()
  else begin
    let delay = joint + c.boundary + 1 - now in
    c.commit_waits <- c.commit_waits + 1;
    c.wait_ns <- c.wait_ns + delay;
    Net.at c.net ~node:n.n_id ~delay fin
  end

let epoch_tick c n =
  match Epoch.close n.n_batch with
  | Some (joint, fns) -> publish c n joint fns
  | None -> flush_pump c n

(* Immediate mode flushes inline; epoch mode arms one close timer. *)
let ensure_flush c n =
  if c.epoch_ns = 0 then flush_pump c n
  else arm c n flush_timer ~delay:c.epoch_ns epoch_tick

(* ---- coordinator side ---- *)

(* Coordinator-side abort: release the lock, fail the request, and
   optionally chase the participant with an abort decision (presumed
   abort / prepare timeout; a Conflict abort has no participant-side
   lock to release). *)
let abort_tx n txid p ~notify_peer =
  decide n txid p ~commit:false ~ts:0 ~ver_b:0;
  resolve n p.pr_rid (false, 0);
  if notify_peer then begin
    IntTbl.replace n.n_unacked txid
      { u_commit = false; u_ts = 0; u_ver_b = 0; u_peer = p.pr_peer; u_tries = 0 };
    n.n_to_send <- txid :: n.n_to_send
  end

let presume_abort_undecided n =
  IntTbl.fold
    (fun txid p acc -> if p.pr_coord && not (IntTbl.mem n.n_decided txid) then (txid, p) :: acc else acc)
    n.n_prep []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (txid, p) -> abort_tx n txid p ~notify_peer:true)

(* Coordinator-side commit of one cross-group transfer, at the epoch's
   (or its own) final stamp. *)
let commit_cross c n txid p ~ver_b ~tx_start ~final =
  let a = p.pr_key in
  let old = n.n_store.(a).Key.ver in
  install n a ~ver:(old + 1) ~ts:final ~delta:(-1);
  decide n txid p ~commit:true ~ts:final ~ver_b:(ver_b + 1);
  resolve n p.pr_rid (true, 0);
  let b = p.pr_other and peer = p.pr_peer in
  buffer_probe n (fun () ->
      Obs.emit_tx c.net n.n_id ~start_ts:tx_start
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
  c.cross_committed <- c.cross_committed + 1

(* Lock key [a] and ask key [b]'s group to prepare the transfer. *)
let prepare c n ~rid a b =
  let prop = Key.write_stamp ~clock:(obs_clock c n.n_id) ~floor:n.n_floor n.n_store.(a) in
  c.txids <- c.txids + 1;
  let txid = c.txids in
  let peer_group = group_of_key c b in
  lock_prep n ~txid ~key:a ~other:b ~prop ~rid ~peer:peer_group ~coord:true;
  buffer_entry n (Replog.Prep { txid; key = a; prop; rid; peer = peer_group; coord = true });
  (* flush before sync-ship: the prepare is on the backups before the
     participant can observe it *)
  flush c n;
  Net.send c.net ~src:n.n_id ~dst:c.views.(n.n_id).(peer_group)
    (Prepare { txid; key_b = b; prop; coord = n.n_id });
  Net.at c.net ~node:n.n_id ~delay:prep_abort_ns (fun () ->
      match IntTbl.find_opt n.n_prep txid with
      | Some p when p.pr_coord && not (IntTbl.mem n.n_decided txid) ->
        abort_tx n txid p ~notify_peer:true;
        flush_pump c n
      | _ -> ())

let on_prepared c n ~txid ~ver_b ~prop =
  match IntTbl.find_opt n.n_prep txid with
  | Some p when leading n && not (IntTbl.mem n.n_decided txid) ->
    let tx_start = Int.max p.pr_prop prop in
    let fn final =
      (* the prepare can be presume-aborted while the epoch is open
         (prep timeout racing the close): re-check.  The lease is
         re-checked too — the epoch close (and its commit wait) can
         land after this leader's lease lapsed, and a commit stamped
         then could collide with a promoted peer's stamp space; abort
         instead, the client reissues *)
      match IntTbl.find_opt n.n_prep txid with
      | Some p when not (IntTbl.mem n.n_decided txid) ->
        if leading n && Lease.valid n.n_lease ~now:final then
          commit_cross c n txid p ~ver_b ~tx_start ~final
        else abort_tx n txid p ~notify_peer:true
      | _ -> ()
    in
    if c.epoch_ns = 0 then publish c n tx_start [ fn ]
    else if Epoch.add n.n_batch ~prop:tx_start fn then ensure_flush c n
  | _ -> ()

let on_conflict c n ~txid =
  match IntTbl.find_opt n.n_prep txid with
  | Some p when p.pr_coord && not (IntTbl.mem n.n_decided txid) ->
    (* participant never locked: no decision to chase *)
    abort_tx n txid p ~notify_peer:false;
    ensure_flush c n
  | _ -> ()

let on_decision_ack c n ~txid =
  if IntTbl.mem n.n_unacked txid then begin
    IntTbl.remove n.n_unacked txid;
    buffer_entry n (Replog.Acked { txid });
    ensure_flush c n
  end

(* ---- participant side ---- *)

let on_prepare c n ~txid ~key_b ~prop ~coord =
  if leading n && not (IntTbl.mem n.n_decided txid || IntTbl.mem n.n_prep txid) then begin
    let stk = n.n_store.(key_b) in
    if stk.Key.locked || not (Lease.valid n.n_lease ~now:(obs_clock c n.n_id)) then
      (* locked, or own lease lapsed (a peer may be promoting): refuse
         rather than grant a prepare we may not honor *)
      Net.send c.net ~src:n.n_id ~dst:coord (Conflict { txid })
    else begin
      let prop2 = Key.write_stamp ~clock:(obs_clock c n.n_id) ~floor:(Int.max prop n.n_floor) stk in
      let peer = group_of_node c coord in
      lock_prep n ~txid ~key:key_b ~other:(-1) ~prop:prop2 ~rid:0 ~peer ~coord:false;
      buffer_entry n (Replog.Prep { txid; key = key_b; prop = prop2; rid = 0; peer; coord = false });
      (* The Prepared reply rides the ack watermark: it must not reach
         the coordinator before (a) the prep is really on our backups
         and (b) every install of ours the reported ver_b builds on is
         trace-visible — the coordinator's cross-commit record
         references (key_b, ver_b), so our emissions must be sequenced
         under it. *)
      let ver_b = stk.Key.ver in
      buffer_probe n (fun () ->
          Net.send c.net ~src:n.n_id ~dst:coord (Prepared { txid; ver_b; prop = prop2 }));
      flush c n
    end
  end

(* No ack unless leading under a valid lease: the retransmit finds a
   valid leader. *)
let on_decision c n ~src ~txid ~commit ~ts ~ver_b =
  if leading n && Lease.valid n.n_lease ~now:(obs_clock c n.n_id) then begin
    (match IntTbl.find_opt n.n_prep txid with
    | Some p when not p.pr_coord ->
      if commit then install n p.pr_key ~ver:ver_b ~ts ~delta:1;
      decide n txid p ~commit ~ts ~ver_b;
      (* flush before the ack ships *)
      flush c n
    | Some _ -> ()
    | None -> if not (IntTbl.mem n.n_decided txid) then IntTbl.replace n.n_decided txid commit);
    Net.send c.net ~src:n.n_id ~dst:src (DecisionAck { txid })
  end
