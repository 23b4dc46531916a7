(* Sharded, Ordo-timestamped KV service on the cluster network model.

   Keys are partitioned across shard nodes ([key mod shards]).  A client
   node drives an open-loop load (exponential arrivals, Zipf keys,
   optional batching); single-shard transactions commit locally in one
   shard visit; cross-shard transfers run Ordo-timestamped two-phase
   commit.  Reads are Tardis-style leases: a read serves at
   [max(clock, wts)] and *renews* the key's read lease ([rts]) instead of
   invalidating anything; a writer then picks a commit timestamp above
   the lease, so read-mostly keys never bounce.

   Timestamp sources:
   - [Ordo]: every shard stamps from its own node clock under the
     composed cluster boundary.  Cross-shard commits take
     [max] of the two shards' proposals and, Spanner-style, wait out the
     uncertainty window before making the commit visible, so the commit
     timestamp is certainly in the past everywhere ("commit wait").
   - [Logical]: the contended baseline — a sequencer node owns one
     counter; every transaction pays a round trip (plus the sequencer's
     service occupancy) for its stamp.

   Locking.  Writes hold a key lock only while a stamp is in flight
   (logical single-shard) or between prepare and commit (2PC).  Any
   operation reaching a locked key defers and retries with backoff —
   readers too: serving a read above an in-flight commit's eventual
   timestamp is exactly the cross-node ordering bug the offline checker
   exists to catch, so prepared keys are unreadable until commit.

   Tracing.  When a sink is installed the service emits, with
   [tid = node id]: [Clock_read] for every protocol clock read, the
   [tx.*] probe protocol for every committed transaction (emitted
   atomically at its commit instant, cross-shard at the coordinator), and
   [ordo.new_time] for every commit-wait — so `Checker.check ~boundary`
   verifies cross-node commit order with no cluster-specific code. *)

module Rng = Ordo_util.Rng
module Zipf = Ordo_util.Zipf
module Stats = Ordo_util.Stats
module Trace = Ordo_trace.Trace

type source = Logical | Ordo

let source_name = function Logical -> "logical" | Ordo -> "ordo"

(* Hooks shared with the layers built on this service (lib/service): the
   versioned-lease key state and the trace vocabulary, so the offline
   checker sees one probe protocol no matter which layer emitted it. *)

module Key = struct
  type t = {
    mutable value : int;
    mutable ver : int;
    mutable wts : int;  (* timestamp of the installed version *)
    mutable rts : int;  (* read lease: no write may commit at or below this *)
    mutable locked : bool;
  }

  let make ~value = { value; ver = 0; wts = 0; rts = 0; locked = false }

  (* Tardis write stamp: at or above the writer's clock and [floor],
     strictly above the installed version and every granted read lease. *)
  let write_stamp ~clock ~floor k =
    Int.max clock (Int.max floor (Int.max (k.wts + 1) (k.rts + 1)))

  (* Install version [ver] at [ts]: the read lease never ends below the
     version's own stamp. *)
  let install k ~ver ~ts ~delta =
    k.ver <- ver;
    k.wts <- ts;
    k.rts <- Int.max k.rts ts;
    k.value <- k.value + delta
end

module Obs = struct
  (* Observational helpers: no time charge, no rng draw — safe to call
     (or skip) without perturbing the simulated history. *)
  let probe net node name b c =
    if Trace.enabled () then
      Trace.emit ~tid:node ~time:(Net.now net) Trace.Probe ~a:(Trace.intern name) ~b ~c

  let clock net node =
    let v = Net.clock net node in
    if Trace.enabled () then
      Trace.emit ~tid:node ~time:(Net.now net) Trace.Clock_read ~a:v ~b:0 ~c:0;
    v

  let emit_tx net node ~start_ts ~reads ~installs ~commit_ts =
    probe net node "tx.begin" start_ts 0;
    List.iter (fun (k, v) -> probe net node "tx.read" k v) reads;
    List.iter (fun (k, v) -> probe net node "tx.install" k v) installs;
    probe net node "tx.commit" commit_ts 0
end

(* Engineering constants no caller varies; the first five are shared
   with the service layer. *)
let op_ns = 120  (* shard occupancy per transaction step *)
let msg_ns = 250  (* shard occupancy per delivered message *)
let retry_ns = 400  (* backoff unit for locked keys *)
let max_retries = 8
let lease_ns = 3_000  (* read-lease extension granted per read *)
let keys = 4_096
let seq_ns = 220  (* sequencer occupancy per stamp (logical source) *)

type config = {
  theta : float;  (* Zipf skew *)
  arrival_ns : int;  (* mean inter-arrival of the whole client stream *)
  batch : int;  (* client request batching factor *)
  read_pct : int;
  cross_pct : int;  (* cross-shard transfers, % of all txns *)
  dur_ns : int;  (* arrival window; the run then drains *)
  source : source;
}

let default =
  {
    theta = 0.6;
    arrival_ns = 150;
    batch = 1;
    read_pct = 50;
    cross_pct = 10;
    dur_ns = 200_000;
    source = Ordo;
  }

type result = {
  issued : int;
  committed : int;
  aborted : int;
  cross_issued : int;
  cross_committed : int;
  throughput : float;  (* committed txns per µs of total run time *)
  mean_ns : float;
  p50_ns : float;
  p99_ns : float;
  messages : int;
  renewals : int;  (* reads that extended a still-active lease *)
  commit_waits : int;  (* cross-shard commits that waited out uncertainty *)
  wait_ns : int;  (* total ns spent in commit waits *)
  end_ns : int;  (* cluster time when the last transaction resolved *)
  boundary : int;
  sum_values : int;  (* final sum over all keys (conservation check) *)
  locks_left : int;  (* keys still locked at drain (must be 0) *)
}

type op = Read of int | Incr of int | Transfer of int * int

type txn = { id : int; op : op; arrival : int; mutable tries : int }

type msg =
  | Req of txn list
  | Reply of (txn * bool) list
  | Prepare of { tx : txn; coord : int; prop : int }
  | Prepared of { tx : txn; ver : int; prop : int }
  | Conflict of { tx : txn }
  | Commit of { tx : txn; ver : int; ts : int }
  | SeqReq of { shard : int; tx : txn }
  | SeqResp of { tx : txn; ts : int }

type key_state = Key.t = {
  mutable value : int;
  mutable ver : int;
  mutable wts : int;  (* timestamp of the installed version *)
  mutable rts : int;  (* read lease: no write may commit at or below this *)
  mutable locked : bool;
}

let run ~boundary (spec : Net.Spec.t) (cfg : config) =
  let s = spec.Net.Spec.nodes in
  if keys < 2 * s then invalid_arg "Kv.run: need at least 2 keys per shard";
  if cfg.batch < 1 then invalid_arg "Kv.run: batch must be >= 1";
  if boundary < 0 then invalid_arg "Kv.run: negative boundary";
  (* Two service nodes past the shards: the client and the sequencer.
     Reserved for both sources so the topology (and the composed
     measurement over it) is identical in a logical-vs-ordo comparison. *)
  let net : msg Net.t = Net.create (Net.Spec.extend spec 2) in
  let client = s and seqr = s + 1 in
  let shard_of k = k mod s in
  let tbl = Array.init keys (fun _ -> Key.make ~value:100) in
  let issued = ref 0
  and committed = ref 0
  and aborted = ref 0
  and cross_issued = ref 0
  and cross_committed = ref 0
  and renewals = ref 0
  and commit_waits = ref 0
  and wait_ns = ref 0
  and end_ns = ref 0 in
  let lats = ref [] in
  let seq_counter = ref 0 in
  (* Coordinator context parked while a logical cross-shard txn fetches
     its stamp: txid -> participant version from the Prepared vote. *)
  let pending_ver : (int, int) Hashtbl.t = Hashtbl.create 64 in

  (* -- tracing helpers (see {!Obs}: observational, free of time/rng) -- *)
  let probe node name b c = Obs.probe net node name b c in
  let clock node = Obs.clock net node in
  let emit_tx node ~start_ts ~reads ~installs ~commit_ts =
    Obs.emit_tx net node ~start_ts ~reads ~installs ~commit_ts
  in

  let finish tx ok shard reply =
    match reply with
    | Some acc -> acc := (tx, ok) :: !acc
    | None -> Net.send net ~src:shard ~dst:client (Reply [ (tx, ok) ])
  in

  (* -- shard-side transaction steps -- *)
  let rec retry tx shard reply =
    tx.tries <- tx.tries + 1;
    if tx.tries > max_retries then begin
      (* Cross-shard coordinators never hold the local lock here: the
         lock is taken only once the txn gets past this point. *)
      finish tx false shard reply
    end
    else
      Net.at net ~node:shard ~delay:(retry_ns * tx.tries) (fun () ->
          Net.busy net shard op_ns;
          step_txn tx shard None)

  and step_txn tx shard reply =
    match tx.op with
    | Read k ->
      let st = tbl.(k) in
      if st.locked then retry tx shard reply
      else begin
        match cfg.source with
        | Ordo ->
          let read_ts = max (clock shard) st.wts in
          if st.rts >= read_ts then incr renewals;
          st.rts <- max st.rts (read_ts + lease_ns);
          emit_tx shard ~start_ts:read_ts ~reads:[ (k, st.ver) ] ~installs:[]
            ~commit_ts:read_ts;
          finish tx true shard reply
        | Logical -> Net.send net ~src:shard ~dst:seqr (SeqReq { shard; tx })
      end
    | Incr k ->
      let st = tbl.(k) in
      if st.locked then retry tx shard reply
      else begin
        match cfg.source with
        | Ordo ->
          let ts = Key.write_stamp ~clock:(clock shard) ~floor:0 st in
          let old = st.ver in
          Key.install st ~ver:(old + 1) ~ts ~delta:1;
          emit_tx shard ~start_ts:ts ~reads:[ (k, old) ] ~installs:[ (k, old + 1) ]
            ~commit_ts:ts;
          finish tx true shard reply
        | Logical ->
          (* Hold the lock while the stamp round-trips so no later stamp
             can install under this one. *)
          st.locked <- true;
          Net.send net ~src:shard ~dst:seqr (SeqReq { shard; tx })
      end
    | Transfer (a, b) ->
      let st = tbl.(a) in
      if st.locked then retry tx shard reply
      else begin
        st.locked <- true;
        let prop =
          match cfg.source with
          | Ordo -> Key.write_stamp ~clock:(clock shard) ~floor:0 st
          | Logical -> 0
        in
        Net.send net ~src:shard ~dst:(shard_of b) (Prepare { tx; coord = shard; prop })
      end

  (* Apply a cross-shard commit at its coordinator: install locally, emit
     the whole txn probe group atomically, propagate to the participant,
     ack the client. *)
  and commit_cross tx coord ~commit_ts0 ~final ~ver_b =
    let a, b = match tx.op with Transfer (a, b) -> (a, b) | _ -> assert false in
    let st = tbl.(a) in
    let ver_a = st.ver in
    Key.install st ~ver:(ver_a + 1) ~ts:final ~delta:(-1);
    st.locked <- false;
    (* The commit-wait contract (only meaningful for the Ordo source):
       the published timestamp is certainly after the joint proposal. *)
    (match cfg.source with
    | Ordo -> probe coord "ordo.new_time" commit_ts0 final
    | Logical -> ());
    emit_tx coord ~start_ts:commit_ts0
      ~reads:[ (a, ver_a); (b, ver_b) ]
      ~installs:[ (a, ver_a + 1); (b, ver_b + 1) ]
      ~commit_ts:final;
    incr cross_committed;
    Net.send net ~src:coord ~dst:(shard_of b) (Commit { tx; ver = ver_b + 1; ts = final });
    finish tx true coord None
  in

  (* -- delivery handler -- *)
  Net.on_message net (fun src dst m ->
      match m with
      | Req txns ->
        Net.busy net dst msg_ns;
        let acc = ref [] in
        List.iter
          (fun tx ->
            Net.busy net dst op_ns;
            step_txn tx dst (Some acc))
          txns;
        if !acc <> [] then Net.send net ~src:dst ~dst:client (Reply (List.rev !acc))
      | Prepare { tx; coord; prop } ->
        Net.busy net dst (msg_ns + op_ns);
        let b = match tx.op with Transfer (_, b) -> b | _ -> assert false in
        let st = tbl.(b) in
        if st.locked then Net.send net ~src:dst ~dst:coord (Conflict { tx })
        else begin
          st.locked <- true;
          let prop' =
            match cfg.source with
            | Ordo -> Key.write_stamp ~clock:(clock dst) ~floor:prop st
            | Logical -> 0
          in
          Net.send net ~src:dst ~dst:coord (Prepared { tx; ver = st.ver; prop = prop' })
        end
      | Conflict { tx } ->
        Net.busy net dst msg_ns;
        let a = match tx.op with Transfer (a, _) -> a | _ -> assert false in
        tbl.(a).locked <- false;
        finish tx false dst None
      | Prepared { tx; ver; prop } -> (
        Net.busy net dst (msg_ns + op_ns);
        match cfg.source with
        | Ordo ->
          let commit_ts0 = prop in
          let c = clock dst in
          if c > commit_ts0 + boundary then
            commit_cross tx dst ~commit_ts0 ~final:c ~ver_b:ver
          else begin
            (* Spanner-style commit wait: sit out the uncertainty window
               so the commit timestamp is certainly past everywhere. *)
            let delay = commit_ts0 + boundary + 1 - c in
            incr commit_waits;
            wait_ns := !wait_ns + delay;
            Net.at net ~node:dst ~delay (fun () ->
                commit_cross tx dst ~commit_ts0 ~final:(clock dst) ~ver_b:ver)
          end
        | Logical ->
          Hashtbl.replace pending_ver tx.id ver;
          Net.send net ~src:dst ~dst:seqr (SeqReq { shard = dst; tx }))
      | Commit { tx; ver; ts } ->
        Net.busy net dst (msg_ns + op_ns);
        let b = match tx.op with Transfer (_, b) -> b | _ -> assert false in
        let st = tbl.(b) in
        Key.install st ~ver ~ts ~delta:1;
        st.locked <- false
      | SeqReq { shard; tx } ->
        (* The contended resource of the logical baseline: one counter,
           one node, every stamp serialized through its occupancy. *)
        Net.busy net dst seq_ns;
        incr seq_counter;
        Net.send net ~src:dst ~dst:shard (SeqResp { tx; ts = !seq_counter })
      | SeqResp { tx; ts } -> (
        Net.busy net dst msg_ns;
        match tx.op with
        | Read k ->
          let st = tbl.(k) in
          (* A commit may have installed a higher stamp while this one
             round-tripped; serve the read at the version's timestamp. *)
          let read_ts = max ts st.wts in
          if st.rts >= read_ts then incr renewals;
          st.rts <- max st.rts read_ts;
          emit_tx dst ~start_ts:read_ts ~reads:[ (k, st.ver) ] ~installs:[]
            ~commit_ts:read_ts;
          finish tx true dst None
        | Incr k ->
          let st = tbl.(k) in
          let old = st.ver in
          Key.install st ~ver:(old + 1) ~ts ~delta:1;
          st.locked <- false;
          emit_tx dst ~start_ts:ts ~reads:[ (k, old) ] ~installs:[ (k, old + 1) ]
            ~commit_ts:ts;
          finish tx true dst None
        | Transfer _ ->
          let ver_b = Hashtbl.find pending_ver tx.id in
          Hashtbl.remove pending_ver tx.id;
          commit_cross tx dst ~commit_ts0:ts ~final:ts ~ver_b)
      | Reply lst ->
        ignore src;
        List.iter
          (fun (tx, ok) ->
            if Net.now net > !end_ns then end_ns := Net.now net;
            if ok then begin
              incr committed;
              lats := float_of_int (Net.now net - tx.arrival) :: !lats
            end
            else incr aborted)
          lst);

  (* -- client: open-loop arrivals, Zipf keys, per-shard batching -- *)
  let base_rng = Rng.create ~seed:(Int64.add spec.Net.Spec.seed 0x5eedL) () in
  let arr_rng = Rng.split base_rng in
  let key_rng = Rng.split base_rng in
  let mix_rng = Rng.split base_rng in
  let zipf = Zipf.create ~n:keys ~theta:cfg.theta in
  let buf = Array.make s [] and bufn = Array.make s 0 in
  let flush d =
    if bufn.(d) > 0 then begin
      Net.send net ~src:client ~dst:d (Req (List.rev buf.(d)));
      buf.(d) <- [];
      bufn.(d) <- 0
    end
  in
  let gen_txn () =
    incr issued;
    let k = Zipf.sample zipf key_rng in
    let dice = Rng.int mix_rng 100 in
    let op =
      if dice < cfg.read_pct then Read k
      else if dice < cfg.read_pct + cfg.cross_pct && s > 1 then begin
        (* Partner key on a different shard, Zipf-drawn when possible. *)
        let rec pick tries =
          if tries = 0 then
            let rec bump k2 = if shard_of k2 <> shard_of k then k2 else bump ((k2 + 1) mod keys) in
            bump ((k + 1) mod keys)
          else
            let k2 = Zipf.sample zipf key_rng in
            if shard_of k2 <> shard_of k then k2 else pick (tries - 1)
        in
        Transfer (k, pick 16)
      end
      else Incr k
    in
    (match op with Transfer _ -> incr cross_issued | Read _ | Incr _ -> ());
    let dest = match op with Read x | Incr x | Transfer (x, _) -> shard_of x in
    let tx = { id = !issued; op; arrival = Net.now net; tries = 0 } in
    buf.(dest) <- tx :: buf.(dest);
    bufn.(dest) <- bufn.(dest) + 1;
    if bufn.(dest) >= cfg.batch then flush dest
  in
  let gap () = max 1 (Rng.exponential_int arr_rng (float_of_int cfg.arrival_ns)) in
  let rec arrive () =
    gen_txn ();
    let g = gap () in
    if Net.now net + g <= cfg.dur_ns then Net.at net ~node:client ~delay:g arrive
    else
      Net.at net ~node:client ~delay:g (fun () ->
          for d = 0 to s - 1 do
            flush d
          done)
  in
  Net.at net ~node:client ~delay:(gap ()) arrive;
  Net.run net;

  let lats = Array.of_list !lats in
  let pct p = if Array.length lats = 0 then 0.0 else Stats.percentile lats p in
  let sum_values = Array.fold_left (fun acc st -> acc + st.value) 0 tbl in
  let locks_left =
    Array.fold_left (fun acc st -> acc + if st.locked then 1 else 0) 0 tbl
  in
  {
    issued = !issued;
    committed = !committed;
    aborted = !aborted;
    cross_issued = !cross_issued;
    cross_committed = !cross_committed;
    throughput =
      (if !end_ns = 0 then 0.0
       else float_of_int !committed /. (float_of_int !end_ns /. 1_000.0));
    mean_ns = (if Array.length lats = 0 then 0.0 else Stats.mean lats);
    p50_ns = pct 0.5;
    p99_ns = pct 0.99;
    messages = Net.delivered net;
    renewals = !renewals;
    commit_waits = !commit_waits;
    wait_ns = !wait_ns;
    end_ns = !end_ns;
    boundary;
    sum_values;
    locks_left;
  }
