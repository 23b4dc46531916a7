(* What the service's modules share: the wire protocol, one replica's
   state ([nstate]), the run context ([ctx]: the network, the group
   layout, every node's state and view, the run-wide counters) and the
   protocol constants.  It hides the group arithmetic (which node leads,
   which group owns a key, who a node's peers are) and the timer
   discipline: a node's four self-rearming timers are slots of one
   armed-flag array, armed through [arm] and all cleared at once when
   the process restarts. *)

module Net = Ordo_cluster.Net
module Kv = Ordo_cluster.Kv
module Key = Kv.Key
module Obs = Kv.Obs
module Sessions = Ordo_workloads.Sessions

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

(* Engineering constants no caller varies.  Step and message costs,
   locked-key backoff and its cap, and the read-lease length are Kv's. *)
let term_ns = 60_000  (* leadership lease term *)
let heartbeat_ns = 20_000  (* lease renewal / failure-detector tick *)
let client_retry_ns = 40_000  (* client retransmit patience *)
let max_attempts = 12  (* client attempts (sheds included) before giving up *)
let prep_abort_ns = 30_000  (* coordinator patience before presuming a prepare dead *)
let rexmit_ns = 15_000  (* decision retransmit interval *)
let rexmit_cap = 64  (* decision retransmits before giving up *)

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

(* A leader's state as of a stream position: its group's keys (copies),
   then its tables as (key, value) pairs. *)
type snapshot = {
  s_seq : int;
  s_keys : (int * Key.t) list;
  s_preps : (int * prep) list;
  s_dones : (int * (bool * int)) list;  (* rid -> (ok, delta) *)
  s_decideds : (int * bool) list;
  s_unackeds : (int * undec) list;
}

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
  | Snapshot of { term : int; snap : snapshot }

(* Output of one flush that waits for replication acks: it leaves once
   every peer has acknowledged the stream through [h_wm].  Both lists are
   newest first. *)
type held = { h_wm : int; h_probes : (unit -> unit) list; h_replies : (int * outcome) list }

(* Timer slots of [n_armed]: epoch close, decision retransmit,
   heartbeat, failure monitor. *)
let flush_timer, rexmit_timer, hb_timer, mon_timer = (0, 1, 2, 3)

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
         order, so with ascending watermarks ([Replication.release_held]) *)
  mutable n_to_send : int list;  (* decisions awaiting first transmission *)
  n_armed : bool array;  (* by timer slot: a wake-up is pending *)
  mutable n_syncing : bool;  (* re-joining: awaiting a snapshot *)
  mutable n_suspected : bool;  (* backup: lease lapsed, failover pending *)
}

type ctx = {
  net : msg Net.t;
  replicas : int;
  groups : int;
  keys : int;
  boundary : int;
  epoch_ns : int;
  client : int;  (* the client's node id, one past the replicas *)
  tl : Chaos.timeline;
  st : nstate array;
  views : int array array;
      (* views.(v).(g): node v's belief about group g's leader (last row
         = the client) *)
  peers_of : int list array;
  mutable stopping : bool;  (* the client is done: no monitor promotes *)
  mutable txids : int;
  (* counters Service.result reports *)
  mutable commit_waits : int; mutable wait_ns : int; mutable cross_committed : int;
  mutable rep_stale : int; mutable promotions : int; mutable degraded_reads : int;
  mutable snapshots : int;
}

let base_of c g = g * c.replicas
let group_of_node c i = i / c.replicas
let group_of_key c k = k mod c.groups
let members c g = List.init c.replicas (fun r -> base_of c g + r)
let peers c n = c.peers_of.(n.n_id)
let leading n = n.n_role = Leader && not n.n_syncing
let obs_clock c node = Obs.clock c.net node
let probe c node name b v = Obs.probe c.net node name b v
let to_peers c n m = List.iter (fun p -> Net.send c.net ~src:n.n_id ~dst:p m) (peers c n)
let reply_client c src rid outcome = Net.send c.net ~src ~dst:c.client (Reply { rid; outcome })

(* Arm [n]'s timer [slot] to run [f c n] in [delay] ns unless it is
   armed already; it disarms as it fires. *)
let arm c n slot ~delay f =
  if not n.n_armed.(slot) then begin
    n.n_armed.(slot) <- true;
    Net.at c.net ~node:n.n_id ~delay (fun () ->
        n.n_armed.(slot) <- false;
        f c n)
  end

(* The run context over [spec]'s groups plus one client node: member 0
   of each group leads term 1, every key starts at value 100. *)
let create ~boundary ~epoch_ns ~adm ~keys spec =
  let replicas = spec.Net.Spec.replicas and nodes = spec.Net.Spec.nodes in
  let net = Net.create (Net.Spec.extend spec 1) in
  let base_of g = g * replicas in
  let node i =
    let g = i / replicas in
    {
      n_id = i;
      n_group = g;
      n_role = (if i mod replicas = 0 then Leader else Backup);
      n_term = 1;
      n_lease = Lease.grant ~holder:(base_of g) ~term:1 ~now:0 ~term_ns;
      n_floor = 0;
      n_store = Array.init keys (fun _ -> Key.make ~value:100);
      n_log = Replog.create ();
      n_adm = Admission.create adm;
      n_done = IntTbl.create 256;
      n_prep = IntTbl.create 32;
      n_decided = IntTbl.create 256;
      n_unacked = IntTbl.create 32;
      n_exec = IntTbl.create 32;
      n_peer_ack = IntTbl.create 4;
      n_held = Queue.create ();
      n_batch = Epoch.create ~epoch_ns;
      n_entries = []; n_replies = []; n_probes = [];
      n_unflushed = IntTbl.create 32;
      n_to_send = [];
      n_armed = Array.make 4 false;
      n_syncing = false; n_suspected = false;
    }
  in
  let groups = Net.Spec.groups spec in
  let group_peers i = List.init replicas (fun r -> base_of (i / replicas) + r) in
  {
    net; replicas; groups; keys; boundary; epoch_ns;
    client = nodes;
    tl = Chaos.timeline ();
    st = Array.init nodes node;
    views = Array.init (nodes + 1) (fun _ -> Array.init groups base_of);
    peers_of = Array.init nodes (fun i -> List.filter (fun m -> m <> i) (group_peers i));
    stopping = false;
    txids = 0;
    commit_waits = 0; wait_ns = 0; cross_committed = 0; rep_stale = 0;
    promotions = 0; degraded_reads = 0; snapshots = 0;
  }
