(* The client node: Sessions traffic, the table of requests in flight,
   retransmission and the latencies it observes.  It hides how an op
   reaches its group: each request goes to the client's view of the
   group's leader (rotated to the next replica on a timeout, reset by a
   redirect or a [Promoted] broadcast), is retransmitted after
   [client_retry_ns] of silence, is reissued under a fresh rid when it
   fails (the old rid is burned in the done-table), and is given up
   after [max_attempts].  Once arrivals close and every session and op
   has finished it sets the run's [stopping] flag. *)

open Node

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

type t = {
  c : ctx;
  gen : Sessions.t;
  pending : pend IntTbl.t;
  mutable live : int;  (* sessions connected *)
  mutable arrivals_open : bool;
  mutable rids : int;
  (* what Service.result reports of the client *)
  mutable issued : int; mutable committed : int; mutable failed : int;
  mutable shed_replies : int; mutable cross_issued : int; mutable end_ns : int;
  mutable lats : int list;  (* completed ops' latencies, newest first *)
}

let create c ~seed profile =
  {
    c;
    gen = Sessions.create ~seed profile;
    pending = IntTbl.create 1024;
    live = 0;
    arrivals_open = true;
    rids = 0;
    issued = 0; committed = 0; failed = 0; shed_replies = 0; cross_issued = 0; end_ns = 0;
    lats = [];
  }

let maybe_stop t =
  if (not t.arrivals_open) && t.live = 0 && IntTbl.length t.pending = 0 then t.c.stopping <- true

let target_of t p =
  let base = base_of t.c p.p_group in
  base + ((t.c.views.(t.c.client).(p.p_group) - base + p.p_rot) mod t.c.replicas)

let send_req t p =
  p.p_sent_at <- Net.now t.c.net;
  Net.send t.c.net ~src:t.c.client ~dst:(target_of t p) (Req { rid = p.p_rid; op = p.p_op })

let after t delay f = Net.at t.c.net ~node:t.c.client ~delay f

let finishp t p ok =
  let now = Net.now t.c.net in
  if now > t.end_ns then t.end_ns <- now;
  if ok then begin
    t.committed <- t.committed + 1;
    t.lats <- (now - p.p_arrival) :: t.lats
  end
  else t.failed <- t.failed + 1;
  p.p_fin ok;
  maybe_stop t

(* Count one more attempt at [p]; true if that spent the budget, in
   which case the client has given the op up. *)
let exhausted t p =
  p.p_attempts <- p.p_attempts + 1;
  let out = p.p_attempts >= max_attempts in
  if out then begin
    IntTbl.remove t.pending p.p_rid;
    finishp t p false
  end;
  out

let issue t op fin =
  t.issued <- t.issued + 1;
  let k = match op with Sessions.Get k | Sessions.Put k | Sessions.Transfer (k, _) -> k in
  (match op with Sessions.Transfer _ -> t.cross_issued <- t.cross_issued + 1 | _ -> ());
  t.rids <- t.rids + 1;
  let p =
    { p_rid = t.rids; p_op = op; p_group = group_of_key t.c k; p_arrival = Net.now t.c.net;
      p_attempts = 0; p_rot = 0; p_sent_at = 0; p_fin = fin }
  in
  IntTbl.replace t.pending p.p_rid p;
  send_req t p

(* Retransmit scanner: rotate to the next replica once a request has
   gone unanswered for the client patience window. *)
let rec scan t () =
  if not t.c.stopping then begin
    let now = Net.now t.c.net in
    let late =
      IntTbl.fold
        (fun _ p acc -> if now - p.p_sent_at >= client_retry_ns then p :: acc else acc)
        t.pending []
    in
    List.iter
      (fun p ->
        p.p_rot <- p.p_rot + 1;
        if not (exhausted t p) then send_req t p)
      (List.sort (fun a b -> Int.compare a.p_rid b.p_rid) late);
    after t (Int.max 1 (client_retry_ns / 2)) (scan t)
  end

(* Session driving: think, issue, repeat; churn back in on completion. *)
let rec session_loop t s =
  if Sessions.finished s then begin
    if Sessions.complete t.gen s then session_loop t (Sessions.connect t.gen)
    else begin
      t.live <- t.live - 1;
      maybe_stop t
    end
  end
  else
    after t (Sessions.think_gap t.gen s) (fun () ->
        let op = Sessions.op t.gen s ~now:(Net.now t.c.net) in
        issue t op (fun _ok -> session_loop t s))

let rec arrive t =
  match Sessions.next_arrival t.gen ~now:(Net.now t.c.net) with
  | Some gap ->
    after t gap (fun () ->
        let s = Sessions.connect t.gen in
        t.live <- t.live + 1;
        session_loop t s;
        arrive t)
  | None ->
    t.arrivals_open <- false;
    maybe_stop t

(* Open the arrival stream and start the retransmit scanner. *)
let start t =
  arrive t;
  after t (Int.max 1 (client_retry_ns / 2)) (scan t)

let on_reply t rid outcome =
  match IntTbl.find_opt t.pending rid with
  | None -> ()  (* late duplicate of a resolved request *)
  | Some p -> (
    match outcome with
    | Done_ok ->
      IntTbl.remove t.pending rid;
      finishp t p true
    | Done_fail ->
      IntTbl.remove t.pending rid;
      if not (exhausted t p) then begin
        (* the old rid is burned in the done-table: fresh identity *)
        t.rids <- t.rids + 1;
        let p2 = { p with p_rid = t.rids } in
        IntTbl.replace t.pending p2.p_rid p2;
        after t (Kv.retry_ns * p2.p_attempts) (fun () ->
            if IntTbl.mem t.pending p2.p_rid then send_req t p2)
      end
    | Shed_retry ra ->
      t.shed_replies <- t.shed_replies + 1;
      if not (exhausted t p) then begin
        (* hold the scanner off until the retry fires *)
        p.p_sent_at <- Net.now t.c.net + ra;
        after t (Int.max 1 ra) (fun () -> if IntTbl.mem t.pending rid then send_req t p)
      end
    | Moved leader ->
      t.c.views.(t.c.client).(p.p_group) <- leader;
      p.p_rot <- 0;
      if not (exhausted t p) then send_req t p)

(* [group] has a new leader: stop rotating away from it. *)
let on_promoted t ~group ~leader =
  t.c.views.(t.c.client).(group) <- leader;
  IntTbl.iter (fun _ p -> if p.p_group = group then p.p_rot <- 0) t.pending

(* Completed-op latencies in ns, ascending. *)
let latencies t =
  let l = Array.of_list t.lats in
  Array.sort Int.compare l;
  l
