(* Deterministic multi-node network model.

   A cluster is a set of named nodes — each one a full simulator
   {!Ordo_sim.Engine} instance with its own clock-skew profile — connected
   by links with seeded latency distributions.  Message sends, deliveries
   and timers are events on one cluster-wide discrete-event queue (the
   same [(time, seq)]-keyed heap the engine uses), so a cluster run is as
   deterministic as a single-machine run: same spec, same history.

   Time bases.  The cluster heap advances *cluster time* (ns from run
   start).  Each node also has a reference clock — cluster time shifted by
   the engine's clock epoch and the node's RESET offset — which is what
   protocol code stamps with ({!clock}).  Node clock offsets are folded
   into the per-core RESET offsets of the node's machine model, so code
   running *inside* a node's engine ({!run_node}) sees exactly the same
   skewed clocks as protocol code reading {!clock}: the composed boundary
   measured over messages covers both.

   Events.  A queued event is one heap block: a delivery carries its
   message ([Deliver]), a timer its thunk ([Timer]), so a send allocates
   one record and no closure.  Links are a matrix of per-link records
   built in [create], with the spec's overrides resolved once.

   Busy nodes.  A node charged with {!busy} occupancy defers the events
   that reach it.  They wait in the node's FIFO inbox, represented in the
   heap by a single wake entry, and run in exactly the order the simplest
   model gives — pop each one for a busy node and push it back at
   [busy_until] with a fresh seq — without that model's pop per waiting
   event per event served (see [step]).  When the node serves an event
   and every event still waiting must be re-stamped, that is one O(1)
   run stamp, not one key per waiting event (see [settle]). *)

module Machine = Ordo_sim.Machine
module Engine = Ordo_sim.Engine
module Heap = Ordo_sim.Heap
module Rng = Ordo_util.Rng
module Topology = Ordo_util.Topology
module Trace = Ordo_trace.Trace

module Spec = struct
  type mode = Fifo | Reorder

  type link = { base_ns : int; jitter_ns : int; overhead_ns : int; mode : mode }

  let default_link = { base_ns = 1_500; jitter_ns = 300; overhead_ns = 80; mode = Fifo }

  type t = {
    nodes : int;
    replicas : int;
    machine_name : string;
    machine : Machine.t;
    skew_ns : int;
    offsets : int array option;
    link : link;
    overrides : ((int * int) * link) list;
    seed : int64;
  }

  let make ?(skew_ns = 2_000) ?offsets ?(link = default_link) ?(overrides = [])
      ?(seed = 11L) ?(replicas = 1) ~machine nodes =
    if nodes < 1 then invalid_arg "Net.Spec.make: need at least one node";
    if replicas < 1 then invalid_arg "Net.Spec.make: need at least one replica per group";
    if nodes mod replicas <> 0 then
      invalid_arg "Net.Spec.make: node count must be a multiple of the replica count";
    (match offsets with
    | Some o when Array.length o <> nodes ->
      invalid_arg "Net.Spec.make: offsets must have one entry per node"
    | _ -> ());
    if skew_ns < 0 then invalid_arg "Net.Spec.make: negative skew";
    match Machine.by_name machine with
    | None -> invalid_arg (Printf.sprintf "Net.Spec.make: unknown machine %S" machine)
    | Some m ->
      {
        nodes;
        replicas;
        machine_name = machine;
        machine = m;
        skew_ns;
        offsets;
        link;
        overrides;
        seed;
      }

  let groups t = t.nodes / t.replicas

  let extend t extra =
    if extra < 0 then invalid_arg "Net.Spec.extend: negative count";
    {
      t with
      nodes = t.nodes + extra;
      offsets = Option.map (fun o -> Array.append o (Array.make extra 0)) t.offsets;
    }

  (* "4xamd", "3x2xamd" (3 shard groups of 2 replicas = 6 nodes), or
     "2xarm:base=500,jitter=50,overhead=0,mode=reorder,skew=0,seed=7".
     A machine name starting with a digit would be ambiguous with the
     replica form; no preset is, and [Machine.by_name] rejects it. *)
  let of_string s =
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let head, opts =
      match String.index_opt s ':' with
      | None -> (s, "")
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match String.index_opt head 'x' with
    | None -> fail "cluster spec %S: expected <groups>[x<replicas>]x<machine>[:opts]" s
    | Some i -> (
      let count = String.sub head 0 i in
      let rest = String.sub head (i + 1) (String.length head - i - 1) in
      (* "3x2xamd": the middle segment is a replica count iff it parses
         as an integer (machine names never do). *)
      let replicas, machine =
        match String.index_opt rest 'x' with
        | Some j when int_of_string_opt (String.sub rest 0 j) <> None ->
          (String.sub rest 0 j, String.sub rest (j + 1) (String.length rest - j - 1))
        | _ -> ("1", rest)
      in
      match int_of_string_opt count with
      | None -> fail "cluster spec %S: bad group count %S" s count
      | Some n when n < 1 -> fail "cluster spec %S: need at least one node" s
      | Some n -> (
        match int_of_string_opt replicas with
        | None -> fail "cluster spec %S: bad replica count %S" s replicas
        | Some r when r < 1 ->
          fail "cluster spec %S: need at least one replica per group (got %d)" s r
        | Some r -> (
        match Machine.by_name machine with
        | None -> fail "cluster spec %S: unknown machine %S" s machine
        | Some _ -> (
          let link = ref default_link and skew = ref 2_000 and seed = ref 11L in
          let err = ref None in
          let set kv =
            if kv <> "" && !err = None then
              match String.index_opt kv '=' with
              | None -> err := Some (Printf.sprintf "bad option %S (want key=value)" kv)
              | Some i -> (
                let k = String.sub kv 0 i
                and v = String.sub kv (i + 1) (String.length kv - i - 1) in
                let num f =
                  match int_of_string_opt v with
                  | Some x when x >= 0 -> f x
                  | _ -> err := Some (Printf.sprintf "bad value %S for %s" v k)
                in
                match k with
                | "base" -> num (fun x -> link := { !link with base_ns = x })
                | "jitter" -> num (fun x -> link := { !link with jitter_ns = x })
                | "overhead" -> num (fun x -> link := { !link with overhead_ns = x })
                | "skew" -> num (fun x -> skew := x)
                | "seed" -> num (fun x -> seed := Int64.of_int x)
                | "mode" -> (
                  match v with
                  | "fifo" -> link := { !link with mode = Fifo }
                  | "reorder" -> link := { !link with mode = Reorder }
                  | _ -> err := Some (Printf.sprintf "bad mode %S (fifo|reorder)" v))
                | _ -> err := Some (Printf.sprintf "unknown option %S" k))
          in
          List.iter set (String.split_on_char ',' opts);
          match !err with
          | Some e -> fail "cluster spec %S: %s" s e
          | None ->
            Ok (make ~skew_ns:!skew ~link:!link ~seed:!seed ~replicas:r ~machine (n * r))))))

  let to_string t =
    let l = t.link in
    let head =
      if t.replicas = 1 then Printf.sprintf "%dx%s" t.nodes t.machine_name
      else Printf.sprintf "%dx%dx%s" (t.nodes / t.replicas) t.replicas t.machine_name
    in
    Printf.sprintf "%s:base=%d,jitter=%d,overhead=%d,mode=%s,skew=%d,seed=%Ld"
      head l.base_ns l.jitter_ns l.overhead_ns
      (match l.mode with Fifo -> "fifo" | Reorder -> "reorder")
      t.skew_ns t.seed

  (* Two shard nodes; node 1's clock runs 5 µs ahead, and the 1→0 link is
     much slower than 0→1.  An NTP-style RTT/2 offset estimate assumes
     symmetric delays, so here it under-estimates the real skew and the
     derived "boundary" admits cross-node clock inversions — the seeded
     negative fixture for the offline checker. *)
  let asymmetric_fixture () =
    let fast = { default_link with base_ns = 500; jitter_ns = 50 } in
    let slow = { fast with base_ns = 6_000 } in
    let t = make ~skew_ns:0 ~offsets:[| 0; 5_000 |] ~link:fast ~seed:23L ~machine:"amd" 2 in
    { t with overrides = [ ((1, 0), slow) ] }
end

(* One event for [node], live while the node is on incarnation [inc]: a
   message delivery or a timer.  Each is a single heap block; a delivery
   carries its message, not a closure over it.  A node's wake is a timer
   with [inc = wake_inc]. *)
type 'm ev =
  | Deliver of { node : int; inc : int; src : int; id : int; msg : 'm }
  | Timer of { node : int; inc : int; fn : unit -> unit }

let wake_inc = -1
let ev_node = function Deliver d -> d.node | Timer t -> t.node
let ev_inc = function Deliver d -> d.inc | Timer t -> t.inc

(* FIFO ring of the events deferred behind one busy node, each with the
   [(time, seq)] key its re-push would have had.  Keys ascend from head to
   tail; the ring never holds an event of a past incarnation ([kill]
   empties it).  The first [run_n] events are keyed [(run_t, run_b + i)],
   i counted from the head, and their [times]/[seqs] slots are stale: a
   whole busy period's re-stamps are written once, as a run ([settle]).
   [wake] doubles as the filler of vacated slots. *)
type 'm inbox = {
  mutable evs : 'm ev array;
  mutable times : int array;
  mutable seqs : int array;
  mutable head : int;
  mutable len : int;
  mutable run_t : int;
  mutable run_b : int;
  mutable run_n : int;
  wake : 'm ev;
}

(* Key of the [k]-th waiting event, counted from the head. *)
let key_time ib k =
  if k < ib.run_n then ib.run_t else ib.times.((ib.head + k) land (Array.length ib.evs - 1))

let key_seq ib k =
  if k < ib.run_n then ib.run_b + k
  else ib.seqs.((ib.head + k) land (Array.length ib.evs - 1))

let inbox_push ib ev ~time ~seq =
  let cap = Array.length ib.evs in
  if ib.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let evs = Array.make ncap ib.wake and times = Array.make ncap 0 in
    let seqs = Array.make ncap 0 in
    for k = 0 to ib.len - 1 do
      let j = (ib.head + k) land (cap - 1) in
      evs.(k) <- ib.evs.(j);
      times.(k) <- ib.times.(j);
      seqs.(k) <- ib.seqs.(j)
    done;
    ib.evs <- evs;
    ib.times <- times;
    ib.seqs <- seqs;
    ib.head <- 0
  end;
  let j = (ib.head + ib.len) land (Array.length ib.evs - 1) in
  ib.evs.(j) <- ev;
  ib.times.(j) <- time;
  ib.seqs.(j) <- seq;
  ib.len <- ib.len + 1

let inbox_take ib =
  let ev = ib.evs.(ib.head) in
  ib.evs.(ib.head) <- ib.wake;
  ib.head <- (ib.head + 1) land (Array.length ib.evs - 1);
  ib.len <- ib.len - 1;
  if ib.run_n > 0 then begin
    ib.run_b <- ib.run_b + 1;
    ib.run_n <- ib.run_n - 1
  end;
  ev

type 'm node = {
  inst : Engine.Instance.i;
  machine : Machine.t;  (* node clock offset folded into reset_ns *)
  mutable busy_until : int;
  mutable alive : bool;
  mutable incarnation : int;  (* bumped by kill: pre-death events never reach a restart *)
  inbox : 'm inbox;
}

(* One directed link: its parameters, its latency generator and, for a
   FIFO link, the last arrival it scheduled.  [jitter_mean] is the float
   form of [jitter_ns], kept boxed here so a draw passes it without
   boxing a fresh one. *)
type link = {
  l : Spec.link;
  jitter_mean : float;
  rng : Rng.t;
  mutable last_arrival : int;
}

type 'm t = {
  spec : Spec.t;
  offsets : int array;
  node_tbl : 'm node array;
  q : 'm ev Heap.t;
  mutable handler : int -> int -> 'm -> unit;
  links : link array array;  (* [src].(dst) *)
  mutable now_ : int;
  mutable sent_ : int;
  mutable delivered_ : int;
  mutable dropped_ : int;
  mutable pops_ : int;
  mutable restamps_ : int;
}

let fold_offset (m : Machine.t) off =
  if off = 0 then m
  else { m with Machine.reset_ns = Array.map (fun r -> r - off) m.Machine.reset_ns }

let create (spec : Spec.t) =
  let n = spec.Spec.nodes in
  let offsets =
    match spec.Spec.offsets with
    | Some o -> Array.copy o
    | None ->
      let r = Rng.create ~seed:spec.Spec.seed () in
      let o = Array.make n 0 in
      for i = 1 to n - 1 do
        o.(i) <- (if spec.Spec.skew_ns = 0 then 0 else Rng.int r spec.Spec.skew_ns)
      done;
      o
  in
  let node_tbl =
    Array.init n (fun i ->
        {
          inst = Engine.Instance.create ();
          machine = fold_offset spec.Spec.machine offsets.(i);
          busy_until = 0;
          alive = true;
          incarnation = 0;
          inbox =
            {
              evs = [||];
              times = [||];
              seqs = [||];
              head = 0;
              len = 0;
              run_t = 0;
              run_b = 0;
              run_n = 0;
              wake = Timer { node = i; inc = wake_inc; fn = ignore };
            };
        })
  in
  (* One generator per directed link, derived from the spec seed and the
     link's identity only, so latency draws are independent of the global
     interleaving of sends. *)
  let links =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let l =
              match List.assoc_opt (i, j) spec.Spec.overrides with
              | Some l -> l
              | None -> spec.Spec.link
            in
            {
              l;
              jitter_mean = float_of_int l.Spec.jitter_ns;
              rng =
                Rng.create
                  ~seed:(Int64.add spec.Spec.seed (Int64.of_int (((i * n) + j + 1) * 0x9E3779B9)))
                  ();
              last_arrival = min_int;
            }))
  in
  {
    spec;
    offsets;
    node_tbl;
    q = Heap.create ();
    handler = (fun _ _ _ -> ());
    links;
    now_ = 0;
    sent_ = 0;
    delivered_ = 0;
    dropped_ = 0;
    pops_ = 0;
    restamps_ = 0;
  }

let spec t = t.spec
let nodes t = t.spec.Spec.nodes
let now t = t.now_
let sent t = t.sent_
let delivered t = t.delivered_
let dropped t = t.dropped_
let pops t = t.pops_
let restamps t = t.restamps_
let offset_truth t n = t.offsets.(n)
let node_machine t n = t.node_tbl.(n).machine
let on_message t f = t.handler <- f


(* Node reference clock: cluster time on the node's clock scale (its
   core-0 invariant clock).  Cross-node differences of [clock] are exactly
   the node offset differences, the quantity the composed boundary must
   cover. *)
let clock t n =
  t.now_ + Engine.clock_epoch - t.node_tbl.(n).machine.Machine.reset_ns.(0)

let check_node t n name =
  if n < 0 || n >= nodes t then invalid_arg (Printf.sprintf "Net.%s: bad node %d" name n)

let alive t n =
  check_node t n "alive";
  t.node_tbl.(n).alive

(* Crash-stop a node: deliveries and timers addressed to it — including
   events already in flight — are dropped when popped, because they carry
   the incarnation current at schedule time.  The node's engine state is
   untouched (a restarted process with a durable store); protocol-level
   amnesia is the service layer's concern. *)
let kill t n =
  check_node t n "kill";
  let nd = t.node_tbl.(n) in
  if nd.alive then begin
    nd.alive <- false;
    nd.incarnation <- nd.incarnation + 1;
    (* The deferred events now belong to a dead incarnation: put each back
       in the heap under its own key, to be dropped when it pops, as an
       in-flight event is.  The inbox's wake is left behind in the heap;
       [step] skips it because it no longer names the inbox head. *)
    let ib = nd.inbox in
    while ib.len > 0 do
      let time = key_time ib 0 and seq = key_seq ib 0 in
      Heap.push_seq t.q ~time ~seq (inbox_take ib)
    done;
    if Trace.enabled () then
      Trace.emit ~tid:n ~time:t.now_ Trace.Probe ~a:(Trace.intern "net.kill") ~b:n
        ~c:nd.incarnation
  end

let revive t n =
  check_node t n "revive";
  let nd = t.node_tbl.(n) in
  if not nd.alive then begin
    nd.alive <- true;
    nd.busy_until <- t.now_;
    if Trace.enabled () then
      Trace.emit ~tid:n ~time:t.now_ Trace.Probe ~a:(Trace.intern "net.revive") ~b:n
        ~c:nd.incarnation
  end

let at t ~node ~delay fn =
  check_node t node "at";
  if delay < 0 then invalid_arg "Net.at: negative delay";
  Heap.push t.q ~time:(t.now_ + delay) (Timer { node; inc = t.node_tbl.(node).incarnation; fn })

let send t ~src ~dst m =
  check_node t src "send";
  check_node t dst "send";
  let lk = t.links.(src).(dst) in
  let l = lk.l in
  let jitter = if l.Spec.jitter_ns = 0 then 0 else Rng.exponential_int lk.rng lk.jitter_mean in
  let flight = l.Spec.overhead_ns + l.Spec.base_ns + jitter in
  let arrive =
    match l.Spec.mode with
    | Spec.Reorder -> t.now_ + flight
    | Spec.Fifo ->
      let a = Int.max (t.now_ + flight) (lk.last_arrival + 1) in
      lk.last_arrival <- a;
      a
  in
  t.sent_ <- t.sent_ + 1;
  let id = t.sent_ in
  if Trace.enabled () then
    Trace.emit ~tid:src ~time:t.now_ Trace.Probe ~a:(Trace.intern "net.send") ~b:dst ~c:id;
  Heap.push t.q ~time:arrive
    (Deliver { node = dst; inc = t.node_tbl.(dst).incarnation; src; id; msg = m })

let fire t = function
  | Timer { fn; _ } -> fn ()
  | Deliver { node; src; id; msg; _ } ->
    t.delivered_ <- t.delivered_ + 1;
    if Trace.enabled () then
      Trace.emit ~tid:node ~time:t.now_ Trace.Probe ~a:(Trace.intern "net.recv") ~b:src ~c:id;
    t.handler src node msg

let busy t n ns =
  check_node t n "busy";
  if ns < 0 then invalid_arg "Net.busy: negative duration";
  let nd = t.node_tbl.(n) in
  nd.busy_until <- Int.max nd.busy_until t.now_ + ns

(* Deliveries and timers reaching a busy node wait in its inbox.  The
   order they run in is exactly the one a plain heap gives when each such
   event is popped and pushed back at [busy_until] with a fresh seq, once
   per event the node serves; the inbox reaches it without those pops:

   - An event popped for a busy node is appended to the inbox under the
     key the re-push would have given it: [(busy_until, fresh seq)].
   - The heap holds one wake per non-empty inbox, keyed by the head's own
     key, so the head pops exactly when its re-push would have.
   - When a wake pops, the head runs if the node is free; then [settle]
     replays the re-pushes the heap would have made next.  While the node
     is busy and the head's key is below every heap entry, the head is the
     next pop, so it is re-stamped to [(busy_until, fresh seq)] and moved to
     the tail without touching the heap.  The first head that is not
     re-stamped gets the wake at its own key: at [(now, seq)] when the
     node is still free, or as a stale wake at [(t, seq)] when another
     entry at the same instant [t] comes between.

   Keys stay ascending along the inbox because [busy_until] never moves
   back while the node is alive and fresh seqs only grow.  A native event
   that pops at the instant of a stale wake, runs and makes the node busy
   therefore sends the next deferred event to the tail, behind the stale
   head: that head re-stamps later, with a larger seq, as its re-push
   would.  Events addressed to a dead node — or to an incarnation that
   has since been killed — are dropped and counted.

   Full cycles.  Neither [busy_until] nor the heap minimum moves while
   [settle] re-stamps, and keys ascend, so if the tail passes the test
   every event before it does: each waiting event is re-stamped once, in
   order, to [(busy_until, s + i)] for consecutive fresh seqs [s + i], and
   the ring's order does not change.  [settle] then writes no per-event
   key: it stamps the whole inbox as one run [(busy_until, s, len)] in
   O(1) and wakes at [(busy_until, s)].  A run is a prefix of the ring
   ([inbox_take] advances it) and its seqs are a block no other key can
   fall inside, so a later partial cycle re-stamps all of a run or none
   of it; the per-event loop handles that case, reading run keys through
   [key_time]/[key_seq]. *)
let deferred t nd ~time ~seq =
  let qt = Heap.next_time t.q in
  nd.busy_until > time && (time < qt || (time = qt && seq < Heap.min_seq t.q))

let settle t nd =
  let ib = nd.inbox in
  if ib.len > 0 then begin
    let last = ib.len - 1 in
    if deferred t nd ~time:(key_time ib last) ~seq:(key_seq ib last) then begin
      ib.run_t <- nd.busy_until;
      ib.run_b <- Heap.reserve_seqs t.q ib.len;
      ib.run_n <- ib.len;
      t.restamps_ <- t.restamps_ + 1;
      Heap.push_seq t.q ~time:ib.run_t ~seq:ib.run_b ib.wake
    end
    else begin
      (* The tail fails the test, so this stops before the ring empties. *)
      let rec go () =
        let time = key_time ib 0 and seq = key_seq ib 0 in
        if deferred t nd ~time ~seq then begin
          inbox_push ib (inbox_take ib) ~time:nd.busy_until ~seq:(Heap.reserve_seq t.q);
          t.restamps_ <- t.restamps_ + 1;
          go ()
        end
        else Heap.push_seq t.q ~time ~seq ib.wake
      in
      go ()
    end
  end

let step t =
  if Heap.is_empty t.q then false
  else begin
    let time = Heap.next_time t.q and seq = Heap.min_seq t.q in
    let ev = Heap.pop_exn t.q in
    t.pops_ <- t.pops_ + 1;
    let nd = t.node_tbl.(ev_node ev) in
    let ib = nd.inbox in
    let inc = ev_inc ev in
    if inc = wake_inc then begin
      if ib.len > 0 && key_seq ib 0 = seq then begin
        if nd.busy_until <= time then begin
          let head = inbox_take ib in
          if time > t.now_ then t.now_ <- time;
          fire t head
        end;
        settle t nd
      end
    end
    else if (not nd.alive) || inc <> nd.incarnation then t.dropped_ <- t.dropped_ + 1
    else if nd.busy_until > time then begin
      let seq = Heap.reserve_seq t.q in
      inbox_push ib ev ~time:nd.busy_until ~seq;
      if ib.len = 1 then Heap.push_seq t.q ~time:nd.busy_until ~seq ib.wake
    end
    else begin
      if time > t.now_ then t.now_ <- time;
      fire t ev
    end;
    true
  end

let run t = while step t do () done

let run_node t n f =
  check_node t n "run_node";
  let nd = t.node_tbl.(n) in
  Engine.Instance.advance_to nd.inst t.now_;
  let before = Engine.Instance.timeline nd.inst in
  let r = Engine.Instance.scoped nd.inst (fun () -> f nd.machine) in
  let consumed = Engine.Instance.timeline nd.inst - before in
  if consumed > 0 then busy t n consumed;
  r

let default_cores (m : Machine.t) =
  let total = Topology.total_threads m.Machine.topo in
  if total <= 16 then List.init total Fun.id
  else
    let stride = max 1 (total / 16) in
    List.init total Fun.id
    |> List.filter (fun i -> i mod stride = 0)
    |> List.cons (total - 1)
    |> List.sort_uniq compare

let node_boundary ?(runs = 12) ?cores t n =
  run_node t n (fun machine ->
      let module E = (val Ordo_sim.Sim.exec machine) in
      let module B = Ordo_core.Boundary.Make (E) in
      let cores = match cores with Some c -> c | None -> default_cores machine in
      B.measure ~runs ~cores ())
