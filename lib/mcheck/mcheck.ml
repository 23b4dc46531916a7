(* Systematic interleaving exploration for Runtime_intf.S algorithms.

   Architecture (dscheck-shaped, restart-based): threads are effect-based
   fibers; every shared-memory operation performs a [Step] effect carrying
   a closure that executes the operation.  The scheduler owns the program
   counter — it picks one parked thread, runs its pending operation, and
   resumes the fiber until it parks on its next operation.  OCaml
   continuations are one-shot, so exploring a different interleaving
   replays the whole program from scratch under a recorded choice prefix;
   determinism of the targets (everything flows through cells) makes the
   replay exact.

   DPOR: per-step vector clocks give the happens-before of the executed
   trace; after each maximal run, every pair of nearest conflicting
   concurrent steps adds a backtrack choice at the earlier step's state
   (Flanagan–Godefroid), and sleep sets prune executions that only
   reorder independent steps.  [Exhaustive] mode disables both — it is
   the oracle the DPOR mode is compared against in the tests, and the
   honest denominator of the pruning-factor tables. *)

module Trace = Ordo_trace.Trace
module Hb = Ordo_analyze.Hb

(* ---- operation kinds ---- *)

let k_read = 0
let k_write = 1
let k_cas = 2
let k_fadd = 3
let k_xchg = 4
let k_fence = 5
let k_pause = 6

let kind_name = [| "read"; "write"; "cas"; "fetch_add"; "exchange"; "fence"; "pause" |]

(* CAS / fetch_add / exchange count as writes for conflict purposes even
   when they fail or write back the same value: treating a failed CAS as
   a read would under-approximate the dependency relation and make the
   pruning unsound. *)
let is_write k = k >= k_write && k <= k_xchg
let touches k = k <= k_xchg

(* ---- scheduler state ---- *)

type pending = { p_kind : int; p_cell : int; p_run : unit -> Obj.t }

type thr = {
  t_id : int;
  mutable t_cont : (Obj.t, unit) Effect.Deep.continuation option;
  mutable t_pend : pending option;
  mutable t_done : bool;
  mutable t_exn : exn option;
  mutable t_wait : int array;  (* [||] = runnable; else others' step counts at pause *)
  mutable t_steps : int;
  t_clock : int array;
}

type rt = {
  n : int;
  thr : thr array;
  mutable cur : int;  (* running thread, -1 = scheduler/init/prop *)
  mutable next_cell : int;
  mutable step_no : int;
  mutable pauses_no_write : int;  (* pause steps since the last write anywhere *)
  mutable livelock : bool;
  skew : int array;
  spin_bound : int;
  mutable tracing : bool;
  mutable cwr : int array array;  (* cell id -> clock of last write *)
  mutable crd : int array array;  (* cell id -> join of reads since *)
}

(* The exploration in progress on this domain (the bench harness may run
   independent experiments on several domains at once). *)
let key : rt option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let rt () =
  match !(Domain.DLS.get key) with
  | Some r -> r
  | None -> failwith "Mcheck.Runtime used outside Mcheck.check"

type _ Effect.t += Step : pending -> Obj.t Effect.t

(* ---- the controlled runtime ---- *)

module Runtime : Ordo_runtime.Runtime_intf.S = struct
  let name = "mcheck"

  type 'a cell = { mutable v : 'a; c_id : int }

  let cell v =
    let r = rt () in
    let id = r.next_cell in
    r.next_cell <- id + 1;
    { v; c_id = id }

  (* Inside a thread every operation is a scheduling point: park on the
     [Step] effect and let the scheduler run [p_run] at the chosen
     moment.  Outside (init, prop, combinators) there is no concurrency
     to order, so the operation executes directly. *)
  let op kind cell_id (run : unit -> 'a) : 'a =
    let r = rt () in
    if r.cur < 0 then run ()
    else
      Obj.magic
        (Effect.perform
           (Step { p_kind = kind; p_cell = cell_id; p_run = (fun () -> Obj.repr (run ())) }))

  let read c = op k_read c.c_id (fun () -> c.v)
  let write c x = op k_write c.c_id (fun () -> c.v <- x)

  let cas c old nw =
    op k_cas c.c_id (fun () -> if c.v == old then (c.v <- nw; true) else false)

  let fetch_add c d =
    op k_fadd c.c_id (fun () ->
        let v = c.v in
        c.v <- v + d;
        v)

  let exchange c x =
    op k_xchg c.c_id (fun () ->
        let v = c.v in
        c.v <- x;
        v)

  let tid () =
    let r = rt () in
    if r.cur < 0 then 0 else r.cur

  (* Ground-truth time is the global step counter; per-thread skew is the
     configured hazard.  Reading the clock is *not* a scheduling point —
     it touches no shared cell — so stamps order by the steps around
     them, exactly the pending-period view. *)
  let get_time () =
    let r = rt () in
    let id = if r.cur < 0 then 0 else r.cur in
    let v = r.step_no + r.skew.(id mod Array.length r.skew) in
    if r.tracing && Trace.enabled () then
      Trace.emit ~tid:id ~time:r.step_no Trace.Clock_read ~a:v ~b:0 ~c:0;
    v

  let now () = (rt ()).step_no
  let pause () = op k_pause (-1) (fun () -> ())
  let await_clock accept = Ordo_runtime.Runtime_intf.poll ~read:get_time ~pause accept
  let await_cell c accept = Ordo_runtime.Runtime_intf.poll ~read:(fun () -> read c) ~pause accept
  let work _ = ()
  let fence () = op k_fence (-1) (fun () -> ())

  let span_begin tag =
    let r = rt () in
    if r.tracing && Trace.enabled () then
      Trace.emit ~tid:(tid ()) ~time:r.step_no Trace.Span_begin ~a:(Trace.intern tag) ~b:0
        ~c:0

  let span_end tag =
    let r = rt () in
    if r.tracing && Trace.enabled () then
      Trace.emit ~tid:(tid ()) ~time:r.step_no Trace.Span_end ~a:(Trace.intern tag) ~b:0
        ~c:0

  let probe tag a b =
    let r = rt () in
    if r.tracing && Trace.enabled () then
      Trace.emit ~tid:(tid ()) ~time:r.step_no Trace.Probe ~a:(Trace.intern tag) ~b:a ~c:b
end

(* ---- configuration / results ---- *)

type mode = Dpor | Exhaustive | Bounded of int

type config = {
  mode : mode;
  max_interleavings : int;
  max_steps : int;
  spin_bound : int;
  skew : int array;
  seed : int;
}

let default =
  {
    mode = Dpor;
    max_interleavings = 2_000_000;
    max_steps = 100_000;
    spin_bound = 64;
    skew = [| 0 |];
    seed = 0;
  }

type stats = {
  interleavings : int;
  steps_total : int;
  sleep_pruned : int;
  budget_pruned : int;
  max_depth : int;
  preemption_bound : int option;
}

type step = { s_tid : int; s_kind : string; s_cell : int }

type violation = {
  reason : string;
  schedule : step array;
  pretty : string;
  switches : int;
}

type outcome = Verified of stats | Violation of violation * stats | Budget_exceeded of stats

(* ---- fiber machinery ---- *)

let mk_rt ~n ~cfg =
  {
    n;
    thr =
      Array.init n (fun i ->
          {
            t_id = i;
            t_cont = None;
            t_pend = None;
            t_done = false;
            t_exn = None;
            t_wait = [||];
            t_steps = 0;
            t_clock = Array.make n 0;
          });
    cur = -1;
    next_cell = 0;
    step_no = 0;
    pauses_no_write = 0;
    livelock = false;
    skew = (if Array.length cfg.skew = 0 then [| 0 |] else cfg.skew);
    spin_bound = cfg.spin_bound;
    tracing = false;
    cwr = [||];
    crd = [||];
  }

let handler (th : thr) : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> th.t_done <- true);
    exnc =
      (fun e ->
        th.t_exn <- Some e;
        th.t_done <- true);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Step p ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              th.t_pend <- Some p;
              th.t_cont <- Some (k : (Obj.t, unit) Effect.Deep.continuation))
        | _ -> None);
  }

(* Run a thread body until it parks on its first operation (or returns).
   Code before the first shared access is thread-private by the cost
   model, so running it eagerly at spawn commutes with everything. *)
let spawn r i fn arg =
  let th = r.thr.(i) in
  r.cur <- i;
  Effect.Deep.match_with (fun () -> fn arg) () (handler th);
  r.cur <- -1

let resume r i (v : Obj.t) =
  let th = r.thr.(i) in
  match th.t_cont with
  | None -> assert false
  | Some k ->
    th.t_cont <- None;
    r.cur <- i;
    Effect.Deep.continue k v;
    r.cur <- -1

(* CHESS-style fair yield: a paused thread re-enables once every other
   unfinished thread has taken a step since the pause. *)
let runnable r i =
  let th = r.thr.(i) in
  if th.t_done || th.t_pend = None then false
  else if Array.length th.t_wait = 0 then true
  else begin
    let ok = ref true in
    for j = 0 to r.n - 1 do
      if j <> i then begin
        let o = r.thr.(j) in
        if (not o.t_done) && o.t_steps <= th.t_wait.(j) then ok := false
      end
    done;
    if !ok then th.t_wait <- [||];
    !ok
  end

(* Mask of runnable threads.  When every unfinished thread is
   pause-blocked at once, all are released (the fairness tokens have
   done their job for this round).  Livelock/deadlock is detected
   globally: [spin_bound] pauses per thread without one write anywhere
   means nobody is making progress — in this tree every blocking
   construct is spin + pause over cells, so both a deadlocked barrier
   and a pair of threads spinning on each other surface exactly as a
   writeless run of pauses.  (Alternating spinners re-enable each other
   through the fairness rule and never reach the all-blocked state,
   which is why the all-blocked path alone cannot detect this; counting
   pauses rather than raw steps keeps long read-only straight-line code
   from tripping the verdict.) *)
let rec enabled_mask r =
  let m = ref 0 and unfinished = ref false in
  for i = 0 to r.n - 1 do
    if not r.thr.(i).t_done then unfinished := true;
    if runnable r i then m := !m lor (1 lsl i)
  done;
  if !unfinished && r.pauses_no_write > r.spin_bound * r.n then begin
    r.livelock <- true;
    0
  end
  else if !m = 0 && !unfinished then begin
    for i = 0 to r.n - 1 do
      r.thr.(i).t_wait <- [||]
    done;
    enabled_mask r
  end
  else !m

let join_into dst src =
  for i = 0 to Array.length dst - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let ensure_cell_clocks r cell =
  let len = Array.length r.cwr in
  if cell >= len then begin
    let len' = max 16 (max (cell + 1) (2 * len)) in
    let grow old = Array.init len' (fun i -> if i < len then old.(i) else Array.make r.n 0) in
    r.cwr <- grow r.cwr;
    r.crd <- grow r.crd
  end

(* Execute thread [i]'s pending operation, update clocks, resume the
   fiber to its next park.  Returns (kind, cell, clock snapshot). *)
let exec r i =
  let th = r.thr.(i) in
  let p = match th.t_pend with Some p -> p | None -> assert false in
  th.t_pend <- None;
  th.t_steps <- th.t_steps + 1;
  r.step_no <- r.step_no + 1;
  th.t_clock.(i) <- th.t_clock.(i) + 1;
  (* Snapshot *before* joining the cell's clocks: the DPOR race check
     must ask whether the thread already knew of the last conflicting
     access through other chains — the direct conflict edge being
     established right now must not count, or no pair ever looks
     concurrent and nothing backtracks. *)
  let pre = Array.copy th.t_clock in
  if p.p_cell >= 0 then begin
    ensure_cell_clocks r p.p_cell;
    join_into th.t_clock r.cwr.(p.p_cell);
    if is_write p.p_kind then join_into th.t_clock r.crd.(p.p_cell)
  end;
  let snap = Array.copy th.t_clock in
  if p.p_cell >= 0 then
    if is_write p.p_kind then begin
      r.cwr.(p.p_cell) <- snap;
      r.crd.(p.p_cell) <- Array.copy snap;
      r.pauses_no_write <- 0
    end
    else join_into r.crd.(p.p_cell) snap;
  if r.tracing && Trace.enabled () then
    Trace.emit ~tid:i ~time:r.step_no Trace.Probe ~a:(Trace.intern "mcheck.step")
      ~b:p.p_cell ~c:p.p_kind;
  if p.p_kind = k_pause then begin
    r.pauses_no_write <- r.pauses_no_write + 1;
    th.t_wait <- Array.init r.n (fun j -> r.thr.(j).t_steps);
    resume r i (Obj.repr ())
  end
  else resume r i (p.p_run ());
  (p.p_kind, p.p_cell, pre)

(* ---- one replay under a pluggable scheduler ---- *)

type rep_end = R_done | R_sleepblocked | R_livelock | R_steplimit

(* [pick r mask] returns the thread to run, or None to abandon the branch
   (sleep-set blocked / preemption budget).  [on_step] sees every
   executed step in order. *)
let run_replay ?(tracing = false) ~cfg ~init ~threads ~pick ~on_step ~prop () =
  let n = List.length threads in
  let r = mk_rt ~n ~cfg in
  r.tracing <- tracing;
  let slot = Domain.DLS.get key in
  let saved = !slot in
  slot := Some r;
  Fun.protect ~finally:(fun () -> slot := saved) @@ fun () ->
  let state = init () in
  List.iteri (fun i fn -> spawn r i fn state) threads;
  let stop = ref None in
  while !stop = None do
    if r.step_no >= cfg.max_steps then stop := Some R_steplimit
    else begin
      let m = enabled_mask r in
      if m = 0 then stop := Some (if r.livelock then R_livelock else R_done)
      else
        match pick r m with
        | None -> stop := Some R_sleepblocked
        | Some i ->
          let kind, cell, clock = exec r i in
          on_step r i kind cell clock
    end
  done;
  let e =
    Array.fold_left
      (fun acc th -> match acc with Some _ -> acc | None -> th.t_exn)
      None r.thr
  in
  let fin = Option.get !stop in
  (* The property may read cells, so it must run while this replay's
     runtime is still installed in the domain slot. *)
  let prop_ok = match (fin, e) with R_done, None -> prop state | _ -> true in
  (fin, state, e, r.step_no, prop_ok)

(* ---- the explorer ---- *)

type node = {
  mutable n_tid : int;
  mutable n_kind : int;
  mutable n_cell : int;
  mutable n_clock : int array;
  mutable n_enabled : int;
  mutable n_sleep : int;  (* sleep set on entry; explored choices accrue here *)
  mutable n_backtrack : int;
  mutable n_done : int;
  mutable n_pre : int;  (* preemptions along the prefix before this step *)
}

let fresh_node () =
  {
    n_tid = 0;
    n_kind = 0;
    n_cell = -1;
    n_clock = [||];
    n_enabled = 0;
    n_sleep = 0;
    n_backtrack = 0;
    n_done = 0;
    n_pre = 0;
  }

(* Lowest set bit of [mask], trying tids in seed-rotated order — the
   rotation varies the canonical interleaving without affecting
   soundness, which is what the determinism tests vary. *)
let pick_rotated ~seed ~n mask =
  let r = ref (-1) in
  (try
     for j = 0 to n - 1 do
       let c = (seed + j) mod n in
       if mask land (1 lsl c) <> 0 then begin
         r := c;
         raise Exit
       end
     done
   with Exit -> ());
  !r

let hb (a : node) (b : node) = a.n_clock.(a.n_tid) <= b.n_clock.(a.n_tid)

let dependent_step kind cell (p : pending) =
  touches kind && cell >= 0 && p.p_cell = cell && (is_write kind || is_write p.p_kind)

let count_switches (sched : step array) =
  let c = ref 0 in
  for i = 1 to Array.length sched - 1 do
    if sched.(i).s_tid <> sched.(i - 1).s_tid then incr c
  done;
  !c

let pretty_of ~reason (sched : step array) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "violation: %s\n" reason);
  Buffer.add_string b
    (Printf.sprintf "schedule (%d steps, %d context switches):\n" (Array.length sched)
       (count_switches sched));
  Array.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf "  %3d: t%d %-9s %s\n" i s.s_tid s.s_kind
           (if s.s_cell < 0 then "-" else "c" ^ string_of_int s.s_cell)))
    sched;
  Buffer.contents b

(* Replay under a recorded tid guide: entries whose thread is not
   currently runnable are skipped, and past the guide's end the run
   continues non-preemptively (prefer the last thread, then lowest tid).
   Returns (violation reason if any, the schedule actually executed). *)
let run_guided ~cfg ~init ~threads ~prop (guide : int array) =
  let pos = ref 0 and prev = ref (-1) in
  let sched = ref [] in
  let pick r m =
    let t = ref (-1) in
    while !t < 0 && !pos < Array.length guide do
      let g = guide.(!pos) in
      incr pos;
      if g >= 0 && g < r.n && m land (1 lsl g) <> 0 then t := g
    done;
    if !t < 0 then
      if !prev >= 0 && m land (1 lsl !prev) <> 0 then t := !prev
      else t := pick_rotated ~seed:0 ~n:r.n m;
    prev := !t;
    Some !t
  in
  let on_step _r i kind cell _clock =
    sched := { s_tid = i; s_kind = kind_name.(kind); s_cell = cell } :: !sched
  in
  let fin, state, exn, _steps, prop_ok =
    run_replay ~cfg ~init ~threads ~pick ~on_step ~prop ()
  in
  let reason =
    match (fin, exn) with
    | R_livelock, _ -> Some "livelock (no progress within spin bound)"
    | R_steplimit, _ -> Some "step limit exceeded"
    | _, Some e -> Some ("thread exception: " ^ Printexc.to_string e)
    | R_done, None -> if prop_ok then None else Some "property violated"
    | R_sleepblocked, None -> None
  in
  (reason, Array.of_list (List.rev !sched), state)

(* Greedy counterexample minimization: try to erase each context switch
   by letting the switched-away thread keep running (padding the guide
   with copies of it — disabled entries are skipped, so the pad means
   "as long as it can run").  Deterministic, and every accepted candidate
   must reproduce the same violation with strictly fewer switches. *)
let shrink ~cfg ~init ~threads ~prop ~reason (sched0 : step array) =
  let cur = ref sched0 in
  let improved = ref true and rounds = ref 0 in
  while !improved && !rounds < 200 do
    improved := false;
    incr rounds;
    let s = !cur in
    let len = Array.length s in
    let i = ref 0 in
    while (not !improved) && !i < len - 1 do
      if s.(!i).s_tid <> s.(!i + 1).s_tid then begin
        let t = s.(!i).s_tid in
        let guide =
          Array.concat
            [
              Array.init (!i + 1) (fun j -> s.(j).s_tid);
              Array.make (len - !i) t;
              Array.init (len - !i - 1) (fun j -> s.(!i + 1 + j).s_tid);
            ]
        in
        match run_guided ~cfg ~init ~threads ~prop guide with
        | Some reason', sched', _ when reason' = reason ->
          if count_switches sched' < count_switches !cur then begin
            cur := sched';
            improved := true
          end
        | _ -> ()
      end;
      incr i
    done
  done;
  !cur

let replay ~init ~threads ~schedule =
  let guide = Array.map (fun s -> s.s_tid) schedule in
  let _, _, state = run_guided ~cfg:default ~init ~threads ~prop:(fun _ -> true) guide in
  state

let replay_check ?(config = default) ~init ~threads ~prop ~schedule () =
  let guide = Array.map (fun s -> s.s_tid) schedule in
  let reason, _, _ = run_guided ~cfg:config ~init ~threads ~prop guide in
  reason

let render_trace ?(config = default) ~init ~threads ~schedule () =
  let guide = Array.map (fun s -> s.s_tid) schedule in
  Trace.start ~threads:(List.length threads) ();
  let cfg = config in
  let pos = ref 0 and prev = ref (-1) in
  let pick r m =
    let t = ref (-1) in
    while !t < 0 && !pos < Array.length guide do
      let g = guide.(!pos) in
      incr pos;
      if g >= 0 && g < r.n && m land (1 lsl g) <> 0 then t := g
    done;
    if !t < 0 then
      if !prev >= 0 && m land (1 lsl !prev) <> 0 then t := !prev
      else t := pick_rotated ~seed:0 ~n:r.n m;
    prev := !t;
    Some !t
  in
  ignore
    (run_replay ~tracing:true ~cfg ~init ~threads ~pick
       ~on_step:(fun _ _ _ _ _ -> ())
       ~prop:(fun _ -> true) ());
  Trace.stop ()

let check ?(config = default) ~init ~threads ~prop () =
  let n = List.length threads in
  if n < 1 then invalid_arg "Mcheck.check: need at least one thread";
  if n > 30 then invalid_arg "Mcheck.check: too many threads for the choice bitmasks";
  let cfg = config in
  let dpor = cfg.mode = Dpor in
  let bound = match cfg.mode with Bounded b -> Some b | _ -> None in
  (* The current DFS path; nodes persist across replays so backtrack /
     done / sleep survive, and are overwritten past the branch point. *)
  let nodes = ref (Array.init 64 (fun _ -> fresh_node ())) in
  let nlen = ref 0 in
  let node i =
    let a = !nodes in
    if i < Array.length a then a.(i)
    else begin
      let a' = Array.init (2 * max (i + 1) (Array.length a)) (fun _ -> fresh_node ()) in
      Array.blit a 0 a' 0 (Array.length a);
      nodes := a';
      a'.(i)
    end
  in
  let plen = ref 0 in
  let interleavings = ref 0 and steps_total = ref 0 in
  let sleep_pruned = ref 0 and budget_pruned = ref 0 and max_depth = ref 0 in
  let stats () =
    {
      interleavings = !interleavings;
      steps_total = !steps_total;
      sleep_pruned = !sleep_pruned;
      budget_pruned = !budget_pruned;
      max_depth = !max_depth;
      preemption_bound = bound;
    }
  in
  let result = ref None in
  while !result = None do
    if !interleavings + !sleep_pruned >= cfg.max_interleavings then
      result := Some (Budget_exceeded (stats ()))
    else begin
      (* ---- one replay along nodes[0 .. plen-1], then free ---- *)
      let depth = ref 0 in
      let cur_sleep = ref 0 and prev = ref (-1) and pre = ref 0 in
      let pick r m =
        let d = !depth in
        if d < !plen then begin
          (* replaying the committed prefix; the choice must replay
             enabled — the program is deterministic under the schedule *)
          let nd = node d in
          cur_sleep := nd.n_sleep;
          assert (m land (1 lsl nd.n_tid) <> 0);
          Some nd.n_tid
        end
        else begin
          let runnable = m land lnot !cur_sleep in
          if runnable = 0 then begin
            incr sleep_pruned;
            None
          end
          else begin
            let choice =
              match bound with
              | None -> Some (pick_rotated ~seed:cfg.seed ~n:r.n runnable)
              | Some b ->
                (* prefer staying on the same thread; any switch away
                   from a still-enabled thread costs one preemption *)
                if !prev >= 0 && runnable land (1 lsl !prev) <> 0 then Some !prev
                else if
                  !prev >= 0 && m land (1 lsl !prev) <> 0 && !pre >= b
                then begin
                  incr budget_pruned;
                  None
                end
                else Some (pick_rotated ~seed:cfg.seed ~n:r.n runnable)
            in
            match choice with
            | None -> None
            | Some t ->
              let nd = node d in
              nd.n_tid <- t;
              nd.n_enabled <- m;
              nd.n_sleep <- !cur_sleep;
              nd.n_done <- 0;
              nd.n_backtrack <- (if dpor then 1 lsl t else m);
              nd.n_pre <- !pre;
              Some t
          end
        end
      in
      let on_step r i kind cell clock =
        let d = !depth in
        let nd = node d in
        if d >= !plen then nd.n_pre <- !pre;
        nd.n_kind <- kind;
        nd.n_cell <- cell;
        nd.n_clock <- clock;
        (if !prev >= 0 && !prev <> i && nd.n_enabled land (1 lsl !prev) <> 0 then
           incr pre);
        prev := i;
        (* wake sleeping threads whose next operation depends on this step *)
        let s = ref (if d < !plen then nd.n_sleep else !cur_sleep) in
        for q = 0 to r.n - 1 do
          if !s land (1 lsl q) <> 0 then begin
            match r.thr.(q).t_pend with
            | Some p when dependent_step kind cell p -> s := !s land lnot (1 lsl q)
            | Some _ -> ()
            | None -> s := !s land lnot (1 lsl q)
          end
        done;
        cur_sleep := !s;
        incr depth
      in
      let fin, _state, exn, steps, prop_ok =
        run_replay ~cfg ~init ~threads ~pick ~on_step ~prop ()
      in
      nlen := !depth;
      steps_total := !steps_total + steps;
      if !depth > !max_depth then max_depth := !depth;
      let violation_reason =
        match (fin, exn) with
        | R_livelock, _ -> Some "livelock (no progress within spin bound)"
        | _, Some e -> Some ("thread exception: " ^ Printexc.to_string e)
        | R_done, None ->
          incr interleavings;
          if prop_ok then None else Some "property violated"
        | R_steplimit, None -> Some "step limit exceeded"
        | R_sleepblocked, None -> None
      in
      match violation_reason with
      | Some reason ->
        let sched0 =
          Array.init !nlen (fun i ->
              let nd = node i in
              { s_tid = nd.n_tid; s_kind = kind_name.(nd.n_kind); s_cell = nd.n_cell })
        in
        let sched = shrink ~cfg ~init ~threads ~prop ~reason sched0 in
        result :=
          Some
            (Violation
               ( {
                   reason;
                   schedule = sched;
                   pretty = pretty_of ~reason sched;
                   switches = count_switches sched;
                 },
                 stats () ))
      | None ->
        (* ---- DPOR race analysis over the executed trace ---- *)
        if dpor then begin
          for j = 0 to !nlen - 1 do
            let nj = node j in
            if touches nj.n_kind && nj.n_cell >= 0 then begin
              (* nearest earlier conflicting step by another thread *)
              let i = ref (j - 1) and found = ref (-1) in
              while !found < 0 && !i >= 0 do
                let ni = node !i in
                if
                  ni.n_cell = nj.n_cell
                  && ni.n_tid <> nj.n_tid
                  && (is_write ni.n_kind || is_write nj.n_kind)
                then found := !i;
                decr i
              done;
              if !found >= 0 then begin
                let ni = node !found in
                if not (hb ni nj) then begin
                  (* candidates: threads enabled before step i that are
                     (or happen-before) the later access *)
                  let cand = ref 0 in
                  if ni.n_enabled land (1 lsl nj.n_tid) <> 0 then
                    cand := 1 lsl nj.n_tid;
                  for k = !found + 1 to j do
                    let nk = node k in
                    if
                      ni.n_enabled land (1 lsl nk.n_tid) <> 0
                      && (k = j || hb nk nj)
                    then cand := !cand lor (1 lsl nk.n_tid)
                  done;
                  if !cand <> 0 then begin
                    (* FG: if some candidate is already scheduled for
                       exploration at this state (including the choice
                       being explored now), nothing to add; otherwise
                       add one candidate. *)
                    if
                      !cand land (ni.n_backtrack lor ni.n_done lor (1 lsl ni.n_tid)) = 0
                    then ni.n_backtrack <- ni.n_backtrack lor (!cand land - !cand)
                  end
                  else ni.n_backtrack <- ni.n_backtrack lor ni.n_enabled
                end
              end
            end
          done
        end;
        (* ---- backtrack to the deepest node with an unexplored choice ---- *)
        let d = ref (!nlen - 1) in
        let continue_at = ref (-1) in
        while !continue_at < 0 && !d >= 0 do
          let nd = node !d in
          nd.n_done <- nd.n_done lor (1 lsl nd.n_tid);
          if dpor then nd.n_sleep <- nd.n_sleep lor (1 lsl nd.n_tid);
          let avail = nd.n_backtrack land nd.n_enabled land lnot nd.n_done land lnot nd.n_sleep in
          let avail =
            match bound with
            | None -> avail
            | Some b ->
              (* drop choices whose switch would blow the budget *)
              let keep = ref 0 in
              for q = 0 to n - 1 do
                if avail land (1 lsl q) <> 0 then begin
                  let prev_tid = if !d = 0 then -1 else (node (!d - 1)).n_tid in
                  let cost =
                    if prev_tid >= 0 && q <> prev_tid && nd.n_enabled land (1 lsl prev_tid) <> 0
                    then 1
                    else 0
                  in
                  if nd.n_pre + cost <= b then keep := !keep lor (1 lsl q)
                  else incr budget_pruned
                end
              done;
              !keep
          in
          if avail <> 0 then begin
            let t = pick_rotated ~seed:cfg.seed ~n avail in
            nd.n_tid <- t;
            continue_at := !d
          end
          else decr d
        done;
        if !continue_at < 0 then result := Some (Verified (stats ()))
        else plen := !continue_at + 1
    end
  done;
  Option.get !result

(* ---- Ordo-aware property combinators ---- *)

module Stamps = struct
  (* observation = (value, ground-truth issue step, tid) — newest first.
     The issue step is reconstructed as [value - skew(tid)]: the clock
     was read somewhere inside the algorithm under test, possibly many
     scheduler steps before [observe] runs, and other threads may
     interleave in between — recording the observation step instead
     would flag those benign delays as contract violations. *)
  type t = { mutable xs : (int * int * int) list; mutable n : int }

  let create () = { xs = []; n = 0 }

  let observe t v =
    let r = rt () in
    let id = if r.cur < 0 then 0 else r.cur in
    let issued = v - r.skew.(id mod Array.length r.skew) in
    t.xs <- (v, issued, id) :: t.xs;
    t.n <- t.n + 1

  let count t = t.n

  (* Certain cmp_time verdicts must agree with ground-truth step order:
     a stamp certainly-after another was observed at a strictly later
     step.  Holds in every interleaving iff skew <= boundary. *)
  let ordo_consistent ~boundary t =
    let xs = Array.of_list t.xs in
    let ok = ref true in
    Array.iter
      (fun (v1, s1, _) ->
        Array.iter
          (fun (v2, s2, _) ->
            if Hb.cmp ~boundary v1 v2 = 1 && s1 <= s2 then ok := false)
          xs)
      xs;
    !ok

  let certainly_before ~boundary t i j =
    let xs = Array.of_list (List.rev t.xs) in
    let v1, _, _ = xs.(i) and v2, _, _ = xs.(j) in
    Hb.cmp ~boundary v1 v2 = -1
end

module Lin = struct
  (* (tid, op), in completion order *)
  type 'op t = { mutable ops : (int * 'op) list }

  let create () = { ops = [] }

  (* Outside a replay (unit-testing a sequential model) there is one
     implicit thread, so the history is recorded under tid 0. *)
  let record t op =
    let tid =
      match !(Domain.DLS.get key) with
      | Some r -> if r.cur < 0 then 0 else r.cur
      | None -> 0
    in
    t.ops <- (tid, op) :: t.ops

  let check t ~init ~step =
    let all = List.rev t.ops in
    let tids = List.sort_uniq compare (List.map fst all) in
    let seqs =
      List.map (fun tid -> Array.of_list (List.filter_map
        (fun (t', op) -> if t' = tid then Some op else None) all)) tids
    in
    let seqs = Array.of_list seqs in
    let k = Array.length seqs in
    let idx = Array.make k 0 in
    let rec go m =
      let finished = ref true and ok = ref false in
      for i = 0 to k - 1 do
        if (not !ok) && idx.(i) < Array.length seqs.(i) then begin
          finished := false;
          match step m seqs.(i).(idx.(i)) with
          | Some m' ->
            idx.(i) <- idx.(i) + 1;
            if go m' then ok := true;
            idx.(i) <- idx.(i) - 1
          | None -> ()
        end
      done;
      !finished || !ok
    in
    go init
end
