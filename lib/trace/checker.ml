(* Offline ordering-invariant checker: replay a collected trace and verify
   Ordo's contract.

   Three invariants, from the paper's correctness argument (Section 3):

   1. [cmp_time] never inverts physical order: if clock read A completed
      before clock read B started (simulator reference time), then A's
      value must not be *certainly after* B's value — i.e. never
      [value_A > value_B + boundary].  A violation means the configured
      ORDO_BOUNDARY under-covers the machine's actual skew.
   2. [new_time t] returns a stamp strictly beyond the uncertainty
      window: [result > t + boundary] (probe tag "ordo.new_time").
   3. Committed transactional histories (probe tags "tx.*", emitted by
      the OCC/Hekaton/TL2 retrofits) are serializable in commit-timestamp
      order: the conflict graph over the traced read/write sets is
      acyclic, and no conflict edge runs from a certainly-later commit
      timestamp to a certainly-earlier one.

   Cost, for N events, I installs and E conflict edges: one pass over the
   events checks 1 and 2 on the spot, O(1) per clock read or new_time
   probe (guard stamps are sorted first, O(S log S) for S stamps), and
   logs what 3 needs in int buffers.  3 then costs O(I log I) to order
   each key's installs by seq and by version, O(log I) per committed
   read, and O(E) to judge the edges (O(E log B) against B guard bound
   changes) and to find a cycle by an iterative DFS. *)

(* The types are documented in checker.mli. *)
type tx = {
  tx_tid : int; start_ts : int; commit_ts : int; commit_seq : int; commit_time : int;
  reads : (int * int) list; installs : (int * int * int) list;
}

type violation =
  | Clock_inversion of { earlier : Trace.event; later : Trace.event; delta : int }
  | New_time_short of { tid : int; time : int; arg : int; result : int }
  | Stamp_inversion of { earlier : Trace.event; later : Trace.event; delta : int }
  | Edge_inversion of { key : int; from_tx : tx; to_tx : tx }
  | Conflict_cycle of tx list

type report = {
  boundary : int; clock_reads : int; new_times : int; stamps : int; hazards : int;
  guard_events : int; committed : int; aborted : int; edges : int; ambiguous : int;
  violations : violation list;
}

let ok r = r.violations = []

(* Uncertainty-window arithmetic is shared with the primitive and the
   dynamic race detector ([Ordo_analyze.Hb]) — the checker must judge
   inversions with exactly the comparison the stamps were issued under. *)
module Hb = Ordo_analyze.Hb

(* Int-keyed tables with a multiplicative hash: no C call per lookup. *)
module Itbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash x = (x * 0x9E3779B97F4A7C1) lsr 20
end)

(* A growable int array in chunks of 4096: growing never copies, and no
   more is allocated than is pushed (fresh memory is most of the cost on
   large traces).  The logs below keep fixed-width records in one. *)
type buf = { mutable chunks : int array array; mutable len : int }

let buf () = { chunks = [||]; len = 0 }
let[@inline] get b i = b.chunks.(i lsr 12).(i land 4095)

let[@inline] push b x =
  if b.len lsr 12 = Array.length b.chunks then
    b.chunks <- Array.append b.chunks [| Array.make 4096 0 |];
  b.chunks.(b.len lsr 12).(b.len land 4095) <- x;
  b.len <- b.len + 1

let push3 b x y z = push b x; push b y; push b z

(* The first p in [lo, hi) with [not (below p)], for [below] monotone. *)
let search lo hi below =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if below mid then lo := mid + 1 else hi := mid
  done;
  !lo

(* Counting sort of the items [0, n) with [key i >= 0] by key: key k's
   items are [order.(start.(k)) ..] up to [start.(k + 1)], in item order. *)
let bucket nk n key =
  let start = Array.make (nk + 1) 0 in
  for i = 0 to n - 1 do
    if key i >= 0 then start.(key i + 1) <- start.(key i + 1) + 1
  done;
  for k = 0 to nk - 1 do
    start.(k + 1) <- start.(k + 1) + start.(k)
  done;
  let order = Array.make start.(nk) 0 and fill = Array.sub start 0 nk in
  for i = 0 to n - 1 do
    if key i >= 0 then begin
      order.(fill.(key i)) <- i;
      fill.(key i) <- fill.(key i) + 1
    end
  done;
  (start, order)

(* ---- the one pass ---- *)

(* What a tag id means to the checker, resolved once per trace. *)
type role = Other | Begin | Read | Install | Commit | Abort | New_time | Stamp | Bound

let roles (t : Trace.t) =
  let r = Array.make (Array.length t.tags) Other in
  List.iter
    (fun (name, role) -> Option.iter (fun id -> r.(id) <- role) (Trace.find_tag t name))
    [
      ("tx.begin", Begin); ("tx.read", Read); ("tx.install", Install); ("tx.commit", Commit);
      ("tx.abort", Abort); ("ordo.new_time", New_time); (Trace.tag_guard_ts, Stamp);
      (Trace.tag_guard_bound, Bound); (Trace.tag_guard_remeasure, Bound);
    ];
  fun id -> if id >= 0 && id < Array.length r then r.(id) else Other

type scan = {
  mutable swept : violation list;  (* invariant 1's, newest first *)
  mutable short : violation list;  (* invariant 2's, newest first *)
  mutable clock_reads : int; mutable new_times : int; mutable hazards : int;
  mutable guard_events : int; mutable aborted : int;
  issued : buf;  (* guarded: event, start, completion of each guard.ts stamp *)
  bounds : buf;  (* guarded: time, bound in effect from then on *)
  keys : buf;  (* key of each dense key id *)
  begins : buf;  (* per tx slot: its tx.begin event *)
  reads : buf;  (* slot, key id, version *)
  installs : buf;  (* slot, key id, version, seq *)
  commits : buf;  (* slot, commit_ts, seq, time; in commit order *)
}

(* Invariant 1 on clock reads: each read B is judged against the reads
   that completed before B *started*; only their maximum value matters,
   so a two-pointer sweep in completion order with a running argmax is
   exact.  [admitted] walks the events, skipping all but clock reads; it
   may run ahead of the pass, over reads that completed at B's start.

   Transactions are rebuilt per tid, whose events keep emission order: a
   [tx.begin] opens a fresh slot (replacing any open one), and other tx
   probes on a tid with no open slot are ignored.

   Guarded runs check guard-issued stamps instead of raw clock reads.  A
   guard.ts stamp takes the window of the raw clock read just before it on
   its thread; a fallback-mode stamp (a logical counter, no such read)
   takes its emission instant, which can never flag.  The guard's bound
   only grows: each change is logged with the running maximum. *)
let scan ~guarded ~boundary (t : Trace.t) =
  let role = roles t and events = t.events in
  let s =
    {
      swept = []; short = []; clock_reads = 0; new_times = 0; hazards = 0; guard_events = 0;
      aborted = 0; issued = buf (); bounds = buf (); keys = buf (); begins = buf ();
      reads = buf (); installs = buf (); commits = buf ();
    }
  in
  let admitted = ref 0 and max_val = ref min_int and max_at = ref (-1) in
  let clock_read (b : Trace.event) =
    s.clock_reads <- s.clock_reads + 1;
    let start = b.time - b.c in
    while
      !admitted < Array.length events
      && (let a = events.(!admitted) in
          a.kind <> Trace.Clock_read || a.time <= start)
    do
      let a = events.(!admitted) in
      if a.kind = Trace.Clock_read && a.a > !max_val then begin
        max_val := a.a;
        max_at := !admitted
      end;
      incr admitted
    done;
    if !max_at >= 0 && Hb.inverts ~boundary ~earlier:!max_val ~later:b.a then
      s.swept <-
        Clock_inversion { earlier = events.(!max_at); later = b; delta = !max_val - b.a } :: s.swept
  in
  (* [open_tx.(tid)]: the tid's open tx slot, or -1.  Tids are ring
     indices, so non-negative; the array grows on demand. *)
  let open_tx = ref (Array.make 64 (-1)) in
  let open_slot tid = if tid < Array.length !open_tx then !open_tx.(tid) else -1 in
  let set_open tid slot =
    let n = Array.length !open_tx in
    if tid >= n then open_tx := Array.append !open_tx (Array.make (Int.max (tid + 1 - n) n) (-1));
    !open_tx.(tid) <- slot
  in
  let last_read = Itbl.create 64 and kids = Itbl.create 64 in
  let kid key =
    match Itbl.find kids key with
    | k -> k
    | exception Not_found ->
      Itbl.add kids key s.keys.len;
      push s.keys key;
      s.keys.len - 1
  in
  let probe i (e : Trace.event) =
    match role e.a with
    | Other | Stamp | Bound -> ()
    | New_time ->
      s.new_times <- s.new_times + 1;
      if not (Hb.certainly_after ~boundary e.c e.b) then
        s.short <- New_time_short { tid = e.tid; time = e.time; arg = e.b; result = e.c } :: s.short
    | Begin ->
      set_open e.tid s.begins.len;
      push s.begins i
    | (Read | Install | Commit | Abort) as r ->
      let slot = open_slot e.tid in
      if slot >= 0 then begin
        match r with
        | Read -> push3 s.reads slot (kid e.b) e.c
        | Install -> push3 s.installs slot (kid e.b) e.c; push s.installs e.seq
        | Commit -> push3 s.commits slot e.b e.seq; push s.commits e.time; set_open e.tid (-1)
        | _ -> s.aborted <- s.aborted + 1; set_open e.tid (-1)
      end
  in
  for i = 0 to Array.length events - 1 do
    let e = events.(i) in
    match e.kind with
    | Trace.Probe -> probe i e
    | Trace.Clock_read -> if guarded then Itbl.replace last_read e.tid i else clock_read e
    | Trace.Hazard -> s.hazards <- s.hazards + 1
    | Trace.Guard ->
      s.guard_events <- s.guard_events + 1;
      if guarded then begin
        match role e.a with
        | Stamp ->
          push s.issued i;
          (match Itbl.find last_read e.tid with
          | r when events.(r).a = e.b ->
            push s.issued (events.(r).time - events.(r).c);
            push s.issued events.(r).time
          | _ | (exception Not_found) -> push s.issued e.time; push s.issued e.time)
        | Bound ->
          let peak = if s.bounds.len = 0 then boundary else get s.bounds (s.bounds.len - 1) in
          push s.bounds e.time;
          push s.bounds (Int.max peak e.b)
        | _ -> ()
      end
    | _ -> ()
  done;
  s

(* Invariant 1 on guard stamps: the same sweep, over the stamps sorted by
   (completion, seq).  A stamp is judged against the boundary it was
   issued under (its [c]): sound because the guard only ever inflates
   the bound, so any comparison the application performs happens at or
   after the later issue, under a bound at least that large. *)
let sweep_stamps (events : Trace.event array) s =
  let d i = get s.issued i and n = s.issued.len / 3 in
  let order = Array.init n (fun k -> 3 * k) in
  Array.sort
    (fun i j ->
      let c = Int.compare (d (i + 2)) (d (j + 2)) in
      if c <> 0 then c else Int.compare events.(d i).seq events.(d j).seq)
    order;
  let admitted = ref 0 and max_val = ref min_int and max_at = ref (-1) in
  Array.iter
    (fun k ->
      let b = events.(d k) in
      while !admitted < n && d (order.(!admitted) + 2) <= d (k + 1) do
        let a = d order.(!admitted) in
        if events.(a).b > !max_val then begin
          max_val := events.(a).b;
          max_at := a
        end;
        incr admitted
      done;
      if !max_at >= 0 && Hb.inverts ~boundary:b.c ~earlier:!max_val ~later:b.b then
        s.swept <-
          Stamp_inversion { earlier = events.(!max_at); later = b; delta = !max_val - b.b }
          :: s.swept)
    order;
  n

(* ---- invariant 3: commit-timestamp-order serializability ---- *)

(* [bound_at time] gives the boundary to test a conflict edge against,
   at the later of its two commits — constant for plain checks, the
   inflated bound then in effect for guarded checks. *)
let history ~bound_at (events : Trace.event array) s violations =
  let n = s.commits.len / 4 and cm c j = get s.commits ((4 * c) + j) in
  let commit_of = Array.make s.begins.len (-1) in
  for c = 0 to n - 1 do
    commit_of.(cm c 0) <- c
  done;
  (* Installs [i] of committed txs, grouped by key id k into segments
     [kstart.(k), kstart.(k + 1)) of [by_seq] (install order) and [by_ver]
     (version, then seq). *)
  let ins i j = get s.installs ((4 * i) + j) in
  let itx i = commit_of.(ins i 0) and m = s.installs.len / 4 and nk = s.keys.len in
  let kstart, by_seq = bucket nk m (fun i -> if itx i >= 0 then ins i 1 else -1) in
  (* Stable-sort each segment by field [j]; installs come in trace order,
     which is almost always that order already. *)
  let order_segments a j =
    for k = 0 to nk - 1 do
      let lo = kstart.(k) and hi = kstart.(k + 1) in
      let p = ref (lo + 1) in
      while !p < hi && ins a.(!p - 1) j <= ins a.(!p) j do
        incr p
      done;
      if !p < hi then begin
        let seg = Array.sub a lo (hi - lo) in
        Array.stable_sort (fun x y -> Int.compare (ins x j) (ins y j)) seg;
        Array.blit seg 0 a lo (hi - lo)
      end
    done
  in
  order_segments by_seq 3;
  let by_ver = Array.copy by_seq in
  order_segments by_ver 2;
  let rd r j = get s.reads ((3 * r) + j) in
  let txs =
    lazy
      (let rs = Array.make n [] and is = Array.make n [] in
       for r = 0 to (s.reads.len / 3) - 1 do
         let c = commit_of.(rd r 0) in
         if c >= 0 then rs.(c) <- (get s.keys (rd r 1), rd r 2) :: rs.(c)
       done;
       for i = 0 to m - 1 do
         let c = itx i in
         if c >= 0 then is.(c) <- (get s.keys (ins i 1), ins i 2, ins i 3) :: is.(c)
       done;
       Array.init n (fun c ->
           let b = events.(get s.begins (cm c 0)) in
           { tx_tid = b.tid; start_ts = b.b; commit_ts = cm c 1; commit_seq = cm c 2;
             commit_time = cm c 3; reads = rs.(c); installs = is.(c) }))
  in
  let tx c = (Lazy.force txs).(c) in
  (* Each conflict edge u -> w on key id k between distinct txs is logged
     for the cycle check, and its timestamp order judged on the spot. *)
  let edges = buf () and ambiguous = ref 0 in
  let add_edge u w k =
    if u <> w then begin
      push edges u;
      push edges w;
      let b = bound_at (Int.max (cm u 3) (cm w 3)) in
      if Hb.inverts ~boundary:b ~earlier:(cm u 1) ~later:(cm w 1) then
        violations :=
          Edge_inversion { key = get s.keys k; from_tx = tx u; to_tx = tx w } :: !violations
    end
  in
  (* WW: consecutive installs of the same key.  [next] is the tx of the
     install that overwrote each install (-1 for a key's last). *)
  let next = Array.make m (-1) in
  for k = 0 to nk - 1 do
    for p = kstart.(k) to kstart.(k + 1) - 2 do
      next.(by_seq.(p)) <- itx by_seq.(p + 1);
      add_edge (itx by_seq.(p)) (itx by_seq.(p + 1)) k
    done
  done;
  let ver_of = Array.map (fun i -> ins i 2) by_ver in
  (* WR and RW edges from each committed read.  A read of [ver] links
     from its unique installer and to the install that overwrote it; a
     version installed more than once is ambiguous, once per lookup.
     ver = 0 is the unborn initial version, overwritten by the first
     install. *)
  for r = 0 to (s.reads.len / 3) - 1 do
    let c = commit_of.(rd r 0) and k = rd r 1 and ver = rd r 2 in
    let lo = kstart.(k) and hi = kstart.(k + 1) in
    if c >= 0 && lo < hi then begin
      let first = search lo hi (fun p -> ver_of.(p) < ver) in
      let last = search first hi (fun p -> ver_of.(p) = ver) in
      if ver = 0 then add_edge c (itx by_seq.(lo)) k
      else if last - first > 1 then ambiguous := !ambiguous + 2
      else if last - first = 1 then begin
        add_edge (itx by_ver.(first)) c k;
        if next.(by_ver.(first)) >= 0 then add_edge c next.(by_ver.(first)) k
      end
    end
  done;
  (* Acyclicity: iterative DFS over the edges in compressed sparse rows,
     first cycle reported.  The gray nodes are exactly the stack. *)
  let off, adj = bucket n (edges.len / 2) (fun x -> get edges (2 * x)) in
  let cur = Array.copy off in
  let color = Array.make n 0 and stack = Array.make n 0 and sp = ref 0 and cycle = ref None in
  let enter u =
    color.(u) <- 1;
    stack.(!sp) <- u;
    incr sp
  in
  for root = 0 to n - 1 do
    if Option.is_none !cycle && color.(root) = 0 then enter root;
    while !sp > 0 && Option.is_none !cycle do
      let u = stack.(!sp - 1) in
      if cur.(u) = off.(u + 1) then begin
        color.(u) <- 2;
        decr sp
      end
      else begin
        let w = get edges ((2 * adj.(cur.(u))) + 1) in
        cur.(u) <- cur.(u) + 1;
        if color.(w) = 0 then enter w
        else if color.(w) = 1 then begin
          let from = ref (!sp - 1) in
          while stack.(!from) <> w do
            decr from
          done;
          cycle := Some (List.init (!sp - !from) (fun j -> tx stack.(!from + j)))
        end
      end
    done
  done;
  Option.iter (fun txs -> violations := Conflict_cycle txs :: !violations) !cycle;
  (n, edges.len / 2, !ambiguous)

(* Both checks share the pass and the history check; the violations come
   out as invariant 1's, then invariant 2's, then invariant 3's. *)
let run ~guarded ~boundary (t : Trace.t) =
  if boundary < 0 then
    invalid_arg ("Checker." ^ (if guarded then "check_guard" else "check") ^ ": negative boundary");
  let s = scan ~guarded ~boundary t in
  let stamps = if guarded then sweep_stamps t.events s else 0 in
  let violations = ref (s.short @ s.swept) in
  let bound_at at =
    (* the running maximum at the last bound change at or before [at] *)
    let nb = s.bounds.len / 2 in
    let k = if nb = 0 then 0 else search 0 nb (fun k -> get s.bounds (2 * k) <= at) in
    if k = 0 then boundary else get s.bounds ((2 * k) - 1)
  in
  let committed, edges, ambiguous = history ~bound_at t.events s violations in
  { boundary; clock_reads = s.clock_reads; new_times = s.new_times; stamps; hazards = s.hazards;
    guard_events = s.guard_events; committed; aborted = s.aborted; edges; ambiguous;
    violations = List.rev !violations }

let check ~boundary t = run ~guarded:false ~boundary t
let check_guard ~boundary t = run ~guarded:true ~boundary t

(* ---- reporting ---- *)

let describe_violation = function
  | Clock_inversion { earlier; later; delta } ->
    Printf.sprintf
      "clock inversion: core %d read %d at vt=%d, then core %d read %d at vt=%d — the earlier \
       read is ahead by %d ns (> boundary); cmp_time would invert this happens-before edge"
      earlier.Trace.tid earlier.Trace.a earlier.Trace.time later.Trace.tid later.Trace.a
      later.Trace.time delta
  | New_time_short { tid; time; arg; result } ->
    Printf.sprintf
      "new_time too small: core %d at vt=%d returned %d for new_time(%d) — not strictly beyond \
       t + boundary" tid time result arg
  | Stamp_inversion { earlier; later; delta } ->
    Printf.sprintf
      "stamp inversion: core %d was issued %d at vt=%d, then core %d was issued %d at vt=%d — \
       the earlier stamp is ahead by %d ns, beyond even the guard's inflated bound (%d ns)"
      earlier.Trace.tid earlier.Trace.b earlier.Trace.time later.Trace.tid later.Trace.b
      later.Trace.time delta later.Trace.c
  | Edge_inversion { key; from_tx; to_tx } ->
    Printf.sprintf
      "commit-order inversion on key %d: tx(core %d, commit_ts %d) conflicts-into tx(core %d, \
       commit_ts %d) yet its timestamp is certainly later"
      key from_tx.tx_tid from_tx.commit_ts to_tx.tx_tid to_tx.commit_ts
  | Conflict_cycle txs ->
    Printf.sprintf "conflict cycle over %d committed txs: %s" (List.length txs)
      (String.concat " -> "
         (List.map (fun tx -> Printf.sprintf "(core %d, ts %d)" tx.tx_tid tx.commit_ts) txs))

let describe (r : report) =
  let reads =
    if r.stamps > 0 then Printf.sprintf "%d guard stamps" r.stamps
    else Printf.sprintf "%d clock reads" r.clock_reads
  in
  let hazards =
    if r.hazards > 0 || r.guard_events > 0 then
      Printf.sprintf " [%d hazards, %d guard events]" r.hazards r.guard_events
    else ""
  in
  Printf.sprintf
    "checked %s, %d new_time calls, %d committed txs (%d aborted, %d conflict \
     edges, %d ambiguous) against boundary %d ns%s: %s"
    reads r.new_times r.committed r.aborted r.edges r.ambiguous r.boundary hazards
    (if ok r then "OK" else Printf.sprintf "%d VIOLATIONS" (List.length r.violations))
  :: List.map describe_violation r.violations
