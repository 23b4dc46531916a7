(* Reference oracle for [Ordo_trace.Checker]: the checker as it was written
   first, over lists, kept only to be compared against.  It lists every
   clock read, rebuilds each transaction with a record copy per probe,
   looks a read's version up with a [List.filter] over the key's whole
   install list, and checks acyclicity by a recursive DFS over path
   lists.  Slow, but simple enough to read as the specification.

   [check] and [check_guard] return the report together with the
   conflict edges, as (commit_seq of the source, commit_seq of the
   target) pairs, so a test can confirm that a reported cycle is one. *)

module Trace = Ordo_trace.Trace
module Checker = Ordo_trace.Checker
module Hb = Ordo_analyze.Hb

let check_clock_reads ~boundary (events : Trace.event array) violations =
  let reads =
    Array.of_list
      (List.filter (fun (e : Trace.event) -> e.kind = Trace.Clock_read) (Array.to_list events))
  in
  let n = Array.length reads in
  let admitted = ref 0 in
  let max_val = ref min_int and max_ev = ref None in
  for i = 0 to n - 1 do
    let b = reads.(i) in
    let b_start = b.time - b.c in
    while !admitted < n && reads.(!admitted).time <= b_start do
      let a = reads.(!admitted) in
      if a.a > !max_val then begin
        max_val := a.a;
        max_ev := Some a
      end;
      incr admitted
    done;
    match !max_ev with
    | Some a when Hb.inverts ~boundary ~earlier:!max_val ~later:b.a ->
      violations :=
        Checker.Clock_inversion { earlier = a; later = b; delta = !max_val - b.a } :: !violations
    | _ -> ()
  done;
  n

let check_new_times ~boundary t (events : Trace.event array) violations =
  match Trace.find_tag t "ordo.new_time" with
  | None -> 0
  | Some tag ->
    let n = ref 0 in
    Array.iter
      (fun (e : Trace.event) ->
        if e.kind = Trace.Probe && e.a = tag then begin
          incr n;
          if not (Hb.certainly_after ~boundary e.c e.b) then
            violations :=
              Checker.New_time_short { tid = e.tid; time = e.time; arg = e.b; result = e.c }
              :: !violations
        end)
      events;
    !n

let reconstruct t (events : Trace.event array) =
  let tag name = Trace.find_tag t name in
  match tag "tx.begin" with
  | None -> ([], 0)
  | Some tg_begin ->
    let tg_read = tag "tx.read" and tg_install = tag "tx.install" in
    let tg_commit = tag "tx.commit" and tg_abort = tag "tx.abort" in
    let is tg (e : Trace.event) = match tg with Some id -> e.a = id | None -> false in
    let open_tx : (int, Checker.tx) Hashtbl.t = Hashtbl.create 16 in
    let committed = ref [] and aborted = ref 0 in
    Array.iter
      (fun (e : Trace.event) ->
        if e.kind = Trace.Probe then begin
          if e.a = tg_begin then
            Hashtbl.replace open_tx e.tid
              {
                Checker.tx_tid = e.tid;
                start_ts = e.b;
                commit_ts = 0;
                commit_seq = 0;
                commit_time = 0;
                reads = [];
                installs = [];
              }
          else
            match Hashtbl.find_opt open_tx e.tid with
            | None -> ()
            | Some tx ->
              if is tg_read e then
                Hashtbl.replace open_tx e.tid { tx with reads = (e.b, e.c) :: tx.reads }
              else if is tg_install e then
                Hashtbl.replace open_tx e.tid
                  { tx with installs = (e.b, e.c, e.seq) :: tx.installs }
              else if is tg_commit e then begin
                committed :=
                  { tx with commit_ts = e.b; commit_seq = e.seq; commit_time = e.time }
                  :: !committed;
                Hashtbl.remove open_tx e.tid
              end
              else if is tg_abort e then begin
                incr aborted;
                Hashtbl.remove open_tx e.tid
              end
        end)
      events;
    (List.rev !committed, !aborted)

let check_history ~bound_of (txs : Checker.tx list) violations =
  let txs = Array.of_list txs in
  let n = Array.length txs in
  let installs : (int, (int * int * int) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (tx : Checker.tx) ->
      List.iter
        (fun (key, ver, seq) ->
          let l = Option.value ~default:[] (Hashtbl.find_opt installs key) in
          Hashtbl.replace installs key ((ver, i, seq) :: l))
        tx.installs)
    txs;
  let by_key = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key l ->
      Hashtbl.replace by_key key (List.sort (fun (_, _, s1) (_, _, s2) -> compare s1 s2) l))
    installs;
  let ambiguous = ref 0 in
  let installer_of key ver =
    match Hashtbl.find_opt by_key key with
    | None -> None
    | Some l ->
      (match List.filter (fun (v, _, _) -> v = ver) l with
      | [ (_, i, _) ] -> Some i
      | [] -> None
      | _ ->
        incr ambiguous;
        None)
  in
  let successor_of key ver =
    match Hashtbl.find_opt by_key key with
    | None -> None
    | Some l ->
      if ver = 0 then (match l with (_, i, _) :: _ -> Some i | [] -> None)
      else if List.length (List.filter (fun (v, _, _) -> v = ver) l) > 1 then begin
        incr ambiguous;
        None
      end
      else
        let rec scan = function
          | (v, _, _) :: ((_, i2, _) :: _ as rest) -> if v = ver then Some i2 else scan rest
          | _ -> None
        in
        scan l
  in
  let edges : (int * int * int) list ref = ref [] in
  let add_edge u w key = if u <> w then edges := (u, w, key) :: !edges in
  Hashtbl.iter
    (fun key l ->
      let rec pairs = function
        | (_, u, _) :: ((_, w, _) :: _ as rest) ->
          add_edge u w key;
          pairs rest
        | _ -> ()
      in
      pairs l)
    by_key;
  Array.iteri
    (fun i (tx : Checker.tx) ->
      List.iter
        (fun (key, ver) ->
          (if ver <> 0 then
             match installer_of key ver with Some u -> add_edge u i key | None -> ());
          match successor_of key ver with Some w -> add_edge i w key | None -> ())
        tx.reads)
    txs;
  List.iter
    (fun (u, w, key) ->
      let b = bound_of txs.(u) txs.(w) in
      if Hb.inverts ~boundary:b ~earlier:txs.(u).commit_ts ~later:txs.(w).commit_ts then
        violations :=
          Checker.Edge_inversion { key; from_tx = txs.(u); to_tx = txs.(w) } :: !violations)
    !edges;
  let adj = Array.make n [] in
  List.iter (fun (u, w, _) -> adj.(u) <- w :: adj.(u)) !edges;
  let color = Array.make n 0 in
  let cycle = ref None in
  let rec dfs path u =
    if !cycle = None then
      if color.(u) = 1 then begin
        let rec take acc = function
          | [] -> acc
          | v :: _ when v = u -> v :: acc
          | v :: rest -> take (v :: acc) rest
        in
        cycle := Some (take [] path)
      end
      else if color.(u) = 0 then begin
        color.(u) <- 1;
        List.iter (dfs (u :: path)) adj.(u);
        color.(u) <- 2
      end
  in
  for u = 0 to n - 1 do
    dfs [] u
  done;
  (match !cycle with
  | Some nodes ->
    violations := Checker.Conflict_cycle (List.map (fun i -> txs.(i)) nodes) :: !violations
  | None -> ());
  let seqs = List.map (fun (u, w, _) -> (txs.(u).commit_seq, txs.(w).commit_seq)) !edges in
  (List.length !edges, !ambiguous, seqs)

let count_kind k (events : Trace.event array) =
  Array.fold_left (fun n (e : Trace.event) -> if e.kind = k then n + 1 else n) 0 events

let report ~boundary ~clock_reads ~new_times ~stamps t txs aborted (edges, ambiguous, seqs)
    violations =
  ( {
      Checker.boundary;
      clock_reads;
      new_times;
      stamps;
      hazards = count_kind Trace.Hazard t.Trace.events;
      guard_events = count_kind Trace.Guard t.Trace.events;
      committed = List.length txs;
      aborted;
      edges;
      ambiguous;
      violations = List.rev violations;
    },
    seqs )

let check ~boundary (t : Trace.t) =
  let violations = ref [] in
  let clock_reads = check_clock_reads ~boundary t.events violations in
  let new_times = check_new_times ~boundary t t.events violations in
  let txs, aborted = reconstruct t t.events in
  let history = check_history ~bound_of:(fun _ _ -> boundary) txs violations in
  report ~boundary ~clock_reads ~new_times ~stamps:0 t txs aborted history !violations

let guard_stamps (t : Trace.t) =
  match Trace.find_tag t Trace.tag_guard_ts with
  | None -> [||]
  | Some tag ->
    let last_read : (int, Trace.event) Hashtbl.t = Hashtbl.create 64 in
    let stamps = ref [] in
    Array.iter
      (fun (e : Trace.event) ->
        match e.kind with
        | Trace.Clock_read -> Hashtbl.replace last_read e.tid e
        | Trace.Guard when e.a = tag ->
          let start, completion =
            match Hashtbl.find_opt last_read e.tid with
            | Some (r : Trace.event) when r.a = e.b -> (r.time - r.c, r.time)
            | _ -> (e.time, e.time)
          in
          stamps := (start, completion, e) :: !stamps
        | _ -> ())
      t.events;
    let a = Array.of_list !stamps in
    Array.sort
      (fun (_, c1, (e1 : Trace.event)) (_, c2, (e2 : Trace.event)) ->
        if c1 <> c2 then compare c1 c2 else compare e1.seq e2.seq)
      a;
    a

let check_guard_stamps stamps violations =
  let n = Array.length stamps in
  let admitted = ref 0 in
  let max_val = ref min_int and max_ev = ref None in
  for i = 0 to n - 1 do
    let b_start, _, (b : Trace.event) = stamps.(i) in
    while
      !admitted < n
      && (let _, completion, _ = stamps.(!admitted) in
          completion <= b_start)
    do
      let _, _, (a : Trace.event) = stamps.(!admitted) in
      if a.b > !max_val then begin
        max_val := a.b;
        max_ev := Some a
      end;
      incr admitted
    done;
    match !max_ev with
    | Some a when Hb.inverts ~boundary:b.c ~earlier:!max_val ~later:b.b ->
      violations :=
        Checker.Stamp_inversion { earlier = a; later = b; delta = !max_val - b.b } :: !violations
    | _ -> ()
  done;
  n

let bound_timeline ~boundary0 (t : Trace.t) =
  let interesting tag = tag = Trace.tag_guard_bound || tag = Trace.tag_guard_remeasure in
  let changes =
    Array.to_list t.events
    |> List.filter_map (fun (e : Trace.event) ->
           match e.kind with
           | Trace.Guard when interesting (Trace.tag_name t e.a) -> Some (e.time, e.b)
           | _ -> None)
  in
  fun time ->
    List.fold_left (fun acc (at, b) -> if at <= time && b > acc then b else acc) boundary0 changes

let check_guard ~boundary (t : Trace.t) =
  let violations = ref [] in
  let bound_at = bound_timeline ~boundary0:boundary t in
  let stamps = check_guard_stamps (guard_stamps t) violations in
  let new_times = check_new_times ~boundary t t.events violations in
  let txs, aborted = reconstruct t t.events in
  let bound_of (u : Checker.tx) (w : Checker.tx) = bound_at (max u.commit_time w.commit_time) in
  let history = check_history ~bound_of txs violations in
  report ~boundary ~clock_reads:0 ~new_times ~stamps t txs aborted history !violations
