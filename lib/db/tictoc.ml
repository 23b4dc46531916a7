(** TicToc (Yu et al., SIGMOD'16) — data-driven timestamping: each tuple
    carries a write timestamp and a read-validity timestamp, and a
    transaction *computes* its commit timestamp from its footprint instead
    of allocating one from any clock.  Scales like Silo, but pays extra
    validation work (read-timestamp extensions), which is the 7%
    validation overhead the paper measures against OCC_ORDO in TPC-C. *)

(* TicToc's wts/rts are data-driven logical stamps, never read from a
   physical clock: raw integer ordering on them is the algorithm. *)
[@@@ordo_lint.allow "poly-compare"]

module Make (R : Ordo_runtime.Runtime_intf.S) : Cc_intf.S = struct
  let name = "tictoc"

  exception Abort

  (* Timestamp pair; replaced atomically as a whole (one cache line). *)
  type meta = { wts : int; rts : int; locked : bool }

  type row = { meta : meta R.cell; data : int R.cell }

  type ctx = {
    mutable rset : (row * meta) list;  (* row, meta observed at read *)
    wset : Txset.t;  (* write set only *)
    mutable commits : int;
    mutable aborts : int;
    rows : row array;
  }

  type t = { rows : row array; ctxs : ctx array }
  type tx = ctx

  let create ~threads ~rows () =
    if threads < 1 || rows < 1 then invalid_arg "Tictoc.create";
    let rows =
      Array.init rows (fun _ -> { meta = R.cell { wts = 0; rts = 0; locked = false }; data = R.cell 0 })
    in
    let ctx _ = { rset = []; wset = Txset.create (); commits = 0; aborts = 0; rows } in
    { rows; ctxs = Array.init threads ctx }

  let begin_tx t =
    let tx = t.ctxs.(R.tid ()) in
    tx.rset <- [];
    Txset.clear tx.wset;
    R.probe "tx.begin" 0 0;
    tx

  let fail (tx : ctx) =
    tx.rset <- [];
    Txset.clear tx.wset;
    tx.aborts <- tx.aborts + 1;
    R.probe "tx.abort" 0 0;
    raise Abort

  let max_lock_waits = 12

  let read (tx : ctx) key =
    let e = Txset.find tx.wset key in
    if e >= 0 then Txset.value tx.wset e
    else
      let row = tx.rows.(key) in
      let rec snapshot tries =
        let m1 = R.read row.meta in
        if m1.locked then
          if tries > 0 then begin
            R.pause ();
            snapshot (tries - 1)
          end
          else fail tx
        else begin
          let value = R.read row.data in
          let m2 = R.read row.meta in
          if m1 != m2 then if tries > 0 then snapshot (tries - 1) else fail tx
          else (m1, value)
        end
      in
      let m1, value = snapshot max_lock_waits in
      tx.rset <- (row, m1) :: tx.rset;
      R.probe "tx.read" key m1.wts;
      R.work Occ.tuple_work_ns;
      value

  let write (tx : ctx) key v = Txset.replace tx.wset key v

  let commit_tx (tx : ctx) =
    let locked = ref [] in
    let release () =
      List.iter (fun (row, prev) -> R.write row.meta prev) !locked
    in
    let try_lock key _ =
      let row = tx.rows.(key) in
      let m = R.read row.meta in
      if m.locked || not (R.cas row.meta m { m with locked = true }) then raise Exit;
      locked := (row, m) :: !locked
    in
    let abort () =
      release ();
      tx.aborts <- tx.aborts + 1;
      R.probe "tx.abort" 0 0;
      false
    in
    match Txset.iter_writes try_lock tx.wset with
    | exception Exit -> abort ()
    | () ->
      (* Commit timestamp from the footprint: after every rts in the
         write set, at or after every wts in the read set.  Walking the
         footprint to compute and re-check timestamps is TicToc's extra
         validation work (the ~7% the paper measures), charged per
         entry. *)
      let validation_work_ns = 28 in
      R.work (validation_work_ns * (List.length tx.rset + Txset.writes tx.wset));
      let commit_ts =
        List.fold_left (fun acc (_, m) -> max acc (m.rts + 1)) 0 !locked
        |> fun base -> List.fold_left (fun acc (_, m) -> max acc m.wts) base tx.rset
      in
      (* Validate reads; extend rts where needed. *)
      let rec validate_one row (seen : meta) tries =
        if commit_ts <= seen.rts then true
        else begin
          let cur = R.read row.meta in
          if cur.wts <> seen.wts then false
          else if cur.locked then
            (* Locked by someone else (our own locks are never in rset
               with a stale wts path: read-own-write hits the wset). *)
            List.exists (fun (r, _) -> r == row) !locked
          else if cur.rts >= commit_ts then true
          else if R.cas row.meta cur { cur with rts = commit_ts } then true
          else if tries > 0 then validate_one row seen (tries - 1)
          else false
        end
      in
      R.span_begin "tictoc.validate";
      let all_valid = List.for_all (fun (row, seen) -> validate_one row seen 3) tx.rset in
      R.span_end "tictoc.validate";
      if not all_valid then abort ()
      else begin
        Txset.iter_writes
          (fun key v ->
            let row = tx.rows.(key) in
            R.work Occ.tuple_work_ns;
            R.write row.data v;
            R.write row.meta { wts = commit_ts; rts = commit_ts; locked = false };
            R.probe "tx.install" key commit_ts)
          tx.wset;
        tx.commits <- tx.commits + 1;
        R.probe "tx.commit" commit_ts 0;
        true
      end

  let commit (tx : ctx) =
    R.span_begin "tictoc.commit";
    let ok = commit_tx tx in
    R.span_end "tictoc.commit";
    ok

  let sum t f = Array.fold_left (fun acc c -> acc + f c) 0 t.ctxs
  let stats_commits t = sum t (fun c -> c.commits)
  let stats_aborts t = sum t (fun c -> c.aborts)
end
