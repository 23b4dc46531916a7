(** Hekaton-style serializable optimistic MVCC (Larson et al., VLDB'11;
    Section 4.2 of the paper).

    Rows carry version chains stamped with [begin, end) timestamps.  A
    transaction allocates a begin timestamp when it starts and a commit
    timestamp when it commits, and validates its reads at the commit
    timestamp.  Both allocations hit the global clock in the original —
    the 4.1–31.1× collapse of Figure 13 — and become core-local with an
    Ordo source; visibility comparisons then go through [cmp] and abort
    conservatively inside the uncertainty window. *)

module Make (R : Ordo_runtime.Runtime_intf.S) (T : Ordo_core.Timestamp.S) : Cc_intf.S = struct
  module Order = Ordo_core.Timestamp.Order (T)

  let name = "hekaton-" ^ T.name

  exception Abort

  let max_versions = 4

  (* Multi-version bookkeeping (chain walk, dependency tracking) costs
     more per access than a single-version scheme — the reason the paper
     finds HEKATON_ORDO 1.2–1.3x behind the single-version OCC schemes. *)
  let mvcc_overhead_ns = 130

  type version = {
    vbegin : int;
    vend : int;  (** [max_int] = still current. *)
    value : int;
    owner : int;  (** Installing transaction's thread id, [-1] = committed. *)
  }

  type row = { lock : int R.cell; chain : version list R.cell (* newest first *) }

  type ctx = {
    tid : int;
    mutable start_ts : int;
    mutable rset : (row * version) list;  (* version observed *)
    mutable wlocked : (int * row) list;  (* key, row — locked, version appended *)
    wvals : Txset.t;  (* write set only *)
    mutable commits : int;
    mutable aborts : int;
    rows : row array;
  }

  type t = { rows : row array; ctxs : ctx array }
  type tx = ctx

  let create ~threads ~rows () =
    if threads < 1 || rows < 1 then invalid_arg "Hekaton.create";
    let initial = { vbegin = 0; vend = max_int; value = 0; owner = -1 } in
    let rows = Array.init rows (fun _ -> { lock = R.cell 0; chain = R.cell [ initial ] }) in
    let ctx tid =
      {
        tid;
        start_ts = 0;
        rset = [];
        wlocked = [];
        wvals = Txset.create ();
        commits = 0;
        aborts = 0;
        rows;
      }
    in
    { rows; ctxs = Array.init threads ctx }

  let begin_tx t =
    let tx = t.ctxs.(R.tid ()) in
    tx.start_ts <- T.after tx.start_ts;
    tx.rset <- [];
    tx.wlocked <- [];
    Txset.clear tx.wvals;
    R.probe "tx.begin" tx.start_ts 0;
    tx

  let unlock_all (tx : ctx) =
    List.iter
      (fun (_, row) ->
        (* Drop our uncommitted version and release. *)
        R.write row.chain (List.filter (fun v -> v.owner <> tx.tid) (R.read row.chain));
        R.write row.lock 0)
      tx.wlocked

  let abort (tx : ctx) =
    unlock_all tx;
    tx.rset <- [];
    tx.wlocked <- [];
    Txset.clear tx.wvals;
    tx.aborts <- tx.aborts + 1;
    R.probe "tx.abort" 0 0

  let fail (tx : ctx) =
    abort tx;
    raise Abort

  (* Visibility at [ts], skipping our own uncommitted versions.  Raises
     [Exit] when the answer depends on an uncertain comparison or on
     another transaction's uncommitted version. *)
  let visible_at tid chain ts =
    let visible v =
      if v.owner <> -1 then if v.owner = tid then false else raise Exit
      else begin
        let begun = Order.certainly_before v.vbegin ts in
        let begun_uncertain = (not begun) && T.cmp v.vbegin ts = 0 in
        if begun_uncertain then raise Exit;
        if not begun then false
        else if v.vend = max_int then true
        else begin
          let ended = Order.certainly_before v.vend ts in
          let ended_uncertain = (not ended) && T.cmp v.vend ts = 0 in
          if ended_uncertain then raise Exit;
          not ended
        end
      end
    in
    List.find_opt visible chain

  let read (tx : ctx) key =
    let e = Txset.find tx.wvals key in
    if e >= 0 then Txset.value tx.wvals e
    else
      let row = tx.rows.(key) in
      let chain = R.read row.chain in
      (match visible_at tx.tid chain tx.start_ts with
      | exception Exit -> fail tx
      | None -> fail tx
      | Some v ->
        tx.rset <- (row, v) :: tx.rset;
        R.probe "tx.read" key v.vbegin;
        R.work (Occ.tuple_work_ns + mvcc_overhead_ns);
        v.value)

  let write (tx : ctx) key value =
    if Txset.find tx.wvals key >= 0 then Txset.replace tx.wvals key value
    else begin
      let row = tx.rows.(key) in
      if not (R.cas row.lock 0 (tx.tid + 1)) then fail tx;
      (* Append the new version with a TID marker in its begin field. *)
      R.write row.chain
        ({ vbegin = max_int; vend = max_int; value; owner = tx.tid } :: R.read row.chain);
      tx.wlocked <- (key, row) :: tx.wlocked;
      Txset.replace tx.wvals key value
    end

  let commit_tx (tx : ctx) =
    let commit_ts = T.after tx.start_ts in
    (* Serializable validation: every read must still be the visible
       version at the commit timestamp. *)
    let valid (row, seen) =
      let chain = R.read row.chain in
      match visible_at tx.tid chain commit_ts with
      | exception Exit -> false
      | Some v -> v == seen
      | None -> false
    in
    R.span_begin "hekaton.validate";
    let all_valid = List.for_all valid tx.rset in
    R.span_end "hekaton.validate";
    if not all_valid then begin
      abort tx;
      false
    end
    else begin
      (* Install: stamp our versions, close the predecessors, prune. *)
      List.iter
        (fun (key, row) ->
          let value = Txset.value tx.wvals (Txset.find tx.wvals key) in
          let chain = R.read row.chain in
          let stamped =
            List.map
              (fun v ->
                if v.owner = tx.tid then { vbegin = commit_ts; vend = max_int; value; owner = -1 }
                else if v.vend = max_int && v.owner = -1 then { v with vend = commit_ts }
                else v)
              chain
          in
          let pruned = List.filteri (fun i _ -> i < max_versions) stamped in
          R.work (Occ.tuple_work_ns + mvcc_overhead_ns);
          R.write row.chain pruned;
          R.write row.lock 0;
          R.probe "tx.install" key commit_ts)
        tx.wlocked;
      tx.commits <- tx.commits + 1;
      R.probe "tx.commit" commit_ts 0;
      true
    end

  let commit (tx : ctx) =
    R.span_begin "hekaton.commit";
    let ok = commit_tx tx in
    R.span_end "hekaton.commit";
    ok

  let sum t f = Array.fold_left (fun acc c -> acc + f c) 0 t.ctxs
  let stats_commits t = sum t (fun c -> c.commits)
  let stats_aborts t = sum t (fun c -> c.aborts)
end
