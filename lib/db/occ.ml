(** Timestamp-ordered optimistic concurrency control (Kung–Robinson as
    implemented in DBx1000, the paper's Section 4.2 OCC).

    Every transaction — including a read-only one — allocates timestamps
    from the clock: one at begin, one at commit-validation.  With the
    logical source those are global fetch-and-adds, which is exactly the
    62–80% allocation overhead Figure 13 shows; the Ordo source replaces
    them with core-local [new_time]. *)

let tuple_work_ns = 150

module Make (R : Ordo_runtime.Runtime_intf.S) (T : Ordo_core.Timestamp.S) : Cc_intf.S = struct
  module Order = Ordo_core.Timestamp.Order (T)

  let name = "occ-" ^ T.name

  exception Abort

  module Rows = Txset.Rows (R)

  type ctx = {
    tid : int;
    mutable start_ts : int;
    fp : Txset.t;
    mutable commits : int;
    mutable aborts : int;
    rows : Rows.t;
  }

  type t = { rows : Rows.t; ctxs : ctx array }
  type tx = ctx

  let create ~threads ~rows () =
    if threads < 1 || rows < 1 then invalid_arg "Occ.create";
    let rows = Rows.create rows in
    let ctx tid = { tid; start_ts = 0; fp = Txset.create (); commits = 0; aborts = 0; rows } in
    { rows; ctxs = Array.init threads ctx }

  let begin_tx t =
    let tx = t.ctxs.(R.tid ()) in
    (* Timestamp allocation — the operation under study.  [after] only
       needs a stamp newer than this thread's previous transaction, so an
       Ordo source rarely waits (the previous transaction already took
       longer than the boundary); the logical source still pays its
       global fetch-and-add. *)
    tx.start_ts <- T.after tx.start_ts;
    Txset.clear tx.fp;
    R.probe "tx.begin" tx.start_ts 0;
    tx

  let fail (tx : ctx) =
    Txset.clear tx.fp;
    tx.aborts <- tx.aborts + 1;
    R.probe "tx.abort" 0 0;
    raise Abort

  (* A locked tuple is usually released within a commit's critical
     section; wait briefly before giving up (DBx1000 does the same). *)
  let max_lock_waits = 12

  let read (tx : ctx) key =
    let fp = tx.fp in
    let e = Txset.find fp key in
    if e >= 0 then Txset.value fp e
    else
      match Rows.snapshot tx.rows fp key max_lock_waits with
      | exception Exit -> fail tx
      | value ->
        R.probe "tx.read" key (Txset.read_ver fp (Txset.reads fp - 1));
        R.work tuple_work_ns;
        value

  let write (tx : ctx) key v = Txset.replace tx.fp key v

  (* Backward validation, newest read first: every read version must be
     unchanged and — conservatively, under an uncertain clock — certainly
     older than the commit timestamp (uncertainty aborts, Section 4.2). *)
  let rec valid_from (tx : ctx) commit_ts i =
    i < 0
    || Order.certainly_before (Txset.read_ver tx.fp i) commit_ts
       && Rows.unchanged tx.rows tx.fp tx.tid i
       && valid_from tx commit_ts (i - 1)

  let abort_commit (tx : ctx) =
    Rows.release tx.rows tx.fp;
    tx.aborts <- tx.aborts + 1;
    R.probe "tx.abort" 0 0;
    false

  let commit_tx (tx : ctx) =
    let fp = tx.fp in
    if not (Rows.lock_writes tx.rows fp tx.tid) then abort_commit tx
    else begin
      (* Commit timestamp: a second allocation for the logical clock; a
         plain local clock read under Ordo (Section 4.2). *)
      let commit_ts = if T.boundary = 0 then T.advance () else T.get () in
      R.span_begin "occ.validate";
      let all_valid = valid_from tx commit_ts (Txset.reads fp - 1) in
      R.span_end "occ.validate";
      if not all_valid then abort_commit tx
      else begin
        Txset.iter_writes
          (fun key v ->
            R.work tuple_work_ns;
            R.write (Rows.data tx.rows key) v;
            R.write (Rows.word tx.rows key) commit_ts;
            R.probe "tx.install" key commit_ts)
          fp;
        tx.commits <- tx.commits + 1;
        R.probe "tx.commit" commit_ts 0;
        true
      end
    end

  let commit (tx : ctx) =
    R.span_begin "occ.commit";
    let ok = commit_tx tx in
    R.span_end "occ.commit";
    ok

  let sum t f = Array.fold_left (fun acc c -> acc + f c) 0 t.ctxs
  let stats_commits t = sum t (fun c -> c.commits)
  let stats_aborts t = sum t (fun c -> c.aborts)
end
