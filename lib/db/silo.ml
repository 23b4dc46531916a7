(** Silo-style epoch OCC (Tu et al., SOSP'13) — the scalable baseline that
    avoids a global timestamp counter: transaction ids are derived locally
    from the ids observed in the footprint plus a coarse epoch that a
    single thread advances periodically, so the only shared clock state is
    a read-mostly epoch word. *)

module Make (R : Ordo_runtime.Runtime_intf.S) : Cc_intf.S = struct
  let name = "silo"

  exception Abort

  (* How many commits by thread 0 between epoch bumps (stands in for the
     40 ms epoch ticker of the original). *)
  let epoch_period = 512
  let epoch_shift = 40

  module Rows = Txset.Rows (R)

  type ctx = {
    tid : int;
    fp : Txset.t;
    mutable last_tid : int;
    mutable commits : int;
    mutable aborts : int;
    rows : Rows.t;  (* each version word holds the row's last writer's TID *)
    epoch : int R.cell;
  }

  type t = { rows : Rows.t; ctxs : ctx array; epoch : int R.cell }
  type tx = ctx

  let create ~threads ~rows () =
    if threads < 1 || rows < 1 then invalid_arg "Silo.create";
    let epoch = R.cell 1 in
    let rows = Rows.create rows in
    let ctx tid =
      { tid; fp = Txset.create (); last_tid = 0; commits = 0; aborts = 0; rows; epoch }
    in
    { rows; ctxs = Array.init threads ctx; epoch }

  let begin_tx t =
    let tx = t.ctxs.(R.tid ()) in
    Txset.clear tx.fp;
    tx

  let fail (tx : ctx) =
    Txset.clear tx.fp;
    tx.aborts <- tx.aborts + 1;
    raise Abort

  let max_lock_waits = 12

  let read (tx : ctx) key =
    let fp = tx.fp in
    let e = Txset.find fp key in
    if e >= 0 then Txset.value fp e
    else
      match Rows.snapshot tx.rows fp key max_lock_waits with
      | exception Exit -> fail tx
      | value ->
        R.work Occ.tuple_work_ns;
        value

  let write (tx : ctx) key v = Txset.replace tx.fp key v

  let rec valid_from (tx : ctx) i =
    i < 0 || (Rows.unchanged tx.rows tx.fp tx.tid i && valid_from tx (i - 1))

  let abort_commit (tx : ctx) =
    Rows.release tx.rows tx.fp;
    tx.aborts <- tx.aborts + 1;
    false

  (* Only spans here: Silo's epoch-based TIDs order conflicting writes but
     not anti-dependencies, so they are not commit timestamps in the
     checker's sense — emitting tx.* probes would produce false
     edge-inversion reports. *)
  let commit_tx (tx : ctx) =
    let fp = tx.fp in
    if not (Rows.lock_writes tx.rows fp tx.tid) then abort_commit tx
    else begin
      (* Serialization point: a plain read of the epoch word. *)
      let epoch = R.read tx.epoch in
      if not (valid_from tx (Txset.reads fp - 1)) then abort_commit tx
      else begin
        (* Local TID generation: no shared counter involved. *)
        let commit_tid = max (Txset.max_seen fp tx.last_tid + 1) (epoch lsl epoch_shift) in
        tx.last_tid <- commit_tid;
        Txset.iter_writes
          (fun key v ->
            R.work Occ.tuple_work_ns;
            R.write (Rows.data tx.rows key) v;
            R.write (Rows.word tx.rows key) commit_tid)
          fp;
        tx.commits <- tx.commits + 1;
        if tx.tid = 0 && tx.commits mod epoch_period = 0 then
          R.write tx.epoch (R.read tx.epoch + 1);
        true
      end
    end

  let commit (tx : ctx) =
    R.span_begin "silo.commit";
    let ok = commit_tx tx in
    R.span_end "silo.commit";
    ok

  let sum t f = Array.fold_left (fun acc c -> acc + f c) 0 t.ctxs
  let stats_commits t = sum t (fun c -> c.commits)
  let stats_aborts t = sum t (fun c -> c.aborts)
end
