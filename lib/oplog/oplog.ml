module Make (R : Ordo_runtime.Runtime_intf.S) (T : Ordo_core.Timestamp.S) = struct
  module Lock = Ordo_runtime.Mcs.Make (R)
  module Kmerge = Ordo_util.Kmerge

  (* Per-core logs are chunked arenas, not cons lists: timestamps live in
     an unboxed int array and payloads beside them, so an append writes
     two slots and publishes by swinging the core's descriptor — the same
     one-read-one-CAS protocol (and the same CAS-vs-drain conflict window
     the race detector certified) as the list version, with the cons cell
     and per-entry record gone.

     Publication is the CAS itself: [used] lives in the *immutable*
     descriptor, so a drain that wins the race sees exactly the entries
     published before its exchange.  The loser's slot write is an orphan
     one index past the drained [used] — never read, overwritten when the
     chunk is recycled.  (A mutable fill counter inside the chunk would
     break this: incremented before a failing CAS it double-counts,
     incremented after a succeeding one it can be missed.)

     Chunks are free-listed through the descriptor: a drain donates one
     empty chunk via [spare], so steady-state appending allocates only
     the 4-word descriptor per entry and nothing per chunk.  Recycled
     payload slots may retain stale references until overwritten — at
     most two chunks per core, the usual price of a polymorphic arena. *)

  let chunk_cap = 256

  type 'a chunk = { tss : int array; ops : 'a array }

  type 'a desc = {
    chunks : 'a chunk list;  (* newest first; all but the head are full *)
    used : int;  (* filled slots of the head chunk; 0 when [chunks = []] *)
    spare : 'a chunk option;  (* recycled empty chunk for the next grow *)
  }

  type 'a t = {
    logs : 'a desc R.cell array;  (* one line per core *)
    last_ts : int array;  (* per-thread last stamp, thread-private *)
    recycle : 'a chunk option array;  (* drained chunks, drainer-only (under lock) *)
    lock : Lock.t;
  }

  let empty_desc = { chunks = []; used = 0; spare = None }

  let create ~threads () =
    if threads < 1 then invalid_arg "Oplog.create: threads must be >= 1";
    {
      logs = Array.init threads (fun _ -> R.cell empty_desc);
      last_ts = Array.make threads 0;
      recycle = Array.make threads None;
      lock = Lock.create ();
    }

  (* Append must be atomic against [synchronize]'s drain: the CAS compares
     the descriptor physically, so an interleaved exchange forces a retry
     (re-reading the fresh descriptor and re-writing the slot there). *)
  let rec push cell ts op =
    let d = R.read cell in
    let d' =
      match d.chunks with
      | c :: _ when d.used < chunk_cap ->
        c.tss.(d.used) <- ts;
        c.ops.(d.used) <- op;
        { d with used = d.used + 1 }
      | _ ->
        let c =
          match d.spare with
          | Some c -> c
          | None -> { tss = Array.make chunk_cap 0; ops = Array.make chunk_cap op }
        in
        c.tss.(0) <- ts;
        c.ops.(0) <- op;
        { chunks = c :: d.chunks; used = 1; spare = None }
    in
    if not (R.cas cell d d') then push cell ts op

  let append t op =
    let core = R.tid () in
    let ts = T.after t.last_ts.(core) in
    t.last_ts.(core) <- ts;
    push t.logs.(core) ts op;
    R.probe "oplog.append" ts core

  (* The merged order is ascending (ts, core) — ties inside the
     uncertainty window resolve by core id, as in the original OpLog —
     and equal stamps on one core apply in append order.  That is the
     order of a stable sort by stamp of the core-major concatenation of
     the logs (what the original list code did), so the merge keys each
     entry by (ts, its position in that concatenation).

     Per-core stamp sequences are ascending for any well-behaved source
     ([T.after] returns something newer than its argument), but
     [Timestamp.Raw] ignores its argument and reads the hardware clock,
     which under a fault scenario can step backwards — so sortedness is
     a property to check, not assume.  Each chunk enters the merge as
     one run per ascending stretch, cut wherever its stamp steps back.
     Cuts and keys compare the raw stamps as plain ints, a deliberate
     total order, not an uncertainty-aware [T.cmp]. *)

  (* Slots [next, stop) of one chunk of [core]'s drained log; [base] is
     the position of the chunk's slot 0 in the core-major concatenation. *)
  type 'a run = {
    core : int;
    tss : int array;
    ops : 'a array;
    base : int;
    mutable next : int;
    stop : int;
  }

  let synchronize t ~apply =
    Lock.with_lock t.lock @@ fun () ->
    R.span_begin "oplog.merge";
    let k = Array.length t.logs in
    (* Drain every core in index order (one exchange per core, as
       before), donating last cycle's recycled chunk as the new spare. *)
    let drained = Array.make k empty_desc in
    for core = 0 to k - 1 do
      let fresh =
        match t.recycle.(core) with
        | None -> empty_desc
        | Some _ as spare ->
          t.recycle.(core) <- None;
          { chunks = []; used = 0; spare }
      in
      drained.(core) <- R.exchange t.logs.(core) fresh
    done;
    (* Each chunk's filled slots, cut wherever the stamp steps back. *)
    let runs = ref [] and total = ref 0 in
    let cut core (c : _ chunk) base len =
      let stop = ref len in
      for i = len - 1 downto 1 do
        if c.tss.(i) < c.tss.(i - 1) then begin
          runs := { core; tss = c.tss; ops = c.ops; base; next = i; stop = !stop } :: !runs;
          stop := i
        end
      done;
      runs := { core; tss = c.tss; ops = c.ops; base; next = 0; stop = !stop } :: !runs
    in
    for core = 0 to k - 1 do
      let d = drained.(core) in
      let n = List.length d.chunks in
      List.iteri
        (fun newer c ->
          let idx = n - 1 - newer in
          cut core c (!total + (idx * chunk_cap)) (if newer = 0 then d.used else chunk_cap))
        d.chunks;
      if n > 0 then total := !total + ((n - 1) * chunk_cap) + d.used
    done;
    let total = !total in
    if total > 0 then begin
      let runs = Array.of_list !runs in
      let m = Kmerge.create (Array.length runs) in
      Array.iteri (fun r run -> Kmerge.set m r run.tss.(run.next) (run.base + run.next)) runs;
      let w = ref (Kmerge.start m) in
      for _ = 1 to total do
        let run = runs.(!w) in
        let i = run.next in
        apply ~ts:run.tss.(i) ~core:run.core run.ops.(i);
        let i = i + 1 in
        run.next <- i;
        w := if i < run.stop then Kmerge.next m run.tss.(i) (run.base + i) else Kmerge.drop m
      done;
      (* Recycle one empty chunk per core for the next cycle: the unused
         spare if the writers never consumed it, else the head chunk. *)
      for core = 0 to k - 1 do
        match drained.(core).spare with
        | Some _ as s -> t.recycle.(core) <- s
        | None -> (
          match drained.(core).chunks with
          | c :: _ -> t.recycle.(core) <- Some c
          | [] -> ())
      done
    end;
    R.span_end "oplog.merge";
    total

  let pending t =
    Array.fold_left
      (fun acc log ->
        let d = R.read log in
        match d.chunks with
        | [] -> acc
        | _ :: rest -> acc + (List.length rest * chunk_cap) + d.used)
      0 t.logs
end
