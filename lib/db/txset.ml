(** One thread's transaction footprint: its read, write and lock sets, in
    int arrays the thread reuses across transactions.  The arrays double
    when full and [clear] keeps them, so once they fit the thread's
    largest footprint, recording a read, write or lock, or looking up a
    write, allocates nothing.

    The write set iterates in exactly the order [Hashtbl.iter] gives a
    [Hashtbl.create 16] table after the same [replace]/[clear] ([reset])
    calls, because the schemes lock and install rows in that order and
    the simulated history must not change.  Keys sit in insertion order
    with their [Hashtbl.hash]; {!iter_writes} derives the table's bucket
    count and walks them bucket by bucket. *)

type t = {
  mutable reads : int array;  (* (key, version seen) pairs, oldest first *)
  mutable n_reads : int;
  mutable locks : int array;  (* (key, word the lock replaced) pairs, oldest first *)
  mutable n_locks : int;
  mutable writes : int array;  (* (key, value, Hashtbl.hash key) triples, oldest first *)
  mutable n_writes : int;
}

let create () =
  let words width = Array.make (16 * width) 0 in
  {
    reads = words 2;
    n_reads = 0;
    locks = words 2;
    n_locks = 0;
    writes = words 3;
    n_writes = 0;
  }

let clear t =
  t.n_reads <- 0;
  t.n_locks <- 0;
  t.n_writes <- 0

let grow a = Array.append a a

let add_read t key ver =
  let i = 2 * t.n_reads in
  if i = Array.length t.reads then t.reads <- grow t.reads;
  t.reads.(i) <- key;
  t.reads.(i + 1) <- ver;
  t.n_reads <- t.n_reads + 1

let reads t = t.n_reads
let read_key t i = t.reads.(2 * i)
let read_ver t i = t.reads.((2 * i) + 1)

let add_lock t key prev =
  let i = 2 * t.n_locks in
  if i = Array.length t.locks then t.locks <- grow t.locks;
  t.locks.(i) <- key;
  t.locks.(i + 1) <- prev;
  t.n_locks <- t.n_locks + 1

let rec holds_from t key prev i =
  i >= 0
  && ((t.locks.(2 * i) = key && t.locks.((2 * i) + 1) = prev) || holds_from t key prev (i - 1))

(** Whether this footprint locked [key] over the word [prev]. *)
let holds t key prev = holds_from t key prev (t.n_locks - 1)

(** The newest version or replaced lock word the footprint holds, or
    [floor] if larger. *)
let max_seen t floor =
  let m = ref floor in
  for i = 0 to t.n_reads - 1 do
    m := Int.max !m (read_ver t i)
  done;
  for i = 0 to t.n_locks - 1 do
    m := Int.max !m t.locks.((2 * i) + 1)
  done;
  !m

(* ---- write set ---- *)

let writes t = t.n_writes
let rec find_from t key e = if e < 0 || t.writes.(3 * e) = key then e else find_from t key (e - 1)

(** The entry holding [key], or [-1]. *)
let find t key = find_from t key (t.n_writes - 1)

let value t e = t.writes.((3 * e) + 1)

let replace t key v =
  let e = find t key in
  if e >= 0 then t.writes.((3 * e) + 1) <- v
  else begin
    let i = 3 * t.n_writes in
    if i = Array.length t.writes then t.writes <- grow t.writes;
    t.writes.(i) <- key;
    t.writes.(i + 1) <- v;
    t.writes.(i + 2) <- Hashtbl.hash key;
    t.n_writes <- t.n_writes + 1
  end

(** [f key value] over the write set in [Hashtbl.iter] order: bucket by
    bucket, newest key first within a bucket.  A table that was [reset]
    and then given [n] keys has the fewest buckets, from 16 up by
    doubling, that hold [n <= 2 * buckets].  One pass over the keys per
    bucket is cheap at the tens of keys a transaction writes. *)
let iter_writes f t =
  let n = t.n_writes and buckets = ref 16 in
  while n > 2 * !buckets do
    buckets := 2 * !buckets
  done;
  let mask = !buckets - 1 in
  for b = 0 to mask do
    for e = n - 1 downto 0 do
      if t.writes.((3 * e) + 2) land mask = b then f t.writes.(3 * e) t.writes.((3 * e) + 1)
    done
  done

(** Versioned rows of the single-version OCC schemes: key [k]'s data cell
    at [2k] and its version word at [2k + 1], which thread [tid] locks by
    swapping in [-(tid + 1)].  Each data cell is created before its word:
    creation order fixes the cells' cache-line ids, which the recorded
    trace exports pin. *)
module Rows (R : Ordo_runtime.Runtime_intf.S) = struct
  type nonrec t = int R.cell array

  let create rows = Array.init (2 * rows) (fun _ -> R.cell 0)
  let data (rows : t) key = rows.(2 * key)
  let word (rows : t) key = rows.((2 * key) + 1)
  let lock_word tid = -(tid + 1)

  (** Reads [key]'s data between two equal, unlocked reads of its word,
      records [(key, word)] as a read and returns the data.  A locked
      word is waited on with a pause, a torn read retried, [tries] times
      in all; then [Exit]. *)
  let rec snapshot rows fp key tries =
    let v1 = R.read (word rows key) in
    if v1 < 0 then
      if tries > 0 then begin
        R.pause ();
        snapshot rows fp key (tries - 1)
      end
      else raise Exit
    else begin
      let value = R.read (data rows key) in
      if R.read (word rows key) <> v1 then
        if tries > 0 then snapshot rows fp key (tries - 1) else raise Exit
      else begin
        add_read fp key v1;
        value
      end
    end

  (** Locks the write set's words for [tid] in write-set order, recording
      each replaced word as a lock; [false] at the first word already
      locked or lost to a racing CAS. *)
  let lock_writes rows fp tid =
    let lock = lock_word tid in
    fp.n_locks <- 0;
    let try_lock key _ =
      let w = word rows key in
      let v = R.read w in
      if v < 0 || not (R.cas w v lock) then raise Exit;
      add_lock fp key v
    in
    match iter_writes try_lock fp with () -> true | exception Exit -> false

  (** Restores every locked word, newest lock first. *)
  let release rows fp =
    for i = fp.n_locks - 1 downto 0 do
      R.write (word rows fp.locks.(2 * i)) fp.locks.((2 * i) + 1)
    done

  (** Whether read [i]'s word still holds the version it saw, directly or
      under [tid]'s own lock. *)
  let unchanged rows fp tid i =
    let key = read_key fp i and seen = read_ver fp i in
    let cur = R.read (word rows key) in
    if cur = lock_word tid then holds fp key seen else cur = seen
end
