(* Adaptive event queue: a calendar/timing wheel for the dense near
   horizon, with a {!Heap} as both the sparse-mode store and the far-tail
   overflow store.  Pop order is exactly ascending [(time, seq)] with
   [seq] the global push counter — bit-identical to a plain {!Heap},
   whichever representation holds an entry and however often the modes
   switch mid-stream.  The counter lives here, not in the heap, so wheel
   and heap entries draw from one sequence.

   Why: the heap is the hottest structure in the simulator, and its cost
   grows with residency — a push/pop pair costs ~33 ns at 8 pending
   events but ~90 ns at 240 (one parked fiber per simulated thread).  A
   wheel caps that cost: pushes drop into a bucket picked by a shift, and
   pops follow a 256-bit occupancy bitmap, so both stay O(1)-ish at any
   residency.

   Representation invariants (wheel mode):
   - Bucket granularity is [1 lsl wshift] ns; virtual slot of an entry is
     [time lsr wshift].  The wheel window holds vslots
     [vcur, vcur + wheel_slots); slot index is [vslot land (wheel_slots-1)],
     so each occupied slot holds entries of exactly one in-window vslot.
   - Entries at or beyond the window end live in the heap (the far tail)
     and cascade into buckets — each exactly once — as [vcur] advances.
   - Within a bucket, entries are kept sorted ascending by (time, seq);
     across buckets, circular slot order from [vcur] is ascending vslot
     order; every far entry is later than every wheel entry.  Hence the
     global minimum is the front of the first occupied bucket.
   - [vcur] never exceeds the minimum pending entry's vslot: it only
     advances to the vslot of a popped minimum.
   - [cached_next] always equals the minimum pending time ([max_int] when
     empty) so [next_time] — the per-operation horizon check — is a field
     load.
   - In wheel mode [cached_slot] is the bucket holding the minimum entry,
     or -1 when the minimum is in the far tail (equivalently, the buckets
     are empty).  The common pop therefore reads the bucket front
     directly; the bitmap is scanned only when a bucket drains.

   Payload slots above the live region of a bucket may retain stale
   references until overwritten: the same bounded retention {!Heap} has
   (a polymorphic store has no filler value).

   The heap's root key and length are read as fields of its private
   record, not through calls: they sit on the per-pop path and
   cross-module calls never inline in the dev build. *)

type 'a t = {
  mutable len : int;
  mutable next_seq : int;
  mutable cached_next : int;
  mutable wheel : bool;  (* wheel mode on: buckets + far-tail heap *)
  mutable cooldown : int;  (* ops until the next mode evaluation *)
  h : 'a Heap.t;  (* the whole store in sparse mode, the far tail in wheel mode *)
  (* wheel *)
  mutable wshift : int;
  mutable vcur : int;
  mutable cached_slot : int;  (* bucket of the minimum entry, -1 = far tail *)
  mutable wlen : int;  (* entries resident in buckets *)
  bt : int array array;  (* per-slot times *)
  bs : int array array;  (* per-slot seqs *)
  bd : 'a array array;  (* per-slot payloads *)
  blen : int array;
  bstart : int array;  (* front offset of the live region *)
  bitmap : int array;  (* occupancy, 32 slots per word *)
}

let wheel_slots = 256
let slot_mask = wheel_slots - 1
let bitmap_words = wheel_slots / 32

(* Mode policy: enter the wheel when residency makes heap sifts expensive,
   drop back when the queue is nearly drained; the cooldown stops a
   workload sitting on a threshold from thrashing (each switch migrates
   every pending entry). *)
let wheel_enter = 40
let wheel_exit = 12
let switch_cooldown = 1024
let max_wshift = 20

let create () =
  {
    len = 0;
    next_seq = 0;
    cached_next = max_int;
    wheel = false;
    cooldown = 0;
    h = Heap.create ();
    wshift = 0;
    vcur = 0;
    cached_slot = -1;
    wlen = 0;
    bt = Array.make wheel_slots [||];
    bs = Array.make wheel_slots [||];
    bd = Array.make wheel_slots [||];
    blen = Array.make wheel_slots 0;
    bstart = Array.make wheel_slots 0;
    bitmap = Array.make bitmap_words 0;
  }

let is_empty t = t.len = 0
let size t = t.len
let next_time t = t.cached_next
(* ---- wheel buckets ---- *)

(* Index of the lowest set bit of a non-zero 32-bit word (de Bruijn). *)
let debruijn32 =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23; 21; 19; 16; 7;
    26; 12; 18; 6; 11; 5; 10; 9;
  |]

let[@inline] ctz32 b = Array.unsafe_get debruijn32 (((b land -b) * 0x077CB531) lsr 27 land 31)

(* First occupied slot in circular order starting at [slot0], or -1. *)
let scan t slot0 =
  let bitmap = t.bitmap in
  let w0 = slot0 lsr 5 and b0 = slot0 land 31 in
  let first = Array.unsafe_get bitmap w0 lsr b0 in
  if first <> 0 then slot0 + ctz32 first
  else begin
    let found = ref (-1) in
    let i = ref 1 in
    while !found < 0 && !i < bitmap_words do
      let w = (w0 + !i) land (bitmap_words - 1) in
      let bits = Array.unsafe_get bitmap w in
      if bits <> 0 then found := (w lsl 5) + ctz32 bits;
      incr i
    done;
    if !found >= 0 then !found
    else begin
      (* Wrap back into the low bits of the starting word. *)
      let low = Array.unsafe_get bitmap w0 land ((1 lsl b0) - 1) in
      if low <> 0 then (w0 lsl 5) + ctz32 low else -1
    end
  end

(* Insert into a bucket, keeping it sorted ascending by (time, seq).
   Typical buckets hold one or two entries and new entries belong at the
   end, so the backward shift loop rarely iterates. *)
let bucket_insert t slot time seq payload =
  let cap = Array.length (Array.unsafe_get t.bt slot) in
  let start = Array.unsafe_get t.bstart slot and len = Array.unsafe_get t.blen slot in
  (if start + len = cap then
     if cap > 0 && len * 2 <= cap then begin
       (* Plenty of dead front space: compact in place. *)
       Array.blit t.bt.(slot) start t.bt.(slot) 0 len;
       Array.blit t.bs.(slot) start t.bs.(slot) 0 len;
       Array.blit t.bd.(slot) start t.bd.(slot) 0 len;
       t.bstart.(slot) <- 0
     end
     else begin
       let ncap = max 8 (2 * cap) in
       let nt = Array.make ncap 0 and ns = Array.make ncap 0 and nd = Array.make ncap payload in
       Array.blit t.bt.(slot) start nt 0 len;
       Array.blit t.bs.(slot) start ns 0 len;
       Array.blit t.bd.(slot) start nd 0 len;
       t.bt.(slot) <- nt;
       t.bs.(slot) <- ns;
       t.bd.(slot) <- nd;
       t.bstart.(slot) <- 0
     end);
  let bt = Array.unsafe_get t.bt slot
  and bs = Array.unsafe_get t.bs slot
  and bd = Array.unsafe_get t.bd slot in
  let start = Array.unsafe_get t.bstart slot in
  let stop = start + Array.unsafe_get t.blen slot in
  let j = ref stop in
  let continue = ref true in
  while !continue && !j > start do
    let pt = Array.unsafe_get bt (!j - 1) in
    if pt > time || (pt = time && Array.unsafe_get bs (!j - 1) > seq) then begin
      Array.unsafe_set bt !j pt;
      Array.unsafe_set bs !j (Array.unsafe_get bs (!j - 1));
      Array.unsafe_set bd !j (Array.unsafe_get bd (!j - 1));
      decr j
    end
    else continue := false
  done;
  Array.unsafe_set bt !j time;
  Array.unsafe_set bs !j seq;
  Array.unsafe_set bd !j payload;
  Array.unsafe_set t.blen slot (Array.unsafe_get t.blen slot + 1);
  t.bitmap.(slot lsr 5) <- t.bitmap.(slot lsr 5) lor (1 lsl (slot land 31));
  t.wlen <- t.wlen + 1

(* Move due far-tail entries (vslot inside the current window) into
   buckets.  Each entry cascades at most once: [vcur] only advances. *)
let cascade t =
  let h = t.h and vhigh = t.vcur + wheel_slots in
  while h.len > 0 && Array.unsafe_get h.times 0 lsr t.wshift < vhigh do
    let time = Array.unsafe_get h.times 0 and seq = Array.unsafe_get h.seqs 0 in
    let payload = Heap.pop_exn h in
    bucket_insert t ((time lsr t.wshift) land slot_mask) time seq payload
  done

(* ---- mode switches ---- *)

let to_heap t =
  t.wheel <- false;
  t.cooldown <- switch_cooldown;
  for slot = 0 to wheel_slots - 1 do
    let len = t.blen.(slot) in
    if len > 0 then begin
      let bt = t.bt.(slot) and bs = t.bs.(slot) and bd = t.bd.(slot) in
      let start = t.bstart.(slot) in
      for j = start to start + len - 1 do
        Heap.push_seq t.h ~time:bt.(j) ~seq:bs.(j) bd.(j)
      done;
      t.blen.(slot) <- 0;
      t.bstart.(slot) <- 0
    end
  done;
  Array.fill t.bitmap 0 bitmap_words 0;
  t.wlen <- 0;
  t.cached_slot <- -1

let to_wheel t =
  (* Bucket width from the *median* pending time, not the full span: aim
     the window at the dense near cluster and let outliers sit in the far
     heap.  Sizing from the maximum is wrong for bimodal populations
     (e.g. short ops plus a 55 us I/O tail): the window then covers the
     tail and the whole cluster collapses into a couple of buckets, so
     every push pays a long in-bucket shift.  With the window spanning
     4x the lower half, a uniform population still fits entirely (window
     = 2x span) while a clustered one gets fine buckets. *)
  let h = t.h in
  let lo = h.times.(0) in
  let times = Array.sub h.times 0 h.len in
  Array.sort (compare : int -> int -> int) times;
  let target = (times.(h.len / 2) - lo) / (wheel_slots / 4) in
  let shift = ref 0 in
  while !shift < max_wshift && 1 lsl !shift < target do
    incr shift
  done;
  t.wshift <- !shift;
  t.wheel <- true;
  t.cooldown <- switch_cooldown;
  t.vcur <- lo lsr !shift;
  cascade t;
  (* The heap top cascaded (its vslot is [vcur]), so the minimum now
     fronts that bucket. *)
  t.cached_slot <- scan t (t.vcur land slot_mask)

(* ---- operations ---- *)

let push t ~time payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.len <- t.len + 1;
  if t.wheel then begin
    let vslot = time lsr t.wshift in
    if vslot < t.vcur then begin
      (* Earlier than the scan cursor (only possible for out-of-order
         pre-run scheduling): fall back to the heap, which accepts any
         order.  The next evaluation may re-enter the wheel. *)
      to_heap t;
      Heap.push_seq t.h ~time ~seq payload;
      if time < t.cached_next then t.cached_next <- time
    end
    else if vslot >= t.vcur + wheel_slots then begin
      Heap.push_seq t.h ~time ~seq payload;
      (* A far entry below the cached minimum is only possible when the
         buckets are empty — the next pop must jump. *)
      if time < t.cached_next then begin
        t.cached_next <- time;
        t.cached_slot <- -1
      end;
      (* The bucket width was sized at switch time; when the far tail
         has come to dominate (the horizon spread out), that width is
         stale and most entries pay heap + bucket.  Rebuild with a width
         fit to the current population.  The 3:1 margin keeps a
         legitimately split population — median-width sizing parks the
         upper half in the heap on purpose — from rebuilding in vain. *)
      if t.h.len > 3 * t.wlen then
        if t.cooldown = 0 then begin
          to_heap t;
          to_wheel t
        end
        else t.cooldown <- t.cooldown - 1
    end
    else begin
      let slot = vslot land slot_mask in
      bucket_insert t slot time seq payload;
      if time < t.cached_next then begin
        t.cached_next <- time;
        t.cached_slot <- slot
      end
    end
  end
  else begin
    Heap.push_seq t.h ~time ~seq payload;
    if time < t.cached_next then t.cached_next <- time;
    if t.h.len >= wheel_enter then
      if t.cooldown = 0 then to_wheel t else t.cooldown <- t.cooldown - 1
  end

let pop_exn t =
  if t.len = 0 then invalid_arg "Equeue.pop_exn: empty queue";
  t.len <- t.len - 1;
  if not t.wheel then begin
    let h = t.h in
    let payload = Heap.pop_exn h in
    t.cached_next <- (if h.len = 0 then max_int else Array.unsafe_get h.times 0);
    payload
  end
  else begin
    (* The minimum fronts the cached bucket; when the buckets are empty
       ([cached_slot] = -1) it is the far-tail top — jump the cursor to
       its vslot (the window in between is provably vacant) and cascade
       it in. *)
    let s =
      if t.cached_slot >= 0 then t.cached_slot
      else begin
        t.vcur <- Array.unsafe_get t.h.times 0 lsr t.wshift;
        cascade t;
        scan t (t.vcur land slot_mask)
      end
    in
    let start = Array.unsafe_get t.bstart s in
    let time = Array.unsafe_get (Array.unsafe_get t.bt s) start in
    let payload = Array.unsafe_get (Array.unsafe_get t.bd s) start in
    t.vcur <- time lsr t.wshift;
    let remaining = Array.unsafe_get t.blen s - 1 in
    Array.unsafe_set t.blen s remaining;
    if remaining = 0 then begin
      Array.unsafe_set t.bstart s 0;
      t.bitmap.(s lsr 5) <- t.bitmap.(s lsr 5) land lnot (1 lsl (s land 31))
    end
    else Array.unsafe_set t.bstart s (start + 1);
    t.wlen <- t.wlen - 1;
    (* The advanced window end may release far entries.  None can land in
       bucket [s] below its front: cascaded vslots exceed the popped one
       (they were beyond the pre-pop window end), so when [s] still holds
       entries its new front stays the global minimum — no scan. *)
    cascade t;
    if remaining > 0 then begin
      t.cached_next <- Array.unsafe_get (Array.unsafe_get t.bt s) (start + 1);
      t.cached_slot <- s
    end
    else if t.wlen = 0 then begin
      t.cached_slot <- -1;
      t.cached_next <- (if t.h.len = 0 then max_int else Array.unsafe_get t.h.times 0)
    end
    else begin
      (* Bucket [s] drained: the next occupied bucket (in circular order
         from the popped vslot) fronts the minimum. *)
      let s' = scan t (t.vcur land slot_mask) in
      t.cached_slot <- s';
      t.cached_next <- Array.unsafe_get (Array.unsafe_get t.bt s') (Array.unsafe_get t.bstart s')
    end;
    if t.len < wheel_exit then
      if t.cooldown = 0 then to_heap t else t.cooldown <- t.cooldown - 1;
    payload
  end

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.cached_next in
    Some (time, pop_exn t)
  end

(* Mode introspection, for tests and the micro harness. *)
let in_wheel_mode t = t.wheel
