(* Adaptive sharer bitmap over two fields of its owner.  [big ==
   Bytes.empty] means the set is in small mode and lives entirely in
   [small] (bit i = thread i, ids 0 .. small_limit-1).  Big mode is
   entered on the first add of an id >= small_limit and is permanent for
   the set: clearing zeroes the buffer in place, so a line on a >62-thread
   machine pays the migration once rather than once per run epoch. *)

(* One bit per thread id in an immediate int, keeping the bitmap a
   non-negative OCaml int: 62 usable bits on 64-bit hosts, where
   [Sys.int_size] is 63 and the top bit is the sign. *)
let small_limit = Sys.int_size - 1

let is_small big = big == Bytes.empty

let mem small big tid =
  if is_small big then tid < small_limit && small land (1 lsl tid) <> 0
  else begin
    let byte = tid lsr 3 in
    Bytes.length big > byte
    && Char.code (Bytes.unsafe_get big byte) land (1 lsl (tid land 7)) <> 0
  end

(* Set [tid]'s bit; the buffer must already cover it. *)
let set_bit big tid =
  let byte = tid lsr 3 in
  let old = Char.code (Bytes.get big byte) in
  Bytes.unsafe_set big byte (Char.chr (old lor (1 lsl (tid land 7))))

(* A copy of [big] covering [tid] (at least doubled), with [tid] set. *)
let grow big tid =
  if tid < 0 then invalid_arg "Sharers: negative thread id";
  let bigger = Bytes.make (Int.max ((tid lsr 3) + 1) (2 * Bytes.length big)) '\000' in
  Bytes.blit big 0 bigger 0 (Bytes.length big);
  set_bit bigger tid;
  bigger

let add_big big tid =
  if tid lsr 3 < Bytes.length big then begin
    set_bit big tid;
    big
  end
  else grow big tid

let migrate small tid =
  let bytes = Bytes.make ((tid lsr 3) + 1) '\000' in
  let i = ref 0 and bits = ref small in
  while !bits <> 0 do
    if !bits land 1 <> 0 then set_bit bytes !i;
    incr i;
    bits := !bits lsr 1
  done;
  set_bit bytes tid;
  bytes

let clear_big big = Bytes.fill big 0 (Bytes.length big) '\000'

let is_empty small big =
  if is_small big then small = 0
  else begin
    (* A loop: a local recursive function would allocate a closure per
       call, and a write to an owned big-mode line asks on its hit path. *)
    let n = Bytes.length big and i = ref 0 in
    while !i < n && Bytes.unsafe_get big !i = '\000' do
      incr i
    done;
    !i = n
  end

let popcount_int bits =
  let total = ref 0 and b = ref bits in
  while !b <> 0 do
    incr total;
    b := !b land (!b - 1)
  done;
  !total

let count small big =
  if is_small big then popcount_int small
  else begin
    let total = ref 0 in
    for i = 0 to Bytes.length big - 1 do
      total := !total + popcount_int (Char.code (Bytes.unsafe_get big i))
    done;
    !total
  end
