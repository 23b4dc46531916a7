(* Adaptive sharer bitmap in one field of its owner.  An immediate value
   means the set is in small mode and is that int (bit i = thread i, ids
   0 .. small_limit-1); a block is the [Bytes] bitmap of big mode.  Big
   mode is entered on the first add of an id >= small_limit and is
   permanent for the set: clearing zeroes the buffer in place, so a line
   on a >62-thread machine pays the migration once rather than once per
   run epoch. *)

type t = Obj.t

(* One bit per thread id in an immediate int, keeping the bitmap a
   non-negative OCaml int: 62 usable bits on 64-bit hosts, where
   [Sys.int_size] is 63 and the top bit is the sign. *)
let small_limit = Sys.int_size - 1

let empty = Obj.repr 0
let is_small (s : t) = Obj.is_int s

let mem s tid =
  if is_small s then tid < small_limit && (Obj.obj s : int) land (1 lsl tid) <> 0
  else begin
    let big : Bytes.t = Obj.obj s and byte = tid lsr 3 in
    Bytes.length big > byte
    && Char.code (Bytes.unsafe_get big byte) land (1 lsl (tid land 7)) <> 0
  end

(* Set [tid]'s bit; the buffer must already cover it. *)
let set_bit big tid =
  let byte = tid lsr 3 in
  let old = Char.code (Bytes.get big byte) in
  Bytes.unsafe_set big byte (Char.chr (old lor (1 lsl (tid land 7))))

let add s tid =
  if is_small s && tid < small_limit then Obj.repr ((Obj.obj s : int) lor (1 lsl tid))
  else if (not (is_small s)) && tid lsr 3 < Bytes.length (Obj.obj s) then begin
    set_bit (Obj.obj s) tid;
    s
  end
  else begin
    (* Migrate a small set, or grow a big one: a buffer covering [tid],
       at least twice as long as the old one. *)
    if tid < 0 then invalid_arg "Sharers: negative thread id";
    let old = if is_small s then Bytes.empty else Obj.obj s in
    let big = Bytes.make (Int.max ((tid lsr 3) + 1) (2 * Bytes.length old)) '\000' in
    Bytes.blit old 0 big 0 (Bytes.length old);
    if is_small s then
      for i = 0 to small_limit - 1 do
        if (Obj.obj s : int) land (1 lsl i) <> 0 then set_bit big i
      done;
    set_bit big tid;
    Obj.repr big
  end

let clear s =
  if is_small s then empty
  else begin
    let big : Bytes.t = Obj.obj s in
    Bytes.fill big 0 (Bytes.length big) '\000';
    s
  end

let is_empty s =
  if is_small s then s == empty
  else begin
    (* A loop: a local recursive function would allocate a closure per
       call, and a write to an owned big-mode line asks on its hit path. *)
    let big : Bytes.t = Obj.obj s in
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

let count s =
  if is_small s then popcount_int (Obj.obj s)
  else begin
    let big : Bytes.t = Obj.obj s in
    let total = ref 0 in
    for i = 0 to Bytes.length big - 1 do
      total := !total + popcount_int (Char.code (Bytes.unsafe_get big i))
    done;
    !total
  end
