(* 4-ary min-heap in structure-of-arrays layout: keys ([time], [seq]) in
   flat int arrays, payloads in a separate array.  Sifting compares only
   the int arrays (no payload dereference), moves entries hole-style
   (one write per level instead of a three-word swap), and the arity of 4
   halves the depth of the binary tree — the event queue is the hottest
   data structure in the simulator.

   Invariant: [times], [seqs] and [data] always have the same physical
   length; entries [0 .. len-1] are live.  Every index the sift loops
   touch is below [len] <= capacity, so element accesses are unchecked.
   [data] slots above [len] may retain stale payload references until
   overwritten (the payload array needs a filler value to clear them,
   which a polymorphic heap does not have) — the same bounded retention
   the previous entry-record heap had. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; data = [||]; len = 0; next_seq = 0 }
let is_empty t = t.len = 0
let size t = t.len

let grow t payload =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let times = Array.make ncap 0 in
    let seqs = Array.make ncap 0 in
    let data = Array.make ncap payload in
    Array.blit t.times 0 times 0 t.len;
    Array.blit t.seqs 0 seqs 0 t.len;
    Array.blit t.data 0 data 0 t.len;
    t.times <- times;
    t.seqs <- seqs;
    t.data <- data
  end

let push_seq t ~time ~seq payload =
  grow t payload;
  let times = t.times and seqs = t.seqs and data = t.data in
  (* Sift the hole up: parents later than the new key move down a level;
     the new entry is written once, at its final position. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set data !i (Array.unsafe_get data parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set data !i payload

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let reserve_seqs t n =
  if n < 0 then invalid_arg "Heap.reserve_seqs: negative count";
  let seq = t.next_seq in
  t.next_seq <- seq + n;
  seq

let push t ~time payload = push_seq t ~time ~seq:(reserve_seq t) payload

let pop_exn t =
  if t.len = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let times = t.times and seqs = t.seqs and data = t.data in
  let top = Array.unsafe_get data 0 in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Sift the displaced last entry down through the hole at the root. *)
    let time = Array.unsafe_get times n and seq = Array.unsafe_get seqs n in
    let payload = Array.unsafe_get data n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let base = (4 * !i) + 1 in
      if base >= n then continue := false
      else begin
        let last = Int.min (base + 3) (n - 1) in
        let s = ref base in
        let st = ref (Array.unsafe_get times base) in
        let ss = ref (Array.unsafe_get seqs base) in
        for c = base + 1 to last do
          let ct = Array.unsafe_get times c in
          if ct < !st || (ct = !st && Array.unsafe_get seqs c < !ss) then begin
            s := c;
            st := ct;
            ss := Array.unsafe_get seqs c
          end
        done;
        if !st < time || (!st = time && !ss < seq) then begin
          Array.unsafe_set times !i !st;
          Array.unsafe_set seqs !i !ss;
          Array.unsafe_set data !i (Array.unsafe_get data !s);
          i := !s
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set data !i payload
  end;
  top

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    Some (time, pop_exn t)
  end

let next_time t = if t.len = 0 then max_int else Array.unsafe_get t.times 0
let min_seq t = if t.len = 0 then max_int else Array.unsafe_get t.seqs 0
