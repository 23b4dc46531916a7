(* Growable vector clocks for the shadow happens-before state.

   Components are indexed by simulated thread id and default to 0; the
   backing array grows on demand so the detector needs no thread-count
   up front.  All operations are O(live components); [join] and [leq]
   only touch the shorter prefix plus whatever the longer side carries. *)

type t = { mutable a : int array }

let create ?(hint = 8) () = { a = Array.make (max 1 hint) 0 }

let grow t n =
  let bigger = Array.make n 0 in
  Array.blit t.a 0 bigger 0 (Array.length t.a);
  t.a <- bigger

let ensure t n =
  let len = Array.length t.a in
  if n > len then grow t (max n (2 * len))

let get t i = if i < Array.length t.a then t.a.(i) else 0

let set t i v =
  ensure t (i + 1);
  t.a.(i) <- v

let incr t i =
  ensure t (i + 1);
  t.a.(i) <- t.a.(i) + 1

(* [join dst src]: dst := dst ⊔ src (componentwise max).  [dst] grows
   to exactly [src]'s length: doubling here would let two clocks that
   join each other in turn double each other's buffers without bound. *)
let join dst src =
  let n = Array.length src.a in
  if n > Array.length dst.a then grow dst n;
  for i = 0 to n - 1 do
    if src.a.(i) > dst.a.(i) then dst.a.(i) <- src.a.(i)
  done

(* [leq a b]: every component of [a] is <= the matching one of [b] —
   the lattice order ("a happened before or equals b's knowledge"). *)
let leq x y =
  let n = Array.length x.a in
  let rec scan i = i >= n || (x.a.(i) <= get y i && scan (i + 1)) in
  scan 0

let equal x y = leq x y && leq y x

let copy t = { a = Array.copy t.a }

let of_list l =
  let t = create ~hint:(max 1 (List.length l)) () in
  List.iteri (fun i v -> set t i v) l;
  t

(* Trailing zeros trimmed, so structurally different buffers with the
   same abstract value print and compare alike. *)
let to_list t =
  let n = ref (Array.length t.a) in
  while !n > 0 && t.a.(!n - 1) = 0 do
    decr n
  done;
  Array.to_list (Array.sub t.a 0 !n)

let pp t =
  "[" ^ String.concat " " (List.map string_of_int (to_list t)) ^ "]"
