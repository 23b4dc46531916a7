(* A loser tree over [r] runs.  Leaf [i] is node [r + i]; internal nodes
   are [1 .. r - 1], node [p]'s parent is [p lsr 1], and node [p] holds the
   run that lost the match played there.  Node 0 holds the overall winner.
   This layout is a full binary tree for any [r], so leaves sit at depth
   floor or ceil of log2 r and a replay is at most ceil(log2 r) compares.

   When a run's head changes, only the matches on its leaf's path can
   change, and each is replayed against the loser stored there: the
   stronger of the two climbs, the other stays as that node's loser.  An
   empty run's key is [(max_int, max_int)], which every real key beats. *)

type t = {
  r : int;
  k1 : int array;  (* head key per run *)
  k2 : int array;
  tree : int array;  (* tree.(0) = winner, tree.(p) = loser at node p *)
}

let create r =
  if r < 0 then invalid_arg "Kmerge.create: negative run count";
  let n = max 1 r in
  { r; k1 = Array.make n max_int; k2 = Array.make n max_int; tree = Array.make n 0 }

let set m run k1 k2 =
  m.k1.(run) <- k1;
  m.k2.(run) <- k2

let[@inline] beats m a b =
  let ka = m.k1.(a) and kb = m.k1.(b) in
  ka < kb || (ka = kb && m.k2.(a) < m.k2.(b))

(* The winner of the subtree under [node]; records each match's loser. *)
let rec build m node =
  if node >= m.r then node - m.r
  else begin
    let a = build m (2 * node) and b = build m ((2 * node) + 1) in
    if beats m b a then begin
      m.tree.(node) <- a;
      b
    end
    else begin
      m.tree.(node) <- b;
      a
    end
  end

let start m =
  m.tree.(0) <- (if m.r <= 1 then 0 else build m 1);
  m.tree.(0)

(* Replays the path from run [w]'s leaf with its new key [(w1, w2)]. *)
let replay m w w1 w2 =
  let tree = m.tree and k1 = m.k1 and k2 = m.k2 in
  let w = ref w and w1 = ref w1 and w2 = ref w2 in
  let p = ref ((m.r + !w) lsr 1) in
  while !p > 0 do
    let l = tree.(!p) in
    let l1 = k1.(l) in
    if l1 < !w1 || (l1 = !w1 && k2.(l) < !w2) then begin
      tree.(!p) <- !w;
      w := l;
      w1 := l1;
      w2 := k2.(l)
    end;
    p := !p lsr 1
  done;
  tree.(0) <- !w;
  !w

let next m k1 k2 =
  let w = m.tree.(0) in
  m.k1.(w) <- k1;
  m.k2.(w) <- k2;
  replay m w k1 k2

let drop m = next m max_int max_int
