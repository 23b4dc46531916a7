(* Event-heap ordering properties: min extraction by time, FIFO on ties. *)

module Heap = Ordo_sim.Heap

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let test_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "size" 0 (Heap.size h);
  Alcotest.(check bool) "pop None" true (Heap.pop h = None);
  Alcotest.(check int) "next_time empty" max_int (Heap.next_time h)

let test_single () =
  let h = Heap.create () in
  Heap.push h ~time:42 "x";
  Alcotest.(check int) "size" 1 (Heap.size h);
  Alcotest.(check int) "next_time" 42 (Heap.next_time h);
  Alcotest.(check bool) "pop" true (Heap.pop h = Some (42, "x"));
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let pops_sorted =
  qtest "pops come out sorted by time"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 1000))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t ()) times;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (t, ()) -> drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

let fifo_on_ties =
  qtest "equal times pop in insertion order"
    QCheck2.Gen.(int_range 1 100)
    (fun n ->
      let h = Heap.create () in
      for i = 0 to n - 1 do
        Heap.push h ~time:5 i
      done;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (_, i) -> drain (i :: acc)
      in
      drain [] = List.init n Fun.id)

let interleaved_push_pop =
  qtest "next_time always matches the next pop"
    QCheck2.Gen.(list_size (int_range 1 100) (int_range 0 100))
    (fun times ->
      let h = Heap.create () in
      let ok = ref true in
      List.iter
        (fun t ->
          Heap.push h ~time:t ();
          (match (Heap.next_time h, Heap.pop h) with
          | m, Some (t', ()) -> if m <> t' then ok := false
          | _, None -> ok := false);
          Heap.push h ~time:(t + 1) ())
        times;
      !ok)

let test_pop_exn () =
  let h = Heap.create () in
  Heap.push h ~time:3 "a";
  Heap.push h ~time:1 "b";
  Alcotest.(check string) "min payload" "b" (Heap.pop_exn h);
  Alcotest.(check string) "then next" "a" (Heap.pop_exn h);
  Alcotest.check_raises "empty raises" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h : string))

(* Model-based stability: random interleaving of pushes and pops matches
   a reference priority queue (stable sort by (time, insertion seq)) —
   exercises growth, hole-based sift-up and the cached-child sift-down
   together. *)
let matches_model =
  qtest "interleaved push/pop matches stable-sorted model"
    QCheck2.Gen.(
      list_size (int_range 1 300)
        (oneof [ map (fun t -> `Push t) (int_range 0 50); return `Pop ]))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] (* (time, seq, payload), kept stable-sorted *) in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Push t ->
            Heap.push h ~time:t !seq;
            model :=
              List.stable_sort
                (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
                ((t, !seq, !seq) :: !model);
            incr seq;
            Heap.size h = List.length !model
          | `Pop -> (
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some (t, v), (mt, _, mv) :: rest ->
              model := rest;
              t = mt && v = mv
            | _ -> false))
        ops)

(* An explicit seq orders against counter-assigned ones by value: a seq
   reserved before two pushes pops between an earlier push and them. *)
let test_explicit_seq () =
  let h = Heap.create () in
  Heap.push h ~time:5 "a";
  let r = Heap.reserve_seq h in
  Heap.push h ~time:5 "b";
  Heap.push h ~time:5 "c";
  Heap.push_seq h ~time:5 ~seq:r "r";
  Alcotest.(check int) "min_seq is a's" 0 (Heap.min_seq h);
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "reserved seq keeps later pushes after it"
    [ "a"; "r"; "b"; "c" ] (drain []);
  Alcotest.(check int) "min_seq when empty" max_int (Heap.min_seq h)

(* A block of seqs is the same as that many single reservations: the
   seqs are consecutive, the counter resumes after the block, and a later
   push on the same time pops after every entry keyed inside it. *)
let test_reserve_seqs () =
  let h = Heap.create () in
  Heap.push h ~time:7 "a";
  let b = Heap.reserve_seqs h 3 in
  Alcotest.(check int) "block starts after a" 1 b;
  Alcotest.(check int) "next single seq follows the block" (b + 3) (Heap.reserve_seq h);
  Alcotest.(check int) "empty block takes nothing" (b + 4) (Heap.reserve_seqs h 0);
  Heap.push h ~time:7 "z";
  for i = 2 downto 0 do
    Heap.push_seq h ~time:7 ~seq:(b + i) (string_of_int i)
  done;
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "block pops in seq order, before a later push"
    [ "a"; "0"; "1"; "2"; "z" ] (drain []);
  Alcotest.check_raises "negative count" (Invalid_argument "Heap.reserve_seqs: negative count")
    (fun () -> ignore (Heap.reserve_seqs h (-1)))

(* Entries taken out and pushed back under their own keys, or under
   reserved seqs, pop exactly where a stable (time, seq) sort puts them. *)
let explicit_seq_matches_model =
  qtest "push_seq / reserve_seq match the (time, seq) model"
    QCheck2.Gen.(
      list_size (int_range 1 300)
        (oneof
           [
             map (fun t -> `Push t) (int_range 0 20);
             map (fun t -> `Reserved t) (int_range 0 20);
             return `Reinsert;
             return `Pop;
           ]))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] (* (time, seq), sorted *) in
      let add k = model := List.merge compare [ k ] !model in
      let next = ref 0 in
      let fresh () =
        let s = !next in
        incr next;
        s
      in
      List.for_all
        (fun op ->
          match op with
          | `Push t ->
            let s = fresh () in
            Heap.push h ~time:t s;
            add (t, s);
            true
          | `Reserved t ->
            let s = Heap.reserve_seq h in
            let ok = s = fresh () in
            (* a later push lands after the reserved seq is used *)
            let s' = fresh () in
            Heap.push h ~time:t s';
            Heap.push_seq h ~time:t ~seq:s s;
            add (t, s);
            add (t, s');
            ok
          | `Reinsert -> (
            match !model with
            | [] -> Heap.is_empty h
            | (t, s) :: _ ->
              let seq = Heap.min_seq h in
              let v = Heap.pop_exn h in
              Heap.push_seq h ~time:t ~seq v;
              seq = s && v = s && Heap.min_seq h = s)
          | `Pop -> (
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some (t, v), (mt, ms) :: rest ->
              model := rest;
              t = mt && v = ms
            | _ -> false))
        ops)

let suite =
  [
    ("empty heap", `Quick, test_empty);
    ("single element", `Quick, test_single);
    ("pop_exn", `Quick, test_pop_exn);
    pops_sorted;
    fifo_on_ties;
    interleaved_push_pop;
    matches_model;
    ("explicit and reserved seqs", `Quick, test_explicit_seq);
    ("reserve_seqs takes a consecutive block", `Quick, test_reserve_seqs);
    explicit_seq_matches_model;
  ]
