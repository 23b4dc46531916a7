(* Adaptive event queue vs the plain heap: pop order must be bit-identical
   — ascending (time, push seq) — whichever representation (bucket, far
   tail, sparse heap) holds an entry and however often the modes switch.
   The engine swaps freely between the two structures, so any divergence
   here is a simulator-determinism bug. *)

module Heap = Ordo_sim.Heap
module Equeue = Ordo_sim.Equeue

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Run one op sequence against the plain heap, the queue and a
   (time, seq)-sorted list, checking sizes, next_time and every popped
   (time, payload) pair agree, then drain all three.  Sparse mode stores
   its entries in a [Heap], so the list is the reference that shares no
   code with the queue. *)
let equivalent ops =
  let h = Heap.create () and q = Equeue.create () in
  let model = ref [] (* (time, seq), sorted; the payload is the seq *) in
  let seq = ref 0 and ok = ref true in
  let model_next () = match !model with [] -> max_int | (t, _) :: _ -> t in
  let check_sync () =
    let n = Equeue.next_time q and size = Equeue.size q in
    if Heap.next_time h <> n || model_next () <> n then ok := false;
    if Heap.size h <> size || List.length !model <> size then ok := false
  in
  (* [Some agree] after popping all three, [None] when all are empty;
     one side empty before the others is a disagreement. *)
  let pop3 () =
    match (Heap.pop h, Equeue.pop q, !model) with
    | None, None, [] -> None
    | Some (t, v), Some (t', v'), (mt, ms) :: rest ->
      model := rest;
      Some (t = t' && v = v' && t = mt && v = ms)
    | _ -> Some false
  in
  List.iter
    (fun op ->
      (match op with
      | `Push t ->
        incr seq;
        Heap.push h ~time:t !seq;
        Equeue.push q ~time:t !seq;
        model := List.merge compare [ (t, !seq) ] !model
      | `Pop -> if pop3 () = Some false then ok := false);
      check_sync ())
    ops;
  let rec drain () = match pop3 () with None -> true | Some agree -> agree && drain () in
  !ok && drain ()

let arbitrary_equiv =
  qtest "arbitrary interleaving: equeue = heap"
    QCheck2.Gen.(
      list_size (int_range 1 400) (oneof [ map (fun t -> `Push t) (int_range 0 3000); return `Pop ]))
    equivalent

(* Engine-shaped trace: push times are offsets from the last popped time
   ("now"), mixing short steps with a far I/O tail — the bimodal
   population that exercises median window sizing, far-tail cascade,
   horizon-crossing pops and stale-width rebuilds. *)
let engine_trace_equiv =
  qtest "engine-shaped bimodal trace: equeue = heap" ~count:200
    QCheck2.Gen.(list_size (int_range 100 800) (pair (int_range 0 9) (int_range 0 120)))
    (fun raw ->
      let h = Heap.create () and q = Equeue.create () in
      let now = ref 0 and seq = ref 0 and ok = ref true in
      let push t =
        incr seq;
        Heap.push h ~time:t !seq;
        Equeue.push q ~time:t !seq
      in
      List.iter
        (fun (k, d) ->
          (if k < 3 then (
             match (Heap.pop h, Equeue.pop q) with
             | None, None -> ()
             | Some (t, v), Some (t', v') -> if t <> t' || v <> v' then ok := false else now := t
             | _ -> ok := false)
           else if k = 3 then push (!now + 50_000 + d) (* far tail: parks past the window *)
           else push (!now + d));
          if Heap.next_time h <> Equeue.next_time q then ok := false)
        raw;
      let rec drain () =
        match (Heap.pop h, Equeue.pop q) with
        | None, None -> true
        | Some (t, v), Some (t', v') -> t = t' && v = v' && drain ()
        | _ -> false
      in
      !ok && drain ())

let fifo_ties_in_wheel =
  qtest "equal times pop FIFO through bucket inserts and mode switch"
    QCheck2.Gen.(int_range 41 200)
    (fun n ->
      (* All entries share one time, so the 40th push flips to wheel mode
         with a zero span (shift 0, one bucket) and the rest append to
         that bucket: ties must still come back in push order. *)
      let q = Equeue.create () in
      for i = 0 to n - 1 do
        Equeue.push q ~time:5000 i
      done;
      Equeue.in_wheel_mode q
      &&
      let rec drain acc =
        match Equeue.pop q with None -> List.rev acc | Some (_, i) -> drain (i :: acc)
      in
      drain [] = List.init n Fun.id)

let test_empty () =
  let q = Equeue.create () in
  Alcotest.(check bool) "is_empty" true (Equeue.is_empty q);
  Alcotest.(check int) "size" 0 (Equeue.size q);
  Alcotest.(check bool) "pop None" true (Equeue.pop q = None);
  Alcotest.(check int) "next_time empty" max_int (Equeue.next_time q);
  Alcotest.check_raises "empty raises" (Invalid_argument "Equeue.pop_exn: empty queue") (fun () ->
      ignore (Equeue.pop_exn q : int))

let test_wheel_entry_and_fallback () =
  let q = Equeue.create () in
  for i = 1 to 100 do
    Equeue.push q ~time:(1000 + i) i
  done;
  Alcotest.(check bool) "dense load enters wheel mode" true (Equeue.in_wheel_mode q);
  for i = 1 to 100 do
    Alcotest.(check int) "ascending-time payloads" i (Equeue.pop_exn q)
  done;
  Alcotest.(check bool) "empty after drain" true (Equeue.is_empty q);
  (* A push earlier than the advanced cursor (pre-run scheduling) must
     fall back to the heap, which accepts any order. *)
  Equeue.push q ~time:0 999;
  Alcotest.(check bool) "early push leaves wheel mode" false (Equeue.in_wheel_mode q);
  Alcotest.(check int) "and still pops" 999 (Equeue.pop_exn q)

let suite =
  [
    ("empty queue", `Quick, test_empty);
    ("wheel entry and early-push fallback", `Quick, test_wheel_entry_and_fallback);
    arbitrary_equiv;
    engine_trace_equiv;
    fifo_ties_in_wheel;
  ]
