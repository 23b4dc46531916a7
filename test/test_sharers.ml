(* Adaptive sharer bitmap: small/big representation boundary, one-way
   migration, lazy buffer growth, in-place clear — the exact edge cases
   the engine's manually-inlined fast paths rely on. *)

module Sharers = Ordo_sim.Sharers

(* A sharer set held the way the engine's cell holds it, in one field,
   updated through [Sharers] and stored back as the engine's paths do. *)
type set = { mutable s : Sharers.t }

let create () = { s = Sharers.empty }
let add st tid = st.s <- Sharers.add st.s tid
let clear st = st.s <- Sharers.clear st.s
let mem st tid = Sharers.mem st.s tid
let is_empty st = Sharers.is_empty st.s
let count st = Sharers.count st.s
let is_small st = Sharers.is_small st.s
let add_all s ids = List.iter (add s) ids
let mem_all s ids = List.for_all (mem s) ids

let test_empty () =
  let s = create () in
  Alcotest.(check bool) "is_empty" true (is_empty s);
  Alcotest.(check int) "count" 0 (count s);
  Alcotest.(check bool) "small" true (is_small s);
  Alcotest.(check bool) "mem 0" false (mem s 0);
  Alcotest.(check bool) "mem big id" false (mem s 1000)

let test_small_limit_boundary () =
  (* small_limit - 1 is the last immediate-int id; small_limit itself
     must migrate the set. *)
  let last_small = Sharers.small_limit - 1 in
  let s = create () in
  add s last_small;
  Alcotest.(check bool) "last small id stays small" true (is_small s);
  Alcotest.(check bool) "mem last small" true (mem s last_small);
  let s2 = create () in
  add s2 Sharers.small_limit;
  Alcotest.(check bool) "small_limit migrates" false (is_small s2);
  Alcotest.(check bool) "mem small_limit" true (mem s2 Sharers.small_limit);
  Alcotest.(check bool) "below-limit id absent" false (mem s2 last_small)

let test_migration_preserves_members () =
  let small_ids = [ 0; 1; 7; 31; Sharers.small_limit - 1 ] in
  let s = create () in
  add_all s small_ids;
  Alcotest.(check bool) "small before" true (is_small s);
  add s 100;
  Alcotest.(check bool) "big after" false (is_small s);
  Alcotest.(check bool) "small members survive" true (mem_all s small_ids);
  Alcotest.(check bool) "new member present" true (mem s 100);
  Alcotest.(check int) "count" (List.length small_ids + 1) (count s)

let test_growth () =
  (* Adds far beyond the current buffer must grow it without losing
     earlier members; probe around each byte boundary. *)
  let ids = [ 63; 64; 71; 72; 255; 256; 1023 ] in
  let s = create () in
  List.iter
    (fun id ->
      add s id;
      Alcotest.(check bool) (Printf.sprintf "mem %d after add" id) true (mem s id))
    ids;
  Alcotest.(check bool) "all retained after growth" true (mem_all s ids);
  Alcotest.(check int) "count" (List.length ids) (count s);
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "neighbour %d absent" id) false (mem s id))
    [ 62; 65; 70; 73; 254; 257; 1022; 1024; 4096 ]

let test_clear_small () =
  let s = create () in
  add_all s [ 0; 5; Sharers.small_limit - 1 ];
  clear s;
  Alcotest.(check bool) "empty" true (is_empty s);
  Alcotest.(check int) "count" 0 (count s);
  Alcotest.(check bool) "still small" true (is_small s)

let test_clear_keeps_big_mode () =
  (* Once big, always big: clear zeroes the buffer in place so a hot line
     never re-migrates, and ids in every byte really are gone. *)
  let s = create () in
  add_all s [ 3; 64; 200 ];
  clear s;
  Alcotest.(check bool) "empty after clear" true (is_empty s);
  Alcotest.(check int) "count 0" 0 (count s);
  Alcotest.(check bool) "stays big" false (is_small s);
  List.iter
    (fun id -> Alcotest.(check bool) (Printf.sprintf "mem %d gone" id) false (mem s id))
    [ 3; 64; 200 ];
  (* reusable after the in-place clear *)
  add s 7;
  Alcotest.(check bool) "add after clear" true (mem s 7);
  Alcotest.(check int) "count 1" 1 (count s)

let test_add_idempotent () =
  let s = create () in
  add s 10;
  add s 10;
  add s 100;
  add s 100;
  Alcotest.(check int) "duplicates don't inflate count" 2 (count s)

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Model-based property: any interleaving of add/clear matches a
   reference [IntSet], across representation migration and growth. *)
let matches_set_model =
  qtest "add/clear/mem/count match a set model"
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (oneof
           [
             map (fun i -> `Add i) (int_range 0 70);
             map (fun i -> `Add i) (int_range 0 500);
             return `Clear;
           ]))
    (fun ops ->
      let module IS = Set.Make (Int) in
      let s = create () in
      let model = ref IS.empty in
      List.for_all
        (fun op ->
          (match op with
          | `Add i ->
            add s i;
            model := IS.add i !model
          | `Clear ->
            clear s;
            model := IS.empty);
          count s = IS.cardinal !model
          && is_empty s = IS.is_empty !model
          && IS.for_all (mem s) !model
          && List.for_all
               (fun probe -> mem s probe = IS.mem probe !model)
               [ 0; 31; 62; 63; 64; 127; 200; 499; 501 ])
        ops)

(* Model test with queries as ops, against an [int list] set, over ids in
   [0, 300).  Each sequence is built to cross both slow paths: a
   small-only prefix, the first big id [m] in [small_limit, 200) (a buffer
   of at most 25 bytes, ids below 200), a mixed middle, then id 299, so
   the buffer must grow at least once after the migration.  The property
   also checks that it saw both. *)
let matches_list_model =
  let open QCheck2.Gen in
  let ops ids =
    list_size (int_range 0 60)
      (frequency
         [
           (4, map (fun i -> `Add i) ids);
           (1, return `Clear);
           (3, map (fun i -> `Mem i) ids);
           (1, return `Count);
           (1, return `Is_empty);
         ])
  in
  qtest "add/clear/mem/count/is_empty match an int list model"
    (let* prefix = ops (int_range 0 (Sharers.small_limit - 1)) in
     let* m = int_range Sharers.small_limit 199 in
     let* middle = ops (int_range 0 299) in
     let* tail = ops (int_range 0 299) in
     return (prefix @ [ `Add m ] @ middle @ [ `Add 299 ] @ tail))
    (fun ops ->
      let s = create () in
      let model = ref [] in
      let migrated = ref false and grew = ref false in
      List.for_all
        (fun op ->
          match op with
          | `Add i ->
            let was_small = is_small s and buf = s.s in
            add s i;
            if was_small && not (is_small s) then migrated := true;
            if (not was_small) && s.s != buf then grew := true;
            if not (List.mem i !model) then model := i :: !model;
            true
          | `Clear ->
            clear s;
            model := [];
            true
          | `Mem i -> mem s i = List.mem i !model
          | `Count -> count s = List.length !model
          | `Is_empty -> is_empty s = (!model = []))
        ops
      && !migrated && !grew
      && count s = List.length !model
      && List.for_all (fun i -> mem s i = List.mem i !model) (List.init 300 Fun.id))

let suite =
  [
    ("empty set", `Quick, test_empty);
    ("small_limit boundary", `Quick, test_small_limit_boundary);
    ("migration preserves members", `Quick, test_migration_preserves_members);
    ("buffer growth", `Quick, test_growth);
    ("clear in small mode", `Quick, test_clear_small);
    ("clear keeps big mode", `Quick, test_clear_keeps_big_mode);
    ("add idempotent", `Quick, test_add_idempotent);
    matches_set_model;
    matches_list_model;
  ]
