(* OpLog: append/merge semantics, the causal-ordering soundness difference
   between raw clocks and Ordo timestamps (the paper's §4.4 claim), the
   rmap application and the Exim model. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Rng = Ordo_util.Rng
module Rmap = Ordo_oplog.Rmap

module Raw = Ordo_core.Timestamp.Raw (R)
module O = Ordo_core.Ordo.Make (R) (struct let boundary = 1500 end)
module Ordo_ts = Ordo_core.Timestamp.Ordo_source (O)

(* A machine with one pathologically late socket, like the paper's ARM. *)
let skewed =
  Machine.make
    { Ordo_util.Topology.name = "skewarm"; sockets = 2; cores_per_socket = 2; smt = 1; ghz = 2.0 }
    ~socket_reset_ns:[| 0; 1000 |] ~core_jitter_ns:0 ~noise_prob:0.0 ~cross_ns:120 ~llc_ns:40

let test_single_thread_order () =
  let module Log = Ordo_oplog.Oplog.Make (R) (Ordo_ts) in
  let log = Log.create ~threads:1 () in
  let applied = ref [] in
  ignore
    (Sim.run skewed ~threads:1 (fun _ ->
         Log.append log "a";
         Log.append log "b";
         Log.append log "c";
         ignore
           (Log.synchronize log ~apply:(fun ~ts:_ ~core:_ op -> applied := op :: !applied))));
  Alcotest.(check (list string)) "applied in append order" [ "a"; "b"; "c" ] (List.rev !applied)

let test_pending_and_drain () =
  let module Log = Ordo_oplog.Oplog.Make (R) (Ordo_ts) in
  let log = Log.create ~threads:2 () in
  Log.append log 1;
  Log.append log 2;
  Alcotest.(check int) "pending counts" 2 (Log.pending log);
  Alcotest.(check int) "synchronize applies all" 2 (Log.synchronize log ~apply:(fun ~ts:_ ~core:_ _ -> ()));
  Alcotest.(check int) "drained" 0 (Log.pending log);
  Alcotest.(check int) "second merge empty" 0 (Log.synchronize log ~apply:(fun ~ts:_ ~core:_ _ -> ()))

(* Causal pair: core 0 (early socket, clock ~1000 ns ahead) appends
   [`First], then rings a bell; core 2 (late socket, clock behind) appends
   [`Second] shortly after seeing the bell — so [`Second]'s raw timestamp
   is *smaller* even though it causally follows.  [extra_delay_ns] lets the
   second append wait long enough to clear the skew/boundary. *)
let causal_experiment (module T : Ordo_core.Timestamp.S) ~extra_delay_ns =
  let module Log = Ordo_oplog.Oplog.Make (R) (T) in
  let log = Log.create ~threads:4 () in
  let bell = R.cell 0 in
  let entries = ref [] in
  ignore
    (Sim.run_on skewed
       [
         ( 0,
           fun () ->
             Log.append log `First;
             R.write bell 1 );
         ( 2,
           fun () ->
             while R.read bell = 0 do
               R.pause ()
             done;
             R.work extra_delay_ns;
             Log.append log `Second );
       ]);
  ignore (Log.synchronize log ~apply:(fun ~ts ~core:_ op -> entries := (op, ts) :: !entries));
  List.rev !entries

let test_raw_clock_misorders () =
  (* Unsynchronized clocks assert a *wrong* order with full confidence:
     the causally-second op carries the smaller timestamp and the merge
     applies it first.  This is the paper's case against using invariant
     clocks directly. *)
  match causal_experiment (module Raw) ~extra_delay_ns:0 with
  | [ (`Second, ts2); (`First, ts1) ] ->
    Alcotest.(check bool) "raw compare confidently wrong" true (compare ts2 ts1 < 0)
  | [ (`First, _); (`Second, _) ] ->
    Alcotest.fail "expected raw clocks to misorder the causal pair"
  | _ -> Alcotest.fail "unexpected merge size"

let test_ordo_flags_uncertainty () =
  (* Ordo may still place the pair either way, but never *claims* an
     order: the two stamps compare as uncertain (0), i.e. concurrent
     within the boundary — the same treatment the original OpLog gives
     genuinely concurrent ops. *)
  match causal_experiment (module Ordo_ts) ~extra_delay_ns:0 with
  | [ (_, a); (_, b) ] -> Alcotest.(check int) "within boundary: uncertain" 0 (O.cmp_time a b)
  | _ -> Alcotest.fail "unexpected merge size"

let test_ordo_certain_beyond_boundary () =
  (* Once the causal gap exceeds the boundary, Ordo's merge order is
     guaranteed correct — raw clocks offer no such bound. *)
  match causal_experiment (module Ordo_ts) ~extra_delay_ns:4_000 with
  | [ (`First, ts1); (`Second, ts2) ] ->
    Alcotest.(check int) "certainly ordered" 1 (O.cmp_time ts2 ts1)
  | [ (`Second, _); (`First, _) ] -> Alcotest.fail "Ordo misordered beyond the boundary"
  | _ -> Alcotest.fail "unexpected merge size"

let test_merge_total_and_per_core_order () =
  let module Log = Ordo_oplog.Oplog.Make (R) (Ordo_ts) in
  let threads = 4 and per = 50 in
  let log = Log.create ~threads () in
  ignore
    (Sim.run skewed ~threads (fun i ->
         for j = 0 to per - 1 do
           Log.append log (i, j)
         done));
  let seen = Array.make threads (-1) in
  let count = ref 0 in
  let apply ~ts:_ ~core:_ (core, j) =
    incr count;
    if j <> seen.(core) + 1 then Alcotest.failf "per-core order broken at %d,%d" core j;
    seen.(core) <- j
  in
  ignore (Log.synchronize log ~apply);
  Alcotest.(check int) "all entries merged" (threads * per) !count

(* Observational equivalence with the pre-arena implementation (per-core
   cons lists + one stable [List.sort] by [(ts, core)]).  The apply
   sequence must be (a) non-decreasing in [(ts, core)] and (b) project
   per core to exactly the append order — together those pin the
   sequence to the old output uniquely.  Sized to span several arena
   chunks per core so the k-way merge crosses chunk seams. *)
let test_merge_matches_list_reference () =
  let module Log = Ordo_oplog.Oplog.Make (R) (Ordo_ts) in
  let threads = 4 and per = 700 in
  let log = Log.create ~threads () in
  ignore
    (Sim.run skewed ~threads (fun i ->
         for j = 0 to per - 1 do
           Log.append log (i, j)
         done));
  let out = ref [] in
  let n =
    Log.synchronize log ~apply:(fun ~ts ~core (i, j) -> out := (ts, core, i, j) :: !out)
  in
  let out = List.rev !out in
  Alcotest.(check int) "all entries applied" (threads * per) n;
  List.iter
    (fun (_, core, i, _) ->
      if core <> i then Alcotest.failf "core tag %d disagrees with payload origin %d" core i)
    out;
  let rec sorted = function
    | (ts1, c1, _, _) :: ((ts2, c2, _, _) :: _ as rest) ->
      if ts1 > ts2 || (ts1 = ts2 && c1 > c2) then false else sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by (ts, core)" true (sorted out);
  let next = Array.make threads 0 in
  List.iter
    (fun (_, _, i, j) ->
      if j <> next.(i) then Alcotest.failf "core %d applied %d, expected %d" i j next.(i);
      next.(i) <- j + 1)
    out

(* A deliberately non-monotone stamp source: [after] walks a fixed
   pseudo-random cycle, so per-core runs are NOT ascending and
   [synchronize] must cut each core into one merge run per ascending
   stretch (the old list code sorted unconditionally, so its output
   shape is the same).  The small
   range forces cross-core stamp collisions, exercising both tie-break
   levels. *)
module Jumpy : Ordo_core.Timestamp.S = struct
  let name = "jumpy"
  let boundary = 0
  let state = ref 12345
  let get () = !state

  let advance () =
    state := ((!state * 1103515245) + 12345) land 0xFFFF;
    !state

  let after _ = advance ()
  let cmp = Int.compare
end

let test_merge_fallback_non_monotone_stamps () =
  let module Log = Ordo_oplog.Oplog.Make (R) (Jumpy) in
  let threads = 3 and per = 300 in
  let log = Log.create ~threads () in
  ignore
    (Sim.run skewed ~threads (fun i ->
         for j = 0 to per - 1 do
           Log.append log (i, j)
         done));
  let out = ref [] in
  let n =
    Log.synchronize log ~apply:(fun ~ts ~core (i, j) -> out := (ts, core, i, j) :: !out)
  in
  let out = List.rev !out in
  Alcotest.(check int) "all entries applied" (threads * per) n;
  (* Rebuild the core-major flattened list the old code sorted (stamps
     recovered from the output via each entry's unique payload), stable
     sort it, and demand the exact same sequence. *)
  let reference =
    List.stable_sort
      (fun (ts1, c1, _, j1) (ts2, c2, _, j2) ->
        match compare (ts1 : int) ts2 with
        | 0 -> ( match compare (c1 : int) c2 with 0 -> compare (j1 : int) j2 | c -> c)
        | c -> c)
      (List.sort
         (fun (_, c1, _, j1) (_, c2, _, j2) ->
           match compare (c1 : int) c2 with 0 -> compare (j1 : int) j2 | c -> c)
         out)
  in
  Alcotest.(check bool) "merge = stable sort of core-major list" true (out = reference)

(* Each core's stamps come from a fixed script.  Core 0's steps back
   twice, so it enters the merge as three stretches, and the stamp 20
   appears in all three of them and on cores 1 and 2; core 1 repeats it
   inside one stretch.  Core 0's last stretch repeats 20 past the end of
   its first 256-entry chunk.  Equal stamps must apply by core, and on
   one core in append order, whichever stretch or chunk they sit in. *)
let test_merge_step_back_ties () =
  let script =
    [| Array.append [| 10; 20; 30; 20; 25; 10 |] (Array.make 300 20); [| 5; 20; 20; 40 |]; [| 15; 20; 35 |] |]
  in
  let next = Array.make (Array.length script) 0 in
  let module Scripted = struct
    let name = "scripted"
    let boundary = 0
    let get () = 0

    let advance () =
      let core = R.tid () in
      next.(core) <- next.(core) + 1;
      script.(core).(next.(core) - 1)

    let after _ = advance ()
    let cmp = Int.compare
  end in
  let module Log = Ordo_oplog.Oplog.Make (R) (Scripted) in
  let threads = Array.length script in
  let log = Log.create ~threads () in
  ignore
    (Sim.run skewed ~threads (fun i ->
         for j = 0 to Array.length script.(i) - 1 do
           Log.append log j
         done));
  let out = ref [] in
  let n = Log.synchronize log ~apply:(fun ~ts ~core j -> out := (ts, core, j) :: !out) in
  let expected =
    List.concat (List.mapi (fun core s -> List.mapi (fun j ts -> (ts, core, j)) (Array.to_list s))
       (Array.to_list script))
    |> List.sort compare
  in
  Alcotest.(check int) "all entries applied" (List.length expected) n;
  Alcotest.(check (list (triple int int int))) "applied in (ts, core, append order)" expected
    (List.rev !out)

(* ---- rmap ---- *)

let rmap_impls : (string * (module Rmap.S)) list =
  [
    ("vanilla", (module Rmap.Vanilla (R)));
    ("oplog-raw", (module Rmap.Logged (R) (Raw)));
    ("oplog-ordo", (module Rmap.Logged (R) (Ordo_ts)));
  ]

let test_rmap_semantics () =
  List.iter
    (fun (name, (module M : Rmap.S)) ->
      let t = M.create ~threads:1 ~pages:8 () in
      M.add t ~page:3 ~pte:100;
      M.add t ~page:3 ~pte:101;
      M.add t ~page:5 ~pte:102;
      let l = List.sort compare (M.lookup t ~page:3) in
      Alcotest.(check (list int)) (name ^ " lookup") [ 100; 101 ] l;
      M.remove t ~page:3 ~pte:100;
      Alcotest.(check (list int)) (name ^ " after remove") [ 101 ] (M.lookup t ~page:3);
      Alcotest.(check int) (name ^ " total") 2 (M.total_mappings t))
    rmap_impls

let test_rmap_bulk () =
  List.iter
    (fun (name, (module M : Rmap.S)) ->
      let t = M.create ~threads:1 ~pages:8 () in
      let pairs = [| (1, 10); (2, 11); (1, 12) |] in
      M.add_all t pairs;
      Alcotest.(check int) (name ^ " bulk add") 3 (M.total_mappings t);
      M.remove_all t pairs;
      Alcotest.(check int) (name ^ " bulk remove") 0 (M.total_mappings t))
    rmap_impls

let test_rmap_concurrent_balance () =
  List.iter
    (fun (name, (module M : Rmap.S)) ->
      let threads = 4 in
      let t = M.create ~threads ~pages:32 () in
      ignore
        (Sim.run skewed ~threads (fun i ->
             let rng = Rng.create ~seed:(Int64.of_int (i + 5)) () in
             for seq = 0 to 49 do
               let pte = (i * 1000) + seq in
               let pairs = Array.init 4 (fun _ -> (Rng.int rng 32, pte)) in
               M.add_all t pairs;
               M.remove_all t pairs
             done));
      Alcotest.(check int) (name ^ " balanced") 0 (M.total_mappings t))
    rmap_impls

(* ---- exim ---- *)

let test_exim_delivers () =
  let module M = Rmap.Logged (R) (Ordo_ts) in
  let module E = Ordo_oplog.Exim.Make (R) (M) in
  let threads = 4 in
  let config = { E.default_config with E.vfs_work_ns = 2_000; reclaim_every = 5 } in
  let t = E.create ~config ~threads ~pages:64 () in
  let messages = Array.make threads 0 in
  ignore
    (Sim.run skewed ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int (i + 9)) () in
         for seq = 1 to 20 do
           E.deliver t rng seq;
           messages.(i) <- messages.(i) + 1
         done));
  Alcotest.(check int) "all messages delivered" (threads * 20) (Array.fold_left ( + ) 0 messages);
  (* Every message unmapped what it mapped. *)
  Alcotest.(check int) "rmap balanced after exits" 0 (M.total_mappings (E.rmap t))

(* ---- timestamped stack ---- *)

module Ts_stack = Ordo_oplog.Ts_stack

let test_ts_stack_lifo () =
  let module S = Ts_stack.Make (R) (Ordo_ts) in
  let s = S.create ~threads:1 () in
  ignore
    (Sim.run skewed ~threads:1 (fun _ ->
         for i = 1 to 10 do
           S.push s i
         done;
         for i = 10 downto 1 do
           match S.try_pop s with
           | Some v when v = i -> ()
           | Some v -> Alcotest.failf "popped %d, expected %d" v i
           | None -> Alcotest.fail "premature empty"
         done;
         if S.try_pop s <> None then Alcotest.fail "stack should be empty"))

let test_ts_stack_no_loss_no_dup () =
  let module S = Ts_stack.Make (R) (Ordo_ts) in
  let threads = 4 and per = 60 in
  let s = S.create ~threads () in
  let popped = Array.make threads [] in
  ignore
    (Sim.run skewed ~threads (fun i ->
         (* Everybody pushes its share, then everybody drains. *)
         for j = 0 to per - 1 do
           S.push s ((i * per) + j)
         done;
         let continue = ref true in
         while !continue do
           match S.try_pop s with
           | Some v -> popped.(i) <- v :: popped.(i)
           | None -> continue := false
         done));
  let all = Array.to_list popped |> List.concat |> List.sort compare in
  Alcotest.(check (list int)) "every element popped exactly once"
    (List.init (threads * per) Fun.id)
    all;
  Alcotest.(check int) "empty at the end" 0 (S.size s)

let test_ts_stack_certain_order () =
  (* Two elements more than a boundary apart pop youngest-first even
     across the skewed socket pair. *)
  let module S = Ts_stack.Make (R) (Ordo_ts) in
  let s = S.create ~threads:4 () in
  let first_pushed = R.cell false in
  let popped = ref [] in
  ignore
    (Sim.run_on skewed
       [
         ( 2,
           fun () ->
             S.push s `Old;
             R.write first_pushed true );
         ( 0,
           fun () ->
             while not (R.read first_pushed) do
               R.pause ()
             done;
             (* Clear the 1.5 us boundary before the younger push. *)
             R.work 4_000;
             S.push s `Young;
             let first = S.try_pop s in
             let second = S.try_pop s in
             popped := [ first; second ] );
       ]);
  match !popped with
  | [ Some `Young; Some `Old ] -> ()
  | _ -> Alcotest.fail "expected youngest-first pop across sockets"

let test_ts_stack_interleaved () =
  let module S = Ts_stack.Make (R) (Ordo_ts) in
  let threads = 4 in
  let s = S.create ~threads () in
  let pushes = Array.make threads 0 and pops = Array.make threads 0 in
  ignore
    (Sim.run skewed ~threads (fun i ->
         let rng = Rng.create ~seed:(Int64.of_int (i + 71)) () in
         while R.now () < 80_000 do
           if Rng.int rng 3 = 0 then begin
             match S.try_pop s with
             | Some _ -> pops.(i) <- pops.(i) + 1
             | None -> ()
           end
           else begin
             S.push s i;
             pushes.(i) <- pushes.(i) + 1
           end
         done));
  let pushed = Array.fold_left ( + ) 0 pushes and popped = Array.fold_left ( + ) 0 pops in
  Alcotest.(check int) "size = pushes - pops" (pushed - popped) (S.size s)

let suite =
  [
    ("single-thread order", `Quick, test_single_thread_order);
    ("ts-stack LIFO", `Quick, test_ts_stack_lifo);
    ("ts-stack no loss/dup", `Quick, test_ts_stack_no_loss_no_dup);
    ("ts-stack certain order across sockets", `Quick, test_ts_stack_certain_order);
    ("ts-stack interleaved accounting", `Quick, test_ts_stack_interleaved);
    ("pending and drain", `Quick, test_pending_and_drain);
    ("raw clocks misorder causal pair", `Quick, test_raw_clock_misorders);
    ("ordo flags uncertainty", `Quick, test_ordo_flags_uncertainty);
    ("ordo certain beyond boundary", `Quick, test_ordo_certain_beyond_boundary);
    ("merge total + per-core order", `Quick, test_merge_total_and_per_core_order);
    ("merge matches list reference", `Quick, test_merge_matches_list_reference);
    ("merge fallback on non-monotone stamps", `Quick, test_merge_fallback_non_monotone_stamps);
    ("merge step-back ties", `Quick, test_merge_step_back_ties);
    ("rmap semantics", `Quick, test_rmap_semantics);
    ("rmap bulk ops", `Quick, test_rmap_bulk);
    ("rmap concurrent balance", `Quick, test_rmap_concurrent_balance);
    ("exim delivers and balances", `Quick, test_exim_delivers);
  ]
