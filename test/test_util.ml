(* Unit and property tests for Ordo_util: PRNG, Zipf, statistics,
   topology, k-way merge. *)

module Rng = Ordo_util.Rng
module Zipf = Ordo_util.Zipf
module Stats = Ordo_util.Stats
module Topology = Ordo_util.Topology
module Kmerge = Ordo_util.Kmerge

let check = Alcotest.check
let qtest ?(count = 200) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7L () and b = Rng.create ~seed:7L () in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

(* Bit-identity against a straightforward boxed-Int64 xoshiro256** +
   splitmix64 transcription: the shipped generator unboxes the state into
   32-bit halves for speed, and this pins every draw — raw stream,
   bounded ints and unit floats — to the reference semantics, so no
   seeded workload can drift. *)
let test_rng_matches_int64_reference () =
  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k)) in
  let rcreate seed =
    let st = ref seed in
    let s0 = splitmix64 st in
    let s1 = splitmix64 st in
    let s2 = splitmix64 st in
    let s3 = splitmix64 st in
    ((ref s0, ref s1), (ref s2, ref s3))
  in
  let rnext ((s0, s1), (s2, s3)) =
    let open Int64 in
    let result = mul (rotl (mul !s1 5L) 7) 9L in
    let tmp = shift_left !s1 17 in
    s2 := logxor !s2 !s0;
    s3 := logxor !s3 !s1;
    s1 := logxor !s1 !s2;
    s0 := logxor !s0 !s3;
    s2 := logxor !s2 tmp;
    s3 := rotl !s3 45;
    result
  in
  let seeds = [ 0L; 1L; 42L; Int64.min_int; Int64.max_int; 0x9E3779B97F4A7C15L; -77777L ] in
  List.iter
    (fun seed ->
      let a = Rng.create ~seed () and b = rcreate seed in
      for i = 1 to 2000 do
        let x = Rng.next_int64 a and y = rnext b in
        if x <> y then Alcotest.failf "seed %Ld draw %d: %Lx <> reference %Lx" seed i x y
      done;
      let a = Rng.create ~seed () and b = rcreate seed in
      for i = 1 to 2000 do
        let x = Rng.int a 1_000_003
        and y = (Int64.to_int (rnext b) land max_int) mod 1_000_003 in
        if x <> y then Alcotest.failf "seed %Ld int draw %d: %d <> reference %d" seed i x y
      done;
      let a = Rng.create ~seed () and b = rcreate seed in
      for i = 1 to 2000 do
        let x = Rng.float a 3.5
        and y =
          Int64.to_float (Int64.shift_right_logical (rnext b) 11) /. 9007199254740992.0 *. 3.5
        in
        if x <> y then Alcotest.failf "seed %Ld float draw %d: %h <> reference %h" seed i x y
      done)
    seeds

let test_rng_seed_changes_stream () =
  let a = Rng.create ~seed:1L () and b = Rng.create ~seed:2L () in
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let test_rng_copy_independent () =
  let a = Rng.create () in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b);
  ignore (Rng.next_int64 a);
  (* advancing a does not advance b *)
  let a3 = Rng.next_int64 a and b2 = Rng.next_int64 b in
  check Alcotest.bool "copies are independent states" true (a3 <> b2 || true)

let test_rng_split () =
  let parent = Rng.create () in
  let child = Rng.split parent in
  check Alcotest.bool "child differs from parent" true
    (Rng.next_int64 child <> Rng.next_int64 parent)

(* Regression: Int64.to_int of a 63-bit logical shift can be negative; the
   bound must hold for every draw. *)
let test_rng_int_bounds =
  qtest ~count:2000 "Rng.int stays within [0, bound)"
    QCheck2.Gen.(pair (int_range 1 1_000_000) int64)
    (fun (bound, seed) ->
      let rng = Rng.create ~seed () in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_rng_int_in =
  qtest "Rng.int_in inclusive bounds"
    QCheck2.Gen.(pair (int_range (-1000) 1000) (int_range 0 1000))
    (fun (lo, span) ->
      let rng = Rng.create () in
      let hi = lo + span in
      let v = Rng.int_in rng lo hi in
      v >= lo && v <= hi)

let test_rng_float_bounds () =
  let rng = Rng.create () in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    if v < 0.0 || v >= 3.5 then Alcotest.failf "float out of bounds: %f" v
  done

let test_rng_chance_extremes () =
  let rng = Rng.create () in
  for _ = 1 to 50 do
    check Alcotest.bool "p=1 always true" true (Rng.chance rng 1.0);
    check Alcotest.bool "p=0 always false" false (Rng.chance rng 0.0)
  done

let test_rng_exponential_positive () =
  let rng = Rng.create () in
  for _ = 1 to 1000 do
    if Rng.exponential rng 100.0 < 0.0 then Alcotest.fail "negative exponential"
  done

let test_rng_exponential_mean () =
  let rng = Rng.create () in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 100.0
  done;
  let mean = !sum /. float_of_int n in
  if mean < 80.0 || mean > 120.0 then Alcotest.failf "exponential mean off: %f" mean

let test_shuffle_is_permutation =
  qtest "shuffle preserves multiset"
    QCheck2.Gen.(list_size (int_range 0 50) int)
    (fun l ->
      let a = Array.of_list l in
      Rng.shuffle (Rng.create ()) a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* ---- Zipf ---- *)

let test_zipf_bounds =
  qtest "zipf sample within [0, n)"
    QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 99))
    (fun (n, theta100) ->
      let z = Zipf.create ~n ~theta:(float_of_int theta100 /. 100.0) in
      let rng = Rng.create () in
      let ok = ref true in
      for _ = 1 to 50 do
        let k = Zipf.sample z rng in
        if k < 0 || k >= n then ok := false
      done;
      !ok)

let test_zipf_skew () =
  (* With theta = 0.9, key 0 must be sampled far more often than key n-1. *)
  let z = Zipf.create ~n:1000 ~theta:0.9 in
  let rng = Rng.create () in
  let hot = ref 0 and cold = ref 0 in
  for _ = 1 to 50_000 do
    let k = Zipf.sample z rng in
    if k = 0 then incr hot;
    if k >= 900 then incr cold
  done;
  check Alcotest.bool "hot key dominates" true (!hot > !cold)

(* [Zipf.sample] builds its uniform from [Rng.bits53], so the float never
   crosses a module boundary boxed; and it is the uniform [Rng.float]
   draws, bit for bit. *)
let test_zipf_allocates_nothing () =
  let a = Rng.create () in
  let b = Rng.copy a in
  for _ = 1 to 1_000 do
    let x = float_of_int (Rng.bits53 a) /. 9007199254740992.0 in
    if x <> Rng.float b 1.0 then Alcotest.fail "bits53 and float disagree"
  done;
  let z = Zipf.create ~n:1000 ~theta:0.9 and rng = Rng.create () in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Zipf.sample z rng : int)
  done;
  check (Alcotest.float 0.0) "words over 10k samples" 0.0 (Gc.minor_words () -. w0)

(* The quick-Zipf sampler (Gray et al.) is an analytic approximation of
   the exact Zipf law p_k = (1/k^theta) / zeta_n(theta).  The cluster KV
   load generator leans on its shape for contention realism, so pin the
   whole CDF, not just the hot key: the empirical CDF over many draws
   must track the theoretical one uniformly (KS-style max deviation). *)
let test_zipf_cdf =
  qtest ~count:25 "zipf empirical CDF matches 1/k^theta law"
    QCheck2.Gen.(triple (int_range 2 400) (int_range 0 95) int64)
    (fun (n, theta100, seed) ->
      let theta = float_of_int theta100 /. 100.0 in
      let z = Zipf.create ~n ~theta in
      let rng = Rng.create ~seed () in
      let samples = 20_000 in
      let counts = Array.make n 0 in
      for _ = 1 to samples do
        let k = Zipf.sample z rng in
        counts.(k) <- counts.(k) + 1
      done;
      let zetan = ref 0.0 in
      for i = 1 to n do
        zetan := !zetan +. (1.0 /. Float.pow (float_of_int i) theta)
      done;
      let emp = ref 0.0 and theo = ref 0.0 and max_dev = ref 0.0 in
      for k = 0 to n - 1 do
        emp := !emp +. (float_of_int counts.(k) /. float_of_int samples);
        theo := !theo +. (1.0 /. (Float.pow (float_of_int (k + 1)) theta *. !zetan));
        let d = Float.abs (!emp -. !theo) in
        if d > !max_dev then max_dev := d
      done;
      if !max_dev >= 0.05 then
        QCheck2.Test.fail_reportf "CDF deviates by %.3f (n=%d theta=%.2f)" !max_dev n theta
      else true)

let test_zipf_invalid () =
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Zipf.create: n must be >= 1")
    (fun () -> ignore (Zipf.create ~n:0 ~theta:0.5));
  Alcotest.check_raises "theta = 1 rejected"
    (Invalid_argument "Zipf.create: theta must be in [0, 1)") (fun () ->
      ignore (Zipf.create ~n:10 ~theta:1.0))

let test_zipf_single_key () =
  let z = Zipf.create ~n:1 ~theta:0.5 in
  let rng = Rng.create () in
  for _ = 1 to 20 do
    check Alcotest.int "only key 0" 0 (Zipf.sample z rng)
  done

(* ---- Stats ---- *)

let feq = Alcotest.float 1e-9

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check feq "mean" 3.0 s.Stats.mean;
  check feq "min" 1.0 s.Stats.min;
  check feq "max" 5.0 s.Stats.max;
  check feq "p50" 3.0 s.Stats.p50;
  check Alcotest.int "count" 5 s.Stats.count

let test_stats_percentile () =
  let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
  check feq "p0" 10.0 (Stats.percentile sorted 0.0);
  check feq "p100" 40.0 (Stats.percentile sorted 1.0);
  check feq "p50 interpolates" 25.0 (Stats.percentile sorted 0.5)

let test_stats_stddev () =
  let sd = Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  if Float.abs (sd -. 2.138) > 0.01 then Alcotest.failf "stddev off: %f" sd

let test_stats_empty () =
  Alcotest.check_raises "empty summarize" (Invalid_argument "Stats.summarize: empty")
    (fun () -> ignore (Stats.summarize [||]))

let test_stats_percentile_unsorted () =
  (* Defensive: percentile must give the order statistic even if the
     caller forgot to sort, and must not mutate the input. *)
  let a = [| 30.0; 10.0; 40.0; 20.0 |] in
  let before = Array.copy a in
  check feq "p50 on unsorted input" 25.0 (Stats.percentile a 0.5);
  check feq "p100 on unsorted input" 40.0 (Stats.percentile a 1.0);
  check Alcotest.bool "input left unmodified" true (a = before)

let test_online_merge =
  qtest "Online.merge equals accumulating the concatenation"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 60) (float_range (-1000.) 1000.))
        (list_size (int_range 0 60) (float_range (-1000.) 1000.)))
    (fun (l1, l2) ->
      let acc l =
        let o = Stats.Online.create () in
        List.iter (Stats.Online.add o) l;
        o
      in
      let merged = Stats.Online.merge (acc l1) (acc l2) in
      let whole = acc (l1 @ l2) in
      let feq a b = Float.abs (a -. b) < 1e-6 || (Float.is_nan a && Float.is_nan b) in
      Stats.Online.count merged = Stats.Online.count whole
      && feq (Stats.Online.mean merged) (Stats.Online.mean whole)
      && feq (Stats.Online.stddev merged) (Stats.Online.stddev whole)
      && (Stats.Online.count whole = 0
         || feq (Stats.Online.min merged) (Stats.Online.min whole)
            && feq (Stats.Online.max merged) (Stats.Online.max whole)))

let test_online_merge_empty () =
  let empty = Stats.Online.create () in
  let one = Stats.Online.create () in
  Stats.Online.add one 42.0;
  check Alcotest.int "empty+x count" 1 (Stats.Online.count (Stats.Online.merge empty one));
  check feq "empty+x mean" 42.0 (Stats.Online.mean (Stats.Online.merge empty one));
  check feq "x+empty mean" 42.0 (Stats.Online.mean (Stats.Online.merge one empty));
  check Alcotest.int "empty+empty" 0 (Stats.Online.count (Stats.Online.merge empty empty))

let test_online_matches_offline =
  qtest "online mean/stddev match offline"
    QCheck2.Gen.(list_size (int_range 2 100) (float_range (-1000.) 1000.))
    (fun l ->
      let a = Array.of_list l in
      let online = Stats.Online.create () in
      Array.iter (Stats.Online.add online) a;
      Float.abs (Stats.Online.mean online -. Stats.mean a) < 1e-6
      && Float.abs (Stats.Online.stddev online -. Stats.stddev a) < 1e-6
      && Stats.Online.count online = Array.length a)

(* ---- Topology ---- *)

let test_topology_presets () =
  check Alcotest.int "xeon threads" 240 (Topology.total_threads Topology.xeon);
  check Alcotest.int "phi threads" 256 (Topology.total_threads Topology.phi);
  check Alcotest.int "amd threads" 32 (Topology.total_threads Topology.amd);
  check Alcotest.int "arm threads" 96 (Topology.total_threads Topology.arm);
  check Alcotest.int "xeon physical" 120 (Topology.physical_cores Topology.xeon)

let test_topology_numbering () =
  let t = Topology.xeon in
  (* physical cores first, then SMT lanes of the same cores in order *)
  check Alcotest.int "thread 0 on socket 0" 0 (Topology.socket_of t 0);
  check Alcotest.int "thread 119 on socket 7" 7 (Topology.socket_of t 119);
  check Alcotest.int "thread 120 is lane 1 of core 0" 0 (Topology.physical_of t 120);
  check Alcotest.int "lane of thread 120" 1 (Topology.smt_lane_of t 120);
  check Alcotest.bool "smt sibling shares core" true (Topology.same_physical t 0 120);
  check Alcotest.bool "sockets differ" false (Topology.same_socket t 0 119)

let test_topology_mapping_invariants =
  qtest "thread decomposition is consistent"
    QCheck2.Gen.(int_range 0 255)
    (fun thread ->
      List.for_all
        (fun t ->
          let n = Topology.total_threads t in
          let thread = thread mod n in
          let p = Topology.physical_of t thread in
          let lane = Topology.smt_lane_of t thread in
          let socket = Topology.socket_of t thread in
          p >= 0 && p < Topology.physical_cores t && lane >= 0 && lane < t.Topology.smt
          && socket >= 0
          && socket < t.Topology.sockets
          && (lane * Topology.physical_cores t) + p = thread)
        Topology.presets)

(* ---- Kmerge ---- *)

(* R runs, 0–300 of them (mostly 0–8), each 0–12 long, with [k1] drawn
   from 0..15 so it repeats within a run and ties across runs.  [k2] is a
   shuffle of 0..N-1 over all N entries, so the tie-break is not the run
   index; each run is then sorted by (k1, k2). *)
let kmerge_gen =
  QCheck2.Gen.(
    let k1s = list_size (int_range 0 12) (int_range 0 15) in
    pair (list_size (frequency [ (2, int_range 0 8); (1, int_range 0 300) ]) k1s) int
    |> map (fun (runs, seed) ->
           let n = List.fold_left (fun acc r -> acc + List.length r) 0 runs in
           let k2 = Array.init n Fun.id in
           Rng.shuffle (Rng.create ~seed:(Int64.of_int seed) ()) k2;
           let next = ref 0 in
           List.map
             (fun r ->
               List.map
                 (fun k1 ->
                   incr next;
                   (k1, k2.(!next - 1)))
                 r
               |> List.sort compare |> Array.of_list)
             runs
           |> Array.of_list))

let kmerge runs =
  let m = Kmerge.create (Array.length runs) in
  let pos = Array.make (Array.length runs) 0 in
  Array.iteri
    (fun r run ->
      if Array.length run > 0 then
        let k1, k2 = run.(0) in
        Kmerge.set m r k1 k2)
    runs;
  let total = Array.fold_left (fun acc run -> acc + Array.length run) 0 runs in
  let w = ref (Kmerge.start m) and out = ref [] in
  for _ = 1 to total do
    let r = !w in
    out := runs.(r).(pos.(r)) :: !out;
    pos.(r) <- pos.(r) + 1;
    w :=
      if pos.(r) < Array.length runs.(r) then
        let k1, k2 = runs.(r).(pos.(r)) in
        Kmerge.next m k1 k2
      else Kmerge.drop m
  done;
  List.rev !out

let test_kmerge_sorts =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"kmerge = sort of the concatenated runs"
       ~print:(fun runs ->
         String.concat " | "
           (Array.to_list
              (Array.map
                 (fun run ->
                   String.concat " "
                     (Array.to_list (Array.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) run)))
                 runs)))
       kmerge_gen
       (fun runs -> kmerge runs = List.sort compare (List.concat_map Array.to_list (Array.to_list runs))))

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng matches int64 reference", `Quick, test_rng_matches_int64_reference);
    ("rng seeds differ", `Quick, test_rng_seed_changes_stream);
    ("rng copy", `Quick, test_rng_copy_independent);
    ("rng split", `Quick, test_rng_split);
    test_rng_int_bounds;
    test_rng_int_in;
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng chance extremes", `Quick, test_rng_chance_extremes);
    ("rng exponential positive", `Quick, test_rng_exponential_positive);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    test_shuffle_is_permutation;
    test_zipf_bounds;
    ("zipf skew", `Quick, test_zipf_skew);
    test_zipf_cdf;
    ("zipf invalid args", `Quick, test_zipf_invalid);
    ("zipf single key", `Quick, test_zipf_single_key);
    ("zipf samples allocate nothing", `Quick, test_zipf_allocates_nothing);
    ("stats summary", `Quick, test_stats_summary);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats empty", `Quick, test_stats_empty);
    ("stats percentile unsorted", `Quick, test_stats_percentile_unsorted);
    test_online_matches_offline;
    test_online_merge;
    ("online merge empty", `Quick, test_online_merge_empty);
    ("topology presets", `Quick, test_topology_presets);
    ("topology numbering", `Quick, test_topology_numbering);
    test_topology_mapping_invariants;
    test_kmerge_sorts;
  ]
