(* The per-layer ledger of a traced pass: spans rebuilt from the trace the
   wrappers and the workload closures emitted, plus host-side helpers.

   A span has a layer, a start and an end in virtual ns, the span that
   enclosed it on the same simulated thread (its parent) and the
   operation it belongs to (the enclosing [bench.op] span).  A layer's
   self time is a span's duration minus the part its child spans cover;
   children of one span run one after another on one thread, so the
   covered part is the sum of their durations. *)

module Trace = Ordo_trace.Trace

(* ---- host-side helpers ---- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* The host-speed probe: fixed work of the benchmark's own, timed before
   every timed piece of a run.  Other tenants of the host slow it for
   seconds to minutes at a time, so the probe does in small what the
   simulator does: it pops and pushes a binary-heap event queue of 1,024
   simulated threads, reads a random byte of a 16 MB table (not scanned
   by the GC) per event, and allocates per-thread state in a Hashtbl.
   Its mean over a run tracks the mean pass time of that run far better
   than a memory-latency or integer loop does, so host times are
   reported scaled to the reference speed [probe_ref_s]. *)
let probe_table = lazy (Bytes.make (16 lsl 20) '\001')

let probe () =
  let table = Lazy.force probe_table in
  let mask = Bytes.length table - 1 in
  let t0 = now () in
  let heap = Array.make 1024 0 and size = ref 0 in
  let push k =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > k do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- k
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let k = heap.(!size) and i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
      if c < !size && heap.(c) < k then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    done;
    heap.(!i) <- k;
    top
  in
  (* An event is (time lsl 10) lor thread. *)
  let state = Hashtbl.create 1024 and rng = ref 12345 in
  for thread = 0 to 1023 do
    push thread
  done;
  for _ = 1 to 150_000 do
    let ev = pop () in
    let thread = ev land 1023 and time = ev lsr 10 in
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    let byte = Char.code (Bytes.unsafe_get table (!rng land mask)) in
    let recent =
      match Hashtbl.find_opt state thread with Some (_, l) when List.length l < 8 -> l | _ -> []
    in
    Hashtbl.replace state thread (time, byte :: recent);
    push (((time + 1 + ((!rng lsr 20) land 1023)) lsl 10) lor thread)
  done;
  now () -. t0

(* The probe's time on the reference host (the 2-vCPU VM this benchmark
   was built on, in a quiet spell). *)
let probe_ref_s = 0.040

let median xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "median of nothing"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of this process so far, in MB (Linux VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line ->
      (match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.0
      | None -> scan ())
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---- spans ---- *)

type layer = Op | Ts | Update | Lookup | Attempt

let layers = [ (Wrap.tag_op, Op); (Wrap.tag_ts, Ts); (Wrap.tag_update, Update);
               (Wrap.tag_lookup, Lookup); (Wrap.tag_attempt, Attempt) ]

let layer_name = function
  | Op -> "op"
  | Ts -> "core.ts"
  | Update -> "oplog.update"
  | Lookup -> "oplog.lookup"
  | Attempt -> "db.attempt"

type span = {
  id : int;
  op : int;  (** id of the enclosing operation span, -1 if none *)
  parent : int;  (** -1 for a root *)
  tid : int;
  layer : layer;
  start : int;
  stop : int;
  mutable covered : int;  (** virtual ns covered by child spans *)
}

let self s = s.stop - s.start - s.covered

type open_span = { o_id : int; o_op : int; o_layer : layer; o_start : int }

(* Rebuild every benchmark span from a collected trace.  Events are sorted
   by (time, seq), and one simulated thread's events keep their emission
   order, so a stack per thread pairs begins with ends. *)
let spans (t : Trace.t) =
  let by_tag =
    List.filter_map
      (fun (tag, layer) -> Option.map (fun id -> (id, layer)) (Trace.find_tag t tag))
      layers
  in
  let stacks = Hashtbl.create 256 in
  let closed = ref [] and next = ref 0 in
  Array.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | (Trace.Span_begin | Trace.Span_end) when List.mem_assoc e.a by_tag ->
        let layer = List.assoc e.a by_tag in
        let stack = Option.value (Hashtbl.find_opt stacks e.tid) ~default:[] in
        if e.kind = Trace.Span_begin then begin
          let id = !next in
          incr next;
          let op = if layer = Op then id else match stack with o :: _ -> o.o_op | [] -> -1 in
          Hashtbl.replace stacks e.tid ({ o_id = id; o_op = op; o_layer = layer; o_start = e.time } :: stack)
        end
        else begin
          match stack with
          | o :: rest when o.o_layer = layer ->
            Hashtbl.replace stacks e.tid rest;
            let parent = match rest with p :: _ -> p.o_id | [] -> -1 in
            closed :=
              { id = o.o_id; op = o.o_op; parent; tid = e.tid; layer; start = o.o_start;
                stop = e.time; covered = 0 }
              :: !closed
          | _ -> failwith (Printf.sprintf "unbalanced %s span on thread %d" (layer_name layer) e.tid)
        end
      | _ -> ())
    t.events;
  Hashtbl.iter
    (fun tid stack -> if stack <> [] then failwith (Printf.sprintf "open span left on thread %d" tid))
    stacks;
  let all = Array.make !next None in
  List.iter (fun s -> all.(s.id) <- Some s) !closed;
  let all = Array.map Option.get all in
  Array.iter (fun s -> if s.parent >= 0 then all.(s.parent).covered <- all.(s.parent).covered + (s.stop - s.start)) all;
  all

type summary = {
  calls : int;
  self_vns : float;  (** mean self time per span *)
}

let summarize all layer =
  let n = ref 0 and self_total = ref 0 in
  Array.iter
    (fun s ->
      if s.layer = layer then begin
        incr n;
        self_total := !self_total + self s
      end)
    all;
  { calls = !n; self_vns = (if !n = 0 then 0.0 else float_of_int !self_total /. float_of_int !n) }

(* Virtual ns each operation lost to retries: from its first attempt's
   start to its last attempt's start (failed attempts plus backoff). *)
let retry_vns_total all =
  let first = Hashtbl.create 1024 and last = Hashtbl.create 1024 in
  Array.iter
    (fun s ->
      if s.layer = Attempt && s.op >= 0 then begin
        if not (Hashtbl.mem first s.op) then Hashtbl.replace first s.op s.start;
        Hashtbl.replace last s.op s.start
      end)
    all;
  Hashtbl.fold (fun op f acc -> acc + (Hashtbl.find last op - f)) first 0

(* One line per span, written once after the pass. *)
let write_tsv path all =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\top\tparent\ttid\tlayer\tstart_vns\tend_vns\tself_vns\n";
      Array.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n" s.id s.op s.parent s.tid
            (layer_name s.layer) s.start s.stop (self s))
        all)
