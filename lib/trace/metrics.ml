(* Aggregation and text reporting over a collected trace: machine-wide
   totals (per-core Welford accumulators combined with [Online.merge]),
   hottest-line ranking (a top-n pass over the unordered [Trace.lines]),
   and aligned tables for the bench reports. *)

module Stats = Ordo_util.Stats
module Report = Ordo_util.Report

let totals (t : Trace.t) =
  let acc =
    {
      Trace.core = -1;
      transfers = Array.make Trace.n_classes 0;
      invalidations = 0;
      inval_copies = 0;
      stalls = 0;
      stall_ns = 0;
      clock_reads = 0;
      pauses = 0;
      probes = 0;
      hazards = 0;
      guards = 0;
      transfer_lat = Stats.Online.create ();
    }
  in
  let lat =
    Array.fold_left
      (fun lat (c : Trace.core_stat) ->
        Array.iteri (fun i n -> acc.transfers.(i) <- acc.transfers.(i) + n) c.transfers;
        acc.invalidations <- acc.invalidations + c.invalidations;
        acc.inval_copies <- acc.inval_copies + c.inval_copies;
        acc.stalls <- acc.stalls + c.stalls;
        acc.stall_ns <- acc.stall_ns + c.stall_ns;
        acc.clock_reads <- acc.clock_reads + c.clock_reads;
        acc.pauses <- acc.pauses + c.pauses;
        acc.probes <- acc.probes + c.probes;
        acc.hazards <- acc.hazards + c.hazards;
        acc.guards <- acc.guards + c.guards;
        Stats.Online.merge lat c.transfer_lat)
      acc.transfer_lat t.cores
  in
  (acc, lat)

let transfers_total (c : Trace.core_stat) = Array.fold_left ( + ) 0 c.transfers

(* Hotter first: more [transfer_ns + stall_ns], then the lower line id. *)
let hotter (a : Trace.line_stat) (b : Trace.line_stat) =
  let ha = a.transfer_ns + a.stall_ns and hb = b.transfer_ns + b.stall_ns in
  ha > hb || (ha = hb && a.line < b.line)

(* [t.lines] is unordered: one pass keeps the [n] hottest, hottest first,
   by insertion into [top] — O(L n), and callers ask for n <= 5. *)
let hottest ?(n = 5) (t : Trace.t) =
  let k = Int.min (Int.max n 0) (Array.length t.lines) in
  let top = Array.sub t.lines 0 k and len = ref 0 in
  Array.iter
    (fun l ->
      if !len < k || (k > 0 && hotter l top.(k - 1)) then begin
        let i = ref (Int.min !len (k - 1)) in
        while !i > 0 && hotter l top.(!i - 1) do
          top.(!i) <- top.(!i - 1);
          decr i
        done;
        top.(!i) <- l;
        len := Int.min (!len + 1) k
      end)
    t.lines;
  Array.to_list top

(* ---- tables ---- *)

let core_header =
  [ "core"; "xfer"; "l1"; "llc"; "mesh"; "cross"; "mem"; "inval"; "stall"; "stall_ns"; "clk"; "pause"; "hzrd"; "guard" ]

let core_row (c : Trace.core_stat) =
  [
    (if c.core < 0 then "all" else string_of_int c.core);
    string_of_int (transfers_total c);
    string_of_int c.transfers.(Trace.cls_l1);
    string_of_int c.transfers.(Trace.cls_llc);
    string_of_int c.transfers.(Trace.cls_mesh);
    string_of_int c.transfers.(Trace.cls_cross);
    string_of_int c.transfers.(Trace.cls_mem);
    string_of_int c.invalidations;
    string_of_int c.stalls;
    string_of_int c.stall_ns;
    string_of_int c.clock_reads;
    string_of_int c.pauses;
    string_of_int c.hazards;
    string_of_int c.guards;
  ]

(* Sub-sample wide machines so a 240-core table stays readable. *)
let per_core_rows ?(max_rows = 16) (t : Trace.t) =
  let n = Array.length t.cores in
  let step = max 1 ((n + max_rows - 1) / max_rows) in
  Array.to_list t.cores
  |> List.filteri (fun i _ -> i mod step = 0)
  |> List.map core_row

let print ?(label = "trace") (t : Trace.t) =
  let total, lat = totals t in
  Report.table
    ~title:(Printf.sprintf "%s: per-core coherence traffic" label)
    ~header:core_header
    (per_core_rows t @ [ core_row total ]);
  if Stats.Online.count lat > 0 then
    Report.kv "transfer latency ns (mean/max)"
      (Printf.sprintf "%.0f/%.0f" (Stats.Online.mean lat) (Stats.Online.max lat));
  if t.dropped > 0 then Report.kv "ring-dropped events (counters stay exact)" (string_of_int t.dropped);
  let hot = hottest ~n:5 t in
  if hot <> [] then
    Report.table
      ~title:(Printf.sprintf "%s: hottest cache lines" label)
      ~header:[ "line"; "xfer"; "inval"; "xfer_ns"; "stall_ns" ]
      (List.map
         (fun (l : Trace.line_stat) ->
           [
             Trace.line_label t l.line;
             string_of_int l.transfers;
             string_of_int l.invalidations;
             string_of_int l.transfer_ns;
             string_of_int l.stall_ns;
           ])
         hot)
