(* Post-mortem of a hazard run: walk a collected trace and reconstruct
   when hazards fired, when the guard noticed, and how it degraded.
   This is where "detection latency" and the "degradation timeline" the
   CLI prints come from. *)

module Trace = Ordo_trace.Trace

type summary = {
  hazards : int;  (* injected hazard events *)
  first_hazard : int option;  (* vt of the first one *)
  detections : int;  (* guard.violation events *)
  first_detection : int option;
  detection_latency : int option;  (* first detection - first hazard *)
  stamps : int;  (* guard-issued timestamps *)
  inflations : int;  (* guard.bound events *)
  remeasurements : int;
  final_bound : int option;  (* last bound the guard installed, if any *)
  fallback_at : int option;  (* vt the run degraded to the logical fallback *)
}

let tag_matches t id name =
  match Trace.find_tag t name with Some tid -> id = tid | None -> false

let summarize (t : Trace.t) =
  let hazards = ref 0
  and first_hazard = ref None
  and detections = ref 0
  and first_detection = ref None
  and stamps = ref 0
  and inflations = ref 0
  and remeasurements = ref 0
  and final_bound = ref None
  and fallback_at = ref None in
  let first cell time = if !cell = None then cell := Some time in
  Array.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Hazard ->
        incr hazards;
        first first_hazard e.time
      | Trace.Guard ->
        if tag_matches t e.a Trace.tag_guard_ts then incr stamps
        else if tag_matches t e.a Trace.tag_guard_violation then begin
          incr detections;
          first first_detection e.time
        end
        else if tag_matches t e.a Trace.tag_guard_bound then begin
          incr inflations;
          final_bound := Some e.b
        end
        else if tag_matches t e.a Trace.tag_guard_remeasure then begin
          incr remeasurements;
          final_bound := Some e.b
        end
        else if tag_matches t e.a Trace.tag_guard_fallback then first fallback_at e.time
      | _ -> ())
    t.events;
  let latency =
    match (!first_hazard, !first_detection) with
    | Some h, Some d -> Some (d - h)
    | _ -> None
  in
  {
    hazards = !hazards;
    first_hazard = !first_hazard;
    detections = !detections;
    first_detection = !first_detection;
    detection_latency = latency;
    stamps = !stamps;
    inflations = !inflations;
    remeasurements = !remeasurements;
    final_bound = !final_bound;
    fallback_at = !fallback_at;
  }

(* Human-readable event log: every hazard and every guard *action*
   (stamps are summarized, not listed — there are thousands). *)
let timeline (t : Trace.t) =
  let base =
    Array.fold_left
      (fun acc (e : Trace.event) ->
        match e.kind with Trace.Hazard | Trace.Guard -> min acc e.time | _ -> acc)
      max_int t.events
  in
  let entries = ref [] in
  Array.iter
    (fun (e : Trace.event) ->
      let add line = entries := (e.time, line) :: !entries in
      match e.kind with
      | Trace.Hazard ->
        add
          (Printf.sprintf "hazard %-8s target=%d magnitude=%+d" (Trace.hazard_name e.a) e.b e.c)
      | Trace.Guard ->
        if tag_matches t e.a Trace.tag_guard_violation then
          add (Printf.sprintf "guard detects violation: excess %d ns over bound %d ns" e.b e.c)
        else if tag_matches t e.a Trace.tag_guard_bound then
          add (Printf.sprintf "guard inflates boundary to %d ns (excess %d ns)" e.b e.c)
        else if tag_matches t e.a Trace.tag_guard_remeasure then
          add (Printf.sprintf "guard recalibrates boundary to %d ns" e.b)
        else if tag_matches t e.a Trace.tag_guard_fallback then
          add (Printf.sprintf "guard degrades to logical fallback (seed %d)" e.b)
      | _ -> ())
    t.events;
  (* [entries] is newest first; the timeline reads oldest first. *)
  List.rev_map (fun (time, line) -> (time - base, line)) !entries

let describe (s : summary) =
  let opt = function None -> "-" | Some v -> string_of_int v in
  [
    Printf.sprintf "hazards injected        %d (first at vt %s)" s.hazards (opt s.first_hazard);
    Printf.sprintf "guard stamps issued     %d" s.stamps;
    Printf.sprintf "violations detected     %d (first at vt %s)" s.detections
      (opt s.first_detection);
    Printf.sprintf "detection latency (ns)  %s" (opt s.detection_latency);
    Printf.sprintf "boundary inflations     %d (final bound %s ns)" s.inflations
      (opt s.final_bound);
    Printf.sprintf "remeasurements          %d" s.remeasurements;
    Printf.sprintf "fallback engaged        %s"
      (match s.fallback_at with None -> "no" | Some vt -> Printf.sprintf "at vt %d" vt);
  ]
