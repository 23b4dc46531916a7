(* Benchmark harness entry point: runs entries of [Experiments.all], each
   under its section title.

   With no arguments, regenerates every table and figure of the paper at a
   reduced scale, runs the ablation studies and the live-host Bechamel
   microbenchmarks.  Select individual experiments by name, and use
   [--full] for paper-scale sweeps (slower).

   [--jobs n] runs independent experiment cells on n domains.  Every cell
   executes under a fresh simulator instance whether it runs sequentially
   or on a pool domain, so the printed tables are byte-identical for any
   job count.  [--json FILE] writes a machine-readable perf record:
   per-experiment wall time and simulated event counts (plus the cluster
   network's pops and re-stamps where an experiment runs the service),
   and the engine's single-thread throughput probes. *)

module Report = Ordo_util.Report

let write_json path ~jobs ~full ~probes records total_wall total_events =
  let open Perfgate in
  let int i = Num (float_of_int i) in
  let experiment (name, wall, events, net) =
    let net =
      match net with
      | None -> []
      | Some (pops, restamps) -> [ ("net_pops", int pops); ("net_restamps", int restamps) ]
    in
    Obj ([ ("name", Str name); ("wall_s", Num wall); ("events", int events) ] @ net)
  in
  let probe (r : Perfprobe.result) =
    Obj
      [
        ("name", Str r.name);
        ("events", int r.events);
        ("wall_s", Num r.wall_s);
        ("events_per_s", Num (Float.round r.events_per_s));
        ("minor_words_per_event", Num r.minor_words_per_event);
      ]
  in
  let per_s = if total_wall > 0.0 then float_of_int total_events /. total_wall else 0.0 in
  let record =
    Obj
      [
        ("jobs", int jobs);
        ("host_cpus", int (Domain.recommended_domain_count ()));
        ("full", Bool full);
        ( "total",
          Obj
            [
              ("wall_s", Num total_wall);
              ("events", int total_events);
              ("events_per_s", Num (Float.round per_s));
            ] );
        ("experiments", Arr (List.map experiment records));
        ("engine_single_thread", Obj [ ("live_probes", Arr (List.map probe probes)) ]);
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string record));
  Printf.printf "perf record written to %s\n%!" path

(* Every experiment by name, with its section title and body. *)
let experiments = List.map (fun (name, title, run) -> (name, (title, run))) Experiments.all

let run_experiments selected full jobs (json, check_against) analyze live =
  (* A larger minor heap (32 MB vs the 2 MB default) cuts minor
     collections ~16x on the sweep.  Simulated behavior is unaffected —
     virtual time never depends on the GC — so tables stay byte-identical;
     only the bench binary opts in. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22 };
  Harness.jobs := jobs;
  Harness.live := live;
  let analyze_exp = ("analyze", List.assoc "analyze" experiments) in
  let selected =
    match (selected, analyze) with
    | [], true -> [ analyze_exp ]
    | selected, true when not (List.mem_assoc "analyze" selected) -> selected @ [ analyze_exp ]
    | [], false -> experiments
    | selected, _ -> selected
  in
  (* Probes run first, on a pristine heap: measured after the sweep
     they would charge the engine for the sweep's heap and fiber-stack
     fragmentation (~15% on the allocation-heavy profiles). *)
  let probes = if json <> None then Perfprobe.run () else [] in
  (* When writing a perf record, measure every machine preset's Ordo
     boundary up front.  The boundary cache is shared across cells, so
     without this the first selected experiment to need a machine pays
     the measurement's simulated events inside its own window — making
     per-experiment event counts depend on which experiments ran
     before, which is exactly the column the perf gate compares.
     Boundary values are deterministic, so tables are unaffected. *)
  if json <> None then
    List.iter
      (fun m -> ignore (Harness.boundary_of m : int))
      Ordo_sim.Machine.presets;
  let t0_all = Unix.gettimeofday () in
  let e0_all = Ordo_sim.Engine.events_processed () in
  let records =
    List.map
      (fun (name, (title, run)) ->
        let t0 = Unix.gettimeofday () in
        let e0 = Ordo_sim.Engine.events_processed () in
        Harness.net_work := None;
        Report.section title;
        run ~full;
        ( name,
          Unix.gettimeofday () -. t0,
          Ordo_sim.Engine.events_processed () - e0,
          !Harness.net_work ))
      selected
  in
  print_newline ();
  let total_wall = Unix.gettimeofday () -. t0_all in
  let total_events = Ordo_sim.Engine.events_processed () - e0_all in
  Option.iter
    (fun path -> write_json path ~jobs ~full ~probes records total_wall total_events)
    json;
  (* The perf delta gate (CI): deterministic columns only — exact event
     counts and network work per experiment, per-event allocation
     within tolerance. *)
  match check_against with
  | Some baseline when not (Perfgate.check ~baseline ~current:(Option.get json)) -> 1
  | _ -> 0

open Cmdliner

let names_arg =
  let doc =
    "Experiments to run (default: all).  Available: "
    ^ String.concat ", " (List.map fst experiments)
  in
  Arg.(
    value
    & pos_all (Cli.choice ~what:"experiment" experiments) []
    & info [] ~docv:"EXPERIMENT" ~doc)

let full_arg =
  let doc = "Paper-scale sweeps: denser core counts, more measurement runs (slower)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let jobs_arg =
  let doc =
    "Run independent experiment cells on $(docv) domains (capped at the host's hardware \
     parallelism).  Output is byte-identical for any job count; only the wall clock changes."
  in
  Arg.(value & opt (Cli.int_min 1) 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Write a JSON perf record (per-experiment wall time and event counts, plus engine \
     single-thread probes) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let check_against_arg =
  let doc =
    "Compare the record written by $(b,--json) against the committed baseline $(docv) and \
     exit non-zero on regression.  Only deterministic columns are gated: per-experiment \
     simulated event counts and network pops and re-stamps must match exactly, and \
     per-probe allocation (minor words per event) must stay within tolerance — wall clock \
     is never compared, so the gate is reliable on a loaded single-CPU CI host."
  in
  Arg.(value & opt (some string) None & info [ "check-against" ] ~docv:"BASELINE" ~doc)

(* The record to write and the baseline to gate it against. *)
let record_arg =
  let pair json baseline =
    match (json, baseline) with
    | None, Some _ -> Error "--check-against needs --json (the record to compare)"
    | _ -> Ok (json, baseline)
  in
  Term.(term_result' (const pair $ json_arg $ check_against_arg))

let live_arg =
  let doc =
    "Measure live multi-domain throughput in the $(b,live) experiment (Ordo vs shared-counter \
     sequencer on the work-stealing pool, $(b,--jobs) workers).  Off by default: the live \
     numbers depend on the host, so CI and the determinism checks only see the invariant \
     lines."
  in
  let env = Cmd.Env.info "ORDO_LIVE" ~doc:"Same as $(b,--live) when set to a non-empty value." in
  Arg.(value & flag & info [ "live" ] ~env ~doc)

let analyze_arg =
  let doc =
    "Run the race-detector verdict pass (the $(b,analyze) experiment): every workload and \
     seeded fixture under the dynamic detector.  Alone it selects just that experiment; \
     with explicit experiment names it appends it."
  in
  Arg.(value & flag & info [ "analyze" ] ~doc)

let cmd =
  let doc = "Regenerate the tables and figures of the Ordo paper (EuroSys'18)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Every experiment runs on a deterministic simulator of the paper's four machines \
         (Table 1 presets); $(b,micro) additionally measures the live host.  See \
         EXPERIMENTS.md for the paper-vs-measured record.";
    ]
  in
  Cmd.v
    (Cmd.info "ordo-bench" ~doc ~man)
    Term.(
      const run_experiments $ names_arg $ full_arg $ jobs_arg $ record_arg $ analyze_arg
      $ live_arg)

let () = exit (Cli.eval cmd)
