(* DPOR model-checker driver: explore the interleaving spaces of the
   lock-free layer's real data structures (and the seeded mutants) under
   the controlled runtime.

   Exit status: 0 when every selected genuine target verifies and every
   selected mutant is killed; 1 when a genuine target reports a
   violation, a mutant survives, or an exploration budget is exceeded;
   2 on usage errors (an unknown target or mode, a number out of range).

   Output is deterministic for a given command line: exploration is
   depth-first with a seed-rotated default choice, counterexample
   shrinking is greedy and deterministic, and [--jobs] only distributes
   whole targets across domains — each target's exploration stays
   sequential and its report is printed in command-line order, so the
   bytes on stdout do not depend on the parallelism (the determinism
   test in test/test_mcheck.ml and the CI smoke job both diff runs). *)

open Cmdliner
module Mcheck = Ordo_mcheck.Mcheck
module Suites = Ordo_mcheck.Suites
module Mutants = Ordo_mutants.Mutants

type report = { r_name : string; r_text : string; r_failed : bool }

let outcome_line name (t : Suites.target) (o : Mcheck.outcome) ~expect_kill =
  let b = Buffer.create 256 in
  let stats_line (s : Mcheck.stats) =
    let bound =
      match s.preemption_bound with None -> "" | Some k -> Printf.sprintf " bound=%d" k
    in
    Printf.sprintf
      "interleavings=%d sleep-pruned=%d budget-pruned=%d steps=%d max-depth=%d%s"
      s.interleavings s.sleep_pruned s.budget_pruned s.steps_total s.max_depth bound
  in
  let failed =
    match o with
    | Mcheck.Verified s ->
      Buffer.add_string b
        (Printf.sprintf "%-12s %-10s %s\n" name
           (if expect_kill then "SURVIVED" else "verified")
           (stats_line s));
      expect_kill
    | Mcheck.Violation (v, s) ->
      Buffer.add_string b
        (Printf.sprintf "%-12s %-10s %s\n" name
           (if expect_kill then "killed" else "VIOLATION")
           (stats_line s));
      if not expect_kill then Buffer.add_string b v.pretty
      else
        Buffer.add_string b
          (Printf.sprintf "  reason: %s (%d steps, %d switches)\n" v.reason
             (Array.length v.schedule) v.switches);
      (* Every counterexample must reproduce under guided replay and
         render through the stock trace checker — exercised on each
         run, not just in the test suite. *)
      let replayed = t.t_replays v.schedule <> None in
      let tr = t.t_render v.schedule in
      let events = Array.length tr.Ordo_trace.Trace.events in
      Buffer.add_string b
        (Printf.sprintf "  replay: %s; trace: %d events\n"
           (if replayed then "reproduces" else "DOES NOT REPRODUCE")
           events);
      (not expect_kill) || not replayed
    | Mcheck.Budget_exceeded s ->
      Buffer.add_string b
        (Printf.sprintf "%-12s %-10s %s\n" name "BUDGET" (stats_line s));
      true
  in
  (Buffer.contents b, failed)

let run_target ~config ~expect_kill (t : Suites.target) =
  let o = t.t_run config in
  let text, failed = outcome_line t.t_name t o ~expect_kill in
  { r_name = t.t_name; r_text = text; r_failed = failed }

(* Distribute whole targets round-robin over [jobs] domains; the reports
   come back indexed so printing order is independent of completion
   order.  Each domain explores sequentially — Mcheck's state is
   domain-local. *)
let run_all ~jobs ~config ~expect_kill targets =
  let targets = Array.of_list targets in
  let n = Array.length targets in
  let reports = Array.make n None in
  if jobs <= 1 || n <= 1 then
    Array.iteri (fun i t -> reports.(i) <- Some (run_target ~config ~expect_kill t)) targets
  else begin
    let jobs = min jobs n in
    let doms =
      List.init jobs (fun j ->
          Domain.spawn (fun () ->
              let out = ref [] in
              let i = ref j in
              while !i < n do
                out := (!i, run_target ~config ~expect_kill targets.(!i)) :: !out;
                i := !i + jobs
              done;
              !out))
    in
    List.iter
      (fun d -> List.iter (fun (i, r) -> reports.(i) <- Some r) (Domain.join d))
      doms
  end;
  Array.to_list (Array.map Option.get reports)

let run (expect_kill, targets) (_, mode) bound seed max_inter max_steps spin_bound jobs quiet =
  let mode = match bound with Some k -> Mcheck.Bounded k | None -> mode in
  let config =
    {
      Mcheck.default with
      Mcheck.mode;
      seed;
      max_interleavings = max_inter;
      max_steps;
      spin_bound;
    }
  in
  let reports = run_all ~jobs ~config ~expect_kill targets in
  List.iter (fun r -> print_string r.r_text) reports;
  let failed = List.filter (fun r -> r.r_failed) reports in
  if not quiet then
    Printf.printf "ordo-mcheck: %d targets, %d %s\n" (List.length reports)
      (List.length failed)
      (if expect_kill then "surviving mutants" else "failures");
  if failed <> [] then 1 else 0

(* The targets named on the command line (all by default), from the
   mutant pool under --mutants, with whether each must be killed. *)
let targets_arg =
  let names =
    let doc = "Targets to check (default: all).  See the target list in the man page." in
    Arg.(value & pos_all string [] & info [] ~docv:"TARGET" ~doc)
  in
  let mutants =
    let doc =
      "Check the seeded mutants from test/mutants instead of the genuine structures; the \
       expectation flips — every mutant must be $(i,killed) (a violation found) for exit 0."
    in
    Arg.(value & flag & info [ "mutants" ] ~doc)
  in
  let pick names mutants =
    let pool = if mutants then Mutants.all else Suites.all in
    let find n = List.find_opt (fun (t : Suites.target) -> t.t_name = n) pool in
    match List.find_opt (fun n -> find n = None) names with
    | Some u ->
      Error
        (Printf.sprintf "unknown target %S (have: %s)" u
           (String.concat ", " (List.map (fun (t : Suites.target) -> t.t_name) pool)))
    | None -> Ok (mutants, if names = [] then pool else List.filter_map find names)
  in
  Term.(term_result' (const pick $ names $ mutants))

let mode_arg =
  let doc = "Exploration mode: $(b,dpor) (default) or $(b,exhaustive) (no pruning)." in
  let modes =
    Cli.choice ~what:"mode" [ ("dpor", Mcheck.Dpor); ("exhaustive", Mcheck.Exhaustive) ]
  in
  Arg.(value & opt modes (Cli.default modes "dpor") & info [ "mode" ] ~docv:"MODE" ~doc)

let bound_arg =
  let doc = "Bounded-preemption DFS with at most $(docv) preemptions (overrides --mode)." in
  Arg.(value & opt (some (Cli.int_min 0)) None & info [ "preemption-bound" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Rotates the default thread choice (determinism tests vary it)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let max_inter_arg =
  let doc = "Exploration budget: give up on a target beyond $(docv) interleavings." in
  Arg.(value & opt (Cli.int_min 1) 2_000_000 & info [ "max-interleavings" ] ~docv:"N" ~doc)

let max_steps_arg =
  let doc = "Per-interleaving step cap." in
  Arg.(value & opt (Cli.int_min 1) 100_000 & info [ "max-steps" ] ~docv:"N" ~doc)

let spin_arg =
  let doc = "Barren pause rounds before a livelock verdict (at least 1)." in
  Arg.(value & opt (Cli.int_min 1) 16 & info [ "spin-bound" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Explore up to $(docv) targets in parallel (domains).  Output bytes are identical \
     for any value: reports print in command-line order."
  in
  Arg.(value & opt (Cli.int_min 1) 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let quiet_arg =
  let doc = "Print only the per-target reports, no summary line." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let cmd =
  let doc = "Model-check the lock-free layer by systematic interleaving exploration" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Targets (genuine): spinlock, mcs, barrier, deque, oplog, guard.  With \
         $(b,--mutants): mut-oplog, mut-deque, mut-barrier.  Each target runs the real \
         functor over a scheduler-controlled runtime; every shared-memory access is a \
         scheduling point and the explorer covers all interleavings up to DPOR \
         equivalence (and the documented pause-fairness assumption).";
    ]
  in
  Cmd.v (Cmd.info "ordo-mcheck" ~doc ~man)
    Term.(
      const run $ targets_arg $ mode_arg $ bound_arg $ seed_arg $ max_inter_arg
      $ max_steps_arg $ spin_arg $ jobs_arg $ quiet_arg)

let () = exit (Cli.eval cmd)
