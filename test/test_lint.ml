(* Tests for the Ordo-API lint: each rule on a minimal source, the
   exemptions (sentinels, uncertainty bindings, allow pragmas, path
   scoping), and the committed seeded-misuse fixture, which must produce
   at least one diagnostic from every rule. *)

module Lint = Ordo_lint_rules.Lint

let check = Alcotest.check

let diags ?(all_rules = true) ~file src =
  match Lint.lint_source ~all_rules ~file src with
  | Ok ds -> ds
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let rules_of ds = List.sort_uniq compare (List.map (fun d -> d.Lint.rule) ds)

let test_poly_compare_fires () =
  let ds = diags ~file:"lib/db/x.ml" "let newer commit_ts start_ts = commit_ts > start_ts" in
  check Alcotest.(list string) "fires" [ "poly-compare" ] (rules_of ds);
  let ds = diags ~file:"lib/db/x.ml" "let pick a b = max a.ts b.ts" in
  check Alcotest.(list string) "field access too" [ "poly-compare" ] (rules_of ds);
  let ds = diags ~file:"lib/db/x.ml" "let order = compare deadline limit" in
  check Alcotest.(list string) "compare too" [ "poly-compare" ] (rules_of ds)

let test_poly_compare_exemptions () =
  check Alcotest.(list string) "0 sentinel" []
    (rules_of (diags ~file:"lib/db/x.ml" "let unset t_ts = t_ts = 0"));
  check Alcotest.(list string) "max_int sentinel" []
    (rules_of (diags ~file:"lib/db/x.ml" "let inf t_ts = t_ts = max_int"));
  check Alcotest.(list string) "non-timestamp names" []
    (rules_of (diags ~file:"lib/db/x.ml" "let more a b = a > b"));
  check Alcotest.(list string) "monomorphic module compare" []
    (rules_of (diags ~file:"lib/db/x.ml" "let c a_ts b_ts = Int.compare a_ts b_ts"))

let test_cmp_zero_fires () =
  let ds = diags ~file:"lib/db/x.ml" "let eq a b = cmp_time a b = 0" in
  check Alcotest.(list string) "fires" [ "cmp-zero-equality" ] (rules_of ds);
  let ds = diags ~file:"lib/db/x.ml" "let eq a b = 0 = T.cmp a b" in
  check Alcotest.(list string) "reversed too" [ "cmp-zero-equality" ] (rules_of ds)

let test_cmp_zero_uncertain_binding_suppresses () =
  check Alcotest.(list string) "named uncertainty check is fine" []
    (rules_of (diags ~file:"lib/db/x.ml" "let is_uncertain a b = cmp_time a b = 0"));
  check Alcotest.(list string) "nested binding too" []
    (rules_of
       (diags ~file:"lib/db/x.ml"
          "let f a b = let begun_uncertain = T.cmp a b = 0 in begun_uncertain"));
  check Alcotest.(list string) "nonzero verdicts are fine" []
    (rules_of (diags ~file:"lib/db/x.ml" "let before a b = cmp_time a b = -1"))

let test_raw_clock_fires () =
  let ds = diags ~file:"bench/x.ml" "let t = Clock.Host.get_time ()" in
  check Alcotest.(list string) "get_time" [ "raw-clock-read" ] (rules_of ds);
  let ds = diags ~file:"bench/x.ml" "let t = Ordo_clock.Tsc.ticks ()" in
  check Alcotest.(list string) "ticks" [ "raw-clock-read" ] (rules_of ds)

let test_raw_get_time_fires () =
  let ds = diags ~file:"lib/rlu/x.ml" "let stamp () = R.get_time ()" in
  check Alcotest.(list string) "fires" [ "raw-get-time" ] (rules_of ds);
  check Alcotest.(list string) "T.get is the idiom" []
    (rules_of (diags ~file:"lib/rlu/x.ml" "let stamp () = T.get ()"))

let test_raw_await_clock_fires () =
  (* Waiting on the raw clock bypasses T.after just as reading it
     bypasses T.get. *)
  let scoped file src = rules_of (diags ~all_rules:false ~file src) in
  check Alcotest.(list string) "flagged in lib/oplog" [ "raw-get-time" ]
    (scoped "lib/oplog/x.ml" "let stamp t = R.await_clock (fun v -> T.cmp v t = 1)");
  check Alcotest.(list string) "flagged in lib/db" [ "raw-get-time" ]
    (scoped "lib/db/x.ml" "let wait = R.await_clock");
  check Alcotest.(list string) "T.after is the idiom" []
    (scoped "lib/oplog/x.ml" "let stamp t = T.after t");
  check Alcotest.(list string) "the primitive itself may wait" []
    (scoped "lib/core/ordo.ml" "let new_time t = R.await_clock (fun v -> cmp_time v t = 1)")

let test_atomic_confinement_fires () =
  let ds = diags ~file:"lib/oplog/x.ml" "let c = Atomic.make 0" in
  check Alcotest.(list string) "fires" [ "atomic-confinement" ] (rules_of ds);
  let ds = diags ~file:"lib/oplog/x.ml" "let v = Stdlib.Atomic.get c" in
  check Alcotest.(list string) "Stdlib-qualified too" [ "atomic-confinement" ] (rules_of ds);
  check Alcotest.(list string) "runtime-surface idiom is fine" []
    (rules_of (diags ~file:"lib/oplog/x.ml" "let v = R.read (R.cell 0)"));
  check Alcotest.(list string) "other modules' members are fine" []
    (rules_of (diags ~file:"lib/oplog/x.ml" "let v = Array.get a 0"))

let test_atomic_confinement_scoping () =
  let scoped file src = rules_of (diags ~all_rules:false ~file src) in
  check Alcotest.(list string) "allowed in lib/runtime" []
    (scoped "lib/runtime/real.ml" "let c = Atomic.make 0");
  check Alcotest.(list string) "allowed in lib/simcore" []
    (scoped "lib/simcore/engine.ml" "let c = Atomic.make 0");
  check Alcotest.(list string) "flagged in lib/trace" [ "atomic-confinement" ]
    (scoped "lib/trace/x.ml" "let c = Atomic.make 0");
  check Alcotest.(list string) "flagged in bench" [ "atomic-confinement" ]
    (scoped "bench/x.ml" "let c = Atomic.make 0");
  check Alcotest.(list string) "pragma opts a justified site out" []
    (scoped "lib/trace/x.ml"
       "[@@@ordo_lint.allow \"atomic-confinement\"]\nlet c = Atomic.make 0")

let test_path_scoping () =
  (* Without --all-rules the rules only apply in their home directories. *)
  let scoped file src = rules_of (diags ~all_rules:false ~file src) in
  check Alcotest.(list string) "poly-compare off outside protocol dirs" []
    (scoped "bench/x.ml" "let newer commit_ts start_ts = commit_ts > start_ts");
  check Alcotest.(list string) "poly-compare on in lib/db" [ "poly-compare" ]
    (scoped "lib/db/x.ml" "let newer commit_ts start_ts = commit_ts > start_ts");
  check Alcotest.(list string) "raw clock allowed in lib/clock" []
    (scoped "lib/clock/x.ml" "let t = Clock.Host.get_time ()");
  check Alcotest.(list string) "raw clock flagged elsewhere" [ "raw-clock-read" ]
    (scoped "bin/x.ml" "let t = Clock.Host.get_time ()");
  check Alcotest.(list string) "raw get_time only inside substrates" []
    (scoped "bin/x.ml" "let t = R.get_time ()")

let test_sched_scoping () =
  (* The scheduler is both a protocol dir (poly-compare, cmp-zero) and a
     substrate dir (raw-get-time); raw clock reads were already flagged
     everywhere outside lib/clock + lib/core. *)
  let scoped file src = rules_of (diags ~all_rules:false ~file src) in
  check Alcotest.(list string) "poly-compare on in lib/sched" [ "poly-compare" ]
    (scoped "lib/sched/x.ml" "let newer commit_ts start_ts = commit_ts > start_ts");
  check Alcotest.(list string) "cmp-zero on in lib/sched" [ "cmp-zero-equality" ]
    (scoped "lib/sched/x.ml" "let eq a b = cmp_time a b = 0");
  check Alcotest.(list string) "raw get_time flagged in lib/sched" [ "raw-get-time" ]
    (scoped "lib/sched/x.ml" "let stamp () = R.get_time ()");
  check Alcotest.(list string) "raw clock reads flagged in lib/sched" [ "raw-clock-read" ]
    (scoped "lib/sched/x.ml" "let t = Clock.Host.get_time ()")

let test_service_scoping () =
  (* lib/service joined both scope lists in PR 10: it stamps client
     operations (poly-compare, cmp-zero) and sits on the runtime like
     any other substrate (raw-get-time). *)
  let scoped file src = rules_of (diags ~all_rules:false ~file src) in
  check Alcotest.(list string) "poly-compare on in lib/service" [ "poly-compare" ]
    (scoped "lib/service/x.ml" "let newer commit_ts start_ts = commit_ts > start_ts");
  check Alcotest.(list string) "lease deadlines are timestamps too" [ "poly-compare" ]
    (scoped "lib/service/lease.ml" "let live now_ts l = now_ts <= l.deadline");
  check Alcotest.(list string) "cmp-zero on in lib/service" [ "cmp-zero-equality" ]
    (scoped "lib/service/x.ml" "let eq a b = cmp_time a b = 0");
  check Alcotest.(list string) "raw get_time flagged in lib/service" [ "raw-get-time" ]
    (scoped "lib/service/x.ml" "let stamp () = R.get_time ()");
  check Alcotest.(list string) "raw clock reads flagged in lib/service" [ "raw-clock-read" ]
    (scoped "lib/service/x.ml" "let t = Clock.Host.get_time ()")

let test_allow_pragma () =
  let src =
    "[@@@ordo_lint.allow \"poly-compare\"]\nlet newer commit_ts start_ts = commit_ts > start_ts"
  in
  check Alcotest.(list string) "pragma disables the rule" []
    (rules_of (diags ~file:"lib/db/x.ml" src));
  let src =
    "[@@@ordo_lint.allow \"poly-compare\"]\nlet t = Clock.Host.get_time ()"
  in
  check Alcotest.(list string) "only the named rule" [ "raw-clock-read" ]
    (rules_of (diags ~file:"lib/db/x.ml" src))

let test_parse_error_reported () =
  match Lint.lint_source ~all_rules:true ~file:"x.ml" "let let let" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

let test_misuse_fixture () =
  (* The committed fixture: every rule must fire at least once.
     [dune runtest] runs in test/, [dune exec] from the root. *)
  let path =
    List.find_opt Sys.file_exists
      [ "fixtures/lint_misuse.ml"; "test/fixtures/lint_misuse.ml" ]
    |> Option.value ~default:"fixtures/lint_misuse.ml"
  in
  match Lint.lint_file ~all_rules:true path with
  | Error e -> Alcotest.failf "fixture unreadable: %s" e
  | Ok ds ->
    check Alcotest.(list string) "all five rules fire" (List.sort compare Lint.rule_ids)
      (rules_of ds);
    check Alcotest.bool "at least five diagnostics" true (List.length ds >= 5)

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    case "poly-compare fires on timestamps" test_poly_compare_fires;
    case "poly-compare exemptions" test_poly_compare_exemptions;
    case "cmp_time = 0 as equality fires" test_cmp_zero_fires;
    case "uncertainty bindings suppress cmp-zero" test_cmp_zero_uncertain_binding_suppresses;
    case "raw clock reads fire" test_raw_clock_fires;
    case "raw get_time in substrates fires" test_raw_get_time_fires;
    case "raw await_clock in substrates fires" test_raw_await_clock_fires;
    case "atomic confinement fires" test_atomic_confinement_fires;
    case "atomic confinement scoping" test_atomic_confinement_scoping;
    case "path scoping" test_path_scoping;
    case "lib/sched scoping" test_sched_scoping;
    case "lib/service scoping" test_service_scoping;
    case "allow pragma" test_allow_pragma;
    case "parse errors surface" test_parse_error_reported;
    case "misuse fixture fires every rule" test_misuse_fixture;
  ]
