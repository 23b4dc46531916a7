(* The tools' shared command-line vocabulary: bounded converters accept
   their bounds and reject one past them, a choice's error names every
   valid value, and [Cli.eval] maps every usage error to exit 2. *)

open Cmdliner

let parses conv s = Result.is_ok (Arg.conv_parser conv s)

let check_parses name conv accepted rejected =
  let expect ok s =
    Alcotest.(check bool)
      (Printf.sprintf "%s %s %s" name (if ok then "accepts" else "rejects") s)
      ok (parses conv s)
  in
  List.iter (expect true) accepted;
  List.iter (expect false) rejected

let test_int_bounds () =
  check_parses "int_min 1" (Cli.int_min 1) [ "1"; "7" ] [ "0"; "x" ];
  check_parses "int_min 0" (Cli.int_min 0) [ "0" ] [ "-1" ];
  check_parses "int_in 0 100" (Cli.int_in 0 100) [ "0"; "100" ] [ "-1"; "101" ];
  check_parses "float_in 0 1" (Cli.float_in 0.0 1.0) [ "0"; "0.99" ] [ "-0.01"; "1"; "nan" ]

let test_choice_error_names_every_value () =
  match Arg.conv_parser Cli.machine "cray" with
  | Ok _ -> Alcotest.fail "cray is not a machine"
  | Error (`Msg m) ->
    Alcotest.(check string) "error" {|unknown machine "cray" (available: xeon phi amd arm)|} m

(* [--total] at least 1, [--used] in 0..10 and not above [--total]; the
   command's own code is [total - used]. *)
let small_cmd =
  let total = Arg.(value & opt (Cli.int_min 1) 1 & info [ "total" ]) in
  let used = Arg.(value & opt (Cli.int_in 0 10) 0 & info [ "used" ]) in
  let joint total used =
    if used > total then Error "--used must not exceed --total" else Ok (total - used)
  in
  Cmd.v (Cmd.info "small") Term.(term_result' (const joint $ total $ used))

let test_eval_exit_codes () =
  let code args = Cli.eval ~argv:(Array.of_list ("small" :: args)) small_cmd in
  Alcotest.(check int) "the command's own code" 3 (code [ "--total=5"; "--used=2" ]);
  Alcotest.(check int) "converter error" 2 (code [ "--total=0" ]);
  Alcotest.(check int) "term_result error" 2 (code [ "--total=2"; "--used=5" ]);
  Alcotest.(check int) "unknown option" 2 (code [ "--bogus" ]);
  Alcotest.(check int) "stray positional" 2 (code [ "extra" ]);
  Alcotest.(check int) "help" 0 (code [ "--help=plain" ]);
  let raising = Cmd.v (Cmd.info "raising") Term.(const failwith $ const "boom") in
  Alcotest.(check int) "uncaught exception" 125 (Cli.eval ~argv:[| "raising" |] raising)

let suite =
  [
    ("bounded converters", `Quick, test_int_bounds);
    ("choice error names every value", `Quick, test_choice_error_names_every_value);
    ("eval exit codes", `Quick, test_eval_exit_codes);
  ]
