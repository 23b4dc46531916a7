(* Ordo-API lint driver: walk the given roots (files or directories),
   lint every .ml compilation unit, print diagnostics compiler-style.

   Exit status: 0 clean, 1 diagnostics reported, 2 on parse or I/O
   errors.  [_build], [.git] and [fixtures] directories are skipped when
   walking, but a path named explicitly is always linted — that is how
   the seeded-misuse fixture is exercised in CI. *)

open Cmdliner
module Lint = Ordo_lint_rules.Lint

let skip_dirs = [ "_build"; ".git"; "_opam"; "fixtures" ]

(* Filesystem problems while walking (an unreadable directory, an entry
   that vanishes mid-walk, a dangling symlink) are collected and
   reported, never silently skipped: a lint run that cannot see a file
   must not claim the tree is clean. *)
let rec walk path (files, errs) =
  match Sys.is_directory path with
  | exception Sys_error e -> (files, e :: errs)
  | false -> (path :: files, errs)
  | true -> (
    match Sys.readdir path with
    | exception Sys_error e -> (files, e :: errs)
    | entries ->
      Array.to_list entries |> List.sort compare
      |> List.fold_left
           (fun (files, errs) entry ->
             let sub = Filename.concat path entry in
             match Sys.is_directory sub with
             | exception Sys_error e -> (files, e :: errs)
             | true -> if List.mem entry skip_dirs then (files, errs) else walk sub (files, errs)
             | false ->
               if Filename.check_suffix entry ".ml" then (sub :: files, errs)
               else (files, errs))
           (files, errs))

let run roots all_rules quiet =
  let roots = if roots = [] then [ "lib"; "bin"; "bench"; "test" ] else roots in
  match List.filter (fun r -> not (Sys.file_exists r)) roots with
  | missing :: _ ->
    Printf.eprintf "ordo-lint: no such file or directory: %s\n" missing;
    2
  | [] ->
    let files, walk_errs =
      List.fold_left (fun acc r -> walk r acc) ([], []) roots
    in
    let files = List.sort_uniq compare files in
    let errors = ref 0 and count = ref 0 in
    List.iter
      (fun e ->
        Printf.eprintf "ordo-lint: %s\n" e;
        incr errors)
      (List.rev walk_errs);
    List.iter
      (fun file ->
        match Lint.lint_file ~all_rules file with
        | Error msg ->
          Printf.eprintf "ordo-lint: %s\n" msg;
          incr errors
        | Ok diags ->
          count := !count + List.length diags;
          List.iter (fun d -> print_endline (Lint.pp_diagnostic d)) diags)
      files;
    if not quiet then
      Printf.printf "ordo-lint: %d files, %d diagnostics\n" (List.length files) !count;
    if !errors > 0 then 2 else if !count > 0 then 1 else 0

let roots_arg =
  let doc =
    "Files or directories to lint (default: lib bin bench test).  Directories are walked \
     recursively; _build, .git and fixtures subdirectories are skipped."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)

let all_rules_arg =
  let doc =
    "Apply every rule to every file, ignoring the per-rule path scopes (file-level allow \
     pragmas still win).  Used to exercise the misuse fixture."
  in
  Arg.(value & flag & info [ "all-rules" ] ~doc)

let quiet_arg =
  let doc = "Print only the diagnostics, no summary line." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let cmd =
  let doc = "Lint OCaml sources for Ordo timestamp-API misuse" in
  let man =
    [
      `S Manpage.s_description;
      `P
        ("Rules: "
        ^ String.concat ", " Lint.rule_ids
        ^ ".  A file opts out of a rule with [@@@ordo_lint.allow \"rule\"].  See \
           lib/lint/lint.mli for the full contract.");
    ]
  in
  Cmd.v (Cmd.info "ordo-lint" ~doc ~man)
    Term.(const run $ roots_arg $ all_rules_arg $ quiet_arg)

let () = exit (Cli.eval cmd)
