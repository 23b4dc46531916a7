(* The command-line vocabulary of the tools and bench.  The converters
   reject out-of-range numbers and unknown names while Cmdliner parses,
   so a usage error exits 2 before a tool prints anything; checks that
   join two flags are [Term.term_result'] terms and exit the same way.
   [eval] is the one exit path. *)

open Cmdliner
module Machine = Ordo_sim.Machine
module Net = Ordo_cluster.Net

(* [base] restricted to the values [ok] accepts; [expect] completes
   "must be ...". *)
let bounded base ok expect =
  let print = Arg.conv_printer base in
  let parse s =
    match Arg.conv_parser base s with
    | Error (`Msg e) -> Error e
    | Ok v when ok v -> Ok v
    | Ok v -> Error (Format.asprintf "must be %s (got %a)" expect print v)
  in
  Arg.conv' (parse, print)

(* An int of at least [lo]. *)
let int_min lo = bounded Arg.int (fun v -> v >= lo) (Printf.sprintf ">= %d" lo)

(* An int in [lo, hi]. *)
let int_in lo hi =
  bounded Arg.int (fun v -> lo <= v && v <= hi) (Printf.sprintf "in %d..%d" lo hi)

(* A float in [lo, hi). *)
let float_in lo hi =
  bounded Arg.float (fun v -> lo <= v && v < hi) (Printf.sprintf "in [%g, %g)" lo hi)

(* A name among [values], parsed to its (name, value) pair; the error
   lists every name. *)
let choice ~what values =
  let parse s =
    match List.assoc_opt s values with
    | Some v -> Ok (s, v)
    | None ->
      Error
        (Printf.sprintf "unknown %s %S (available: %s)" what s
           (String.concat " " (List.map fst values)))
  in
  Arg.conv' (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let machine =
  choice ~what:"machine"
    (List.map (fun m -> (m.Machine.topo.Ordo_util.Topology.name, m)) Machine.presets)

let spec =
  Arg.conv' (Net.Spec.of_string, fun ppf s -> Format.pp_print_string ppf (Net.Spec.to_string s))

(* A flag's default, written as on the command line. *)
let default conv s =
  match Arg.conv_parser conv s with Ok v -> v | Error (`Msg e) -> invalid_arg e

(* Exit code of [cmd] on [argv]: the command's own, 0 for help, 2 for
   any usage error (Cmdliner's default is 124), 125 for an uncaught
   exception. *)
let eval ?argv cmd =
  match Cmd.eval_value ?argv cmd with
  | Ok (`Ok code) -> code
  | Ok (`Help | `Version) -> 0
  | Error (`Parse | `Term) -> 2
  | Error `Exn -> 125
