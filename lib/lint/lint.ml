(* Syntactic Ordo-API lint over the untyped AST (compiler-libs).  No
   typing: the rules key on identifier shape and module paths, which is
   what keeps them cheap and predictable — see lint.mli for the exact
   contract of each rule. *)

type diagnostic = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

let rule_poly = "poly-compare"
let rule_cmp_zero = "cmp-zero-equality"
let rule_raw_clock = "raw-clock-read"
let rule_raw_get_time = "raw-get-time"
let rule_atomic = "atomic-confinement"

let rule_ids =
  [ rule_poly; rule_cmp_zero; rule_raw_clock; rule_raw_get_time; rule_atomic ]

(* ---- path scoping ---- *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Normalize Windows-style separators and match directory fragments like
   "lib/core/" anywhere in the path, so both "lib/core/ordo.ml" and
   "/abs/path/repo/lib/core/ordo.ml" are in scope. *)
let under file dirs =
  let file = String.map (fun c -> if c = '\\' then '/' else c) file in
  List.exists (fun d -> contains_sub file d) dirs

let protocol_dirs =
  [
    "lib/core/"; "lib/rlu/"; "lib/stm/"; "lib/db/"; "lib/oplog/"; "lib/sched/";
    "lib/service/";
  ]

let substrate_dirs =
  [ "lib/rlu/"; "lib/stm/"; "lib/db/"; "lib/oplog/"; "lib/sched/"; "lib/service/" ]
let clock_home_dirs = [ "lib/clock/"; "lib/core/" ]

(* The only modules allowed to touch [Atomic] directly: the runtime
   implementations themselves and the simulator core they delegate to.
   Everything else goes through a [Runtime_intf.S] parameter, or the
   model checker and the simulator cannot see the access. *)
let atomic_home_dirs = [ "lib/runtime/"; "lib/simcore/" ]

let in_scope ~all_rules ~file rule =
  all_rules
  ||
  if rule = rule_poly || rule = rule_cmp_zero then under file protocol_dirs
  else if rule = rule_raw_get_time then under file substrate_dirs
  else if rule = rule_raw_clock then not (under file clock_home_dirs)
  else if rule = rule_atomic then not (under file atomic_home_dirs)
  else false

(* ---- identifier shape ---- *)

let lowercase = String.lowercase_ascii

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let has_suffix x s =
  String.length s >= String.length x
  && String.sub s (String.length s - String.length x) (String.length x) = x

(* Names that denote timestamps in this tree: ts / *_ts / ts_* (plus
   TicToc's rts/wts), or anything mentioning time, stamp or deadline. *)
let timestampish name =
  let n = lowercase name in
  n = "ts" || n = "rts" || n = "wts"
  || has_suffix "_ts" n
  || has_prefix "ts_" n
  || contains_sub n "time"
  || contains_sub n "stamp"
  || contains_sub n "deadline"

let last_of lid = match List.rev (Longident.flatten lid) with [] -> "" | x :: _ -> x
let mods_of lid = match List.rev (Longident.flatten lid) with [] -> [] | _ :: m -> m

open Parsetree

(* The timestamp-looking operands: a plain identifier or a record field
   access whose (last) name is timestampish. *)
let timestampish_expr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> timestampish (last_of txt)
  | Pexp_field (_, { txt; _ }) -> timestampish (last_of txt)
  | _ -> false

(* Sentinel operands exempt from [poly-compare]: the unset/infinity
   markers this tree uses ([0], [max_int], [min_int]). *)
let sentinel_expr e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer ("0", None)) -> true
  | Pexp_ident { txt; _ } -> (
    match last_of txt with "max_int" | "min_int" -> true | _ -> false)
  | _ -> false

let is_zero_lit e =
  match e.pexp_desc with Pexp_constant (Pconst_integer ("0", None)) -> true | _ -> false

(* An unqualified (or [Stdlib.]-qualified) polymorphic comparison. *)
let poly_compare_name lid =
  let ok_path = match mods_of lid with [] | [ "Stdlib" ] -> true | _ -> false in
  ok_path
  &&
  match last_of lid with
  | "compare" | "min" | "max" | "=" | "<>" | "<" | ">" | "<=" | ">=" -> true
  | _ -> false

let is_equality lid =
  (match mods_of lid with [] | [ "Stdlib" ] -> true | _ -> false)
  && (last_of lid = "=" || last_of lid = "==")

(* A call to a timestamp comparator: last name cmp or cmp_time, any
   module path ([T.cmp], [Order.cmp_time], local [cmp_time]...). *)
let cmp_call e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match last_of txt with "cmp" | "cmp_time" -> true | _ -> false)
  | _ -> false

let clock_read_name = function
  | "get_time" | "ticks" | "ticks_serialized" -> true
  | _ -> false

let clock_path mods = List.exists (fun m -> m = "Clock" || m = "Tsc" || m = "Host") mods

(* A member of stdlib [Atomic] ([mods_of] lists modules innermost
   first): [Atomic.get], [Stdlib.Atomic.make], ... *)
let atomic_path = function
  | [ "Atomic" ] | [ "Atomic"; "Stdlib" ] -> true
  | _ -> false

(* ---- the pass ---- *)

type ctx = {
  c_file : string;
  c_all : bool;
  c_allowed : (string, unit) Hashtbl.t;  (* rules disabled by file pragma *)
  mutable c_suppress_cmp : int;  (* depth of bindings named *uncertain* *)
  mutable c_diags : diagnostic list;
}

let report ctx (loc : Location.t) rule msg =
  if
    in_scope ~all_rules:ctx.c_all ~file:ctx.c_file rule
    && not (Hashtbl.mem ctx.c_allowed rule)
  then begin
    let p = loc.Location.loc_start in
    ctx.c_diags <-
      {
        file = ctx.c_file;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        rule;
        msg;
      }
      :: ctx.c_diags
  end

let check_apply ctx loc fn args =
  match fn.pexp_desc with
  | Pexp_ident { txt = op; _ } -> (
    let plain = List.filter_map (function Asttypes.Nolabel, a -> Some a | _ -> None) args in
    match plain with
    | a :: b :: _ ->
      if
        poly_compare_name op
        && (timestampish_expr a || timestampish_expr b)
        && (not (sentinel_expr a))
        && not (sentinel_expr b)
      then
        report ctx loc rule_poly
          (Printf.sprintf
             "polymorphic '%s' on a timestamp; order timestamps with cmp_time (or \
              Timestamp.Order) — a raw comparison invents an ordering inside \
              ORDO_BOUNDARY"
             (last_of op));
      if
        is_equality op
        && ((cmp_call a && is_zero_lit b) || (cmp_call b && is_zero_lit a))
        && ctx.c_suppress_cmp = 0
      then
        report ctx loc rule_cmp_zero
          "cmp_time ... = 0 treated as equality: zero means the stamps are inside the \
           uncertainty window, not equal; branch on it only to handle uncertainty (bind \
           the test as '...uncertain...')"
    | _ -> ())
  | _ -> ()

let check_ident ctx loc lid =
  let name = last_of lid and mods = mods_of lid in
  if clock_read_name name && clock_path mods then
    report ctx loc rule_raw_clock
      (Printf.sprintf
         "direct hardware-clock read '%s': outside lib/clock and lib/core, timestamps \
          must come from an Ordo_core.Timestamp source"
         (String.concat "." (Longident.flatten lid)))
  else if name = "get_time" || name = "await_clock" then
    report ctx loc rule_raw_get_time
      (Printf.sprintf
         "raw %s in a substrate: allocate stamps through the Timestamp parameter (T.get / \
          T.after) so the boundary guard and the race detector see them"
         name)
  else if atomic_path mods then
    report ctx loc rule_atomic
      (Printf.sprintf
         "raw '%s' outside lib/runtime and lib/simcore: shared state must go through a \
          Runtime_intf.S parameter (R.cell / R.read / R.cas ...) so the simulator's cost \
          model and the Mcheck explorer see every access"
         (String.concat "." (Longident.flatten lid)))

(* Any bound name mentioning "uncertain" suppresses [cmp-zero-equality]
   in the binding's own expression. *)
let pattern_mentions_uncertain pat =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } when contains_sub (lowercase txt) "uncertain" ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.Ast_iterator.pat it pat;
  !found

let allowed_rules str =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute
          {
            attr_name = { txt = "ordo_lint.allow"; _ };
            attr_payload =
              PStr
                [
                  {
                    pstr_desc =
                      Pstr_eval
                        ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
                    _;
                  };
                ];
            _;
          } ->
        String.split_on_char ' ' s
        |> List.iter (fun r -> if r <> "" then Hashtbl.replace tbl r ())
      | _ -> ())
    str;
  tbl

let run_pass ctx str =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (fn, args) -> check_apply ctx e.pexp_loc fn args
          | Pexp_ident { txt; _ } -> check_ident ctx e.pexp_loc txt
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      value_binding =
        (fun it vb ->
          let suppressing = pattern_mentions_uncertain vb.pvb_pat in
          if suppressing then ctx.c_suppress_cmp <- ctx.c_suppress_cmp + 1;
          Ast_iterator.default_iterator.value_binding it vb;
          if suppressing then ctx.c_suppress_cmp <- ctx.c_suppress_cmp - 1);
    }
  in
  it.Ast_iterator.structure it str

let lint_source ?(all_rules = false) ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | exception exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok e) ->
        Format.asprintf "%a" Location.print_report e
        |> String.map (fun c -> if c = '\n' then ' ' else c)
      | _ -> Printexc.to_string exn
    in
    Error (Printf.sprintf "%s: parse error: %s" file msg)
  | str ->
    let ctx =
      {
        c_file = file;
        c_all = all_rules;
        c_allowed = allowed_rules str;
        c_suppress_cmp = 0;
        c_diags = [];
      }
    in
    run_pass ctx str;
    Ok
      (List.sort
         (fun a b ->
           let c = compare a.line b.line in
           if c <> 0 then c else compare a.col b.col)
         ctx.c_diags)

(* Any read failure — missing file, permission, a directory path — must
   surface as [Error], never as a silently-skipped file: the driver
   turns these into exit 2. *)
let lint_file ?all_rules path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | exception exn -> Error (Printf.sprintf "%s: %s" path (Printexc.to_string exn))
  | source -> lint_source ?all_rules ~file:path source

let pp_diagnostic d = Printf.sprintf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.msg
