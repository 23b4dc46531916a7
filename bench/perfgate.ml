(* The per-PR perf gate: compare a just-produced perf record against a
   committed baseline (BENCH_N.json) and fail loudly on regression.

   The gate deliberately compares the *deterministic* columns only:

   - per-experiment simulated event counts must match the baseline
     exactly — the event stream is the simulator's observable behavior,
     so any drift is a correctness change, not a slowdown;
   - so must the cluster network's pops and inbox re-stamps
     ([net_pops], [net_restamps]) where an experiment records them: they
     count the host work of the network model, which is as
     deterministic as the events it runs;
   - per-probe allocation (minor words per event) must not exceed the
     baseline by more than a small tolerance — allocation per event is a
     property of the binary, reproducible on any host.

   Wall-clock columns are recorded for humans but never gated: the 1-CPU
   CI box shares its host and its timings are noise.  An experiment
   present on only one side is skipped (selection differs), as is a
   column the baseline lacks (it predates the column), but an empty
   intersection is itself a failure — a gate that compares nothing must
   not pass. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

(* Minimal recursive-descent JSON parser — enough for the records this
   harness writes; no external dependency. *)
let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
          pos := !pos + 4;
          (* The records only ever escape control characters. *)
          Buffer.add_char b (Char.chr (code land 0xFF))
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        advance ();
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected number";
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  parse s

(* The printer for the records [parse] reads.  A container whose members
   are all scalars goes on one line, any other one member per line.
   Integral numbers print exactly, others with 3 decimals. *)
let to_string (j : json) =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let str s =
    add "\"";
    String.iter
      (function
        | '"' -> add "\\\""
        | '\\' -> add "\\\\"
        | '\n' -> add "\\n"
        | c when Char.code c < 0x20 -> add (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    add "\""
  in
  let rec value indent = function
    | Null -> add "null"
    | Bool v -> add (string_of_bool v)
    | Num f -> add (if Float.is_integer f then Printf.sprintf "%.0f" f else Printf.sprintf "%.3f" f)
    | Str s -> str s
    | Arr vs -> members indent "[" "]" (List.map (fun v -> (None, v)) vs)
    | Obj kvs -> members indent "{" "}" (List.map (fun (k, v) -> (Some k, v)) kvs)
  and members indent op cl ms =
    let flat = List.for_all (function _, (Arr _ | Obj _) -> false | _ -> true) ms in
    let inner = indent ^ "  " in
    add op;
    List.iteri
      (fun i (k, v) ->
        add (if i > 0 then "," else "");
        add (if flat then " " else "\n" ^ inner);
        Option.iter (fun k -> str k; add ": ") k;
        value inner v)
      ms;
    add (if ms = [] then "" else if flat then " " else "\n" ^ indent);
    add cl
  in
  value "" j;
  add "\n";
  Buffer.contents b

(* ---- record access ---- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_num = function Some (Num f) -> Some f | _ -> None
let to_str = function Some (Str s) -> Some s | _ -> None
let to_arr = function Some (Arr l) -> l | _ -> []

(* name -> events, from the "experiments" array. *)
let experiment_events j =
  to_arr (member "experiments" j)
  |> List.filter_map (fun e ->
         match (to_str (member "name" e), to_num (member "events" e)) with
         | Some name, Some events -> Some (name, int_of_float events)
         | _ -> None)

(* (name, column) -> value for the exact per-experiment network columns;
   an experiment without them contributes nothing. *)
let net_columns = [ "net_pops"; "net_restamps" ]

let experiment_net j =
  to_arr (member "experiments" j)
  |> List.concat_map (fun e ->
         match to_str (member "name" e) with
         | None -> []
         | Some name ->
           List.filter_map
             (fun col ->
               Option.map (fun v -> ((name, col), int_of_float v)) (to_num (member col e)))
             net_columns)

(* name -> minor words per event, from the live probes (absent in records
   written before the column existed — the gate then skips that check). *)
let probe_allocs j =
  match member "engine_single_thread" j with
  | None -> []
  | Some est ->
    to_arr (member "live_probes" est)
    |> List.filter_map (fun p ->
           match (to_str (member "name" p), to_num (member "minor_words_per_event" p)) with
           | Some name, Some mw -> Some (name, mw)
           | _ -> None)

(* Allocation regression tolerance: minor words per event may not exceed
   baseline * (1 + this).  Allocation is deterministic, so the slack only
   covers GC-accounting granularity, not host noise. *)
let alloc_tolerance = 0.10

let check ~baseline ~current =
  let base = parse_file baseline in
  let cur = parse_file current in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let base_ev = experiment_events base and cur_ev = experiment_events cur in
  let compared = ref 0 in
  List.iter
    (fun (name, events) ->
      match List.assoc_opt name base_ev with
      | None -> ()
      | Some base_events ->
        incr compared;
        if events <> base_events then
          fail "experiment %s: %d simulated events, baseline has %d (event stream diverged)"
            name events base_events)
    cur_ev;
  if !compared = 0 then
    fail "no experiment overlaps the baseline %s — nothing was actually gated" baseline;
  let base_net = experiment_net base in
  let net_compared = ref 0 in
  List.iter
    (fun (((name, col) as key), v) ->
      match List.assoc_opt key base_net with
      | None -> ()
      | Some base_v ->
        incr net_compared;
        if v <> base_v then
          fail "experiment %s: %s = %d, baseline has %d (network work changed)" name col v
            base_v)
    (experiment_net cur);
  let base_mw = probe_allocs base and cur_mw = probe_allocs cur in
  List.iter
    (fun (name, mw) ->
      match List.assoc_opt name base_mw with
      | None -> ()
      | Some base_mw ->
        if mw > base_mw *. (1.0 +. alloc_tolerance) +. 0.01 then
          fail "probe %s: %.2f minor words/event, baseline %.2f (+%.0f%% > %.0f%% tolerance)"
            name mw base_mw
            ((mw /. base_mw *. 100.0) -. 100.0)
            (alloc_tolerance *. 100.0))
    cur_mw;
  match List.rev !failures with
  | [] ->
    Printf.printf "perf gate: OK against %s (%d experiments event-identical, %d network \
                   columns identical, %d probes within allocation tolerance)\n%!"
      baseline !compared !net_compared (List.length cur_mw);
    true
  | fs ->
    List.iter (fun f -> Printf.eprintf "perf gate: FAIL: %s\n" f) fs;
    false
