(* Counting wrappers of the public functor signatures the benchmark
   instantiates: Timestamp.S (core), Rmap.S (oplog) and Cc_intf.S (db).

   Each wrapper forwards to the wrapped implementation unchanged and adds
   two observations, both invisible to the simulation:

   - a count, kept in [counts] below (plain OCaml fields, never a
     simulated cell, so no cache line is touched);
   - a virtual-time span, emitted with [R.span_begin]/[R.span_end].  The
     engine stamps those with the calling fiber's local time at no charge
     and no effect, so a wrapped run keeps the event stream of an
     unwrapped one.  [R.now] would not do: it charges an L1 hit and may
     park the fiber.  Spans only land when a trace sink is installed;
     {!Ledger} rebuilds them from the trace afterwards.

   The traced pass runs wrapped modules; the measured pass runs the plain
   ones.  The self-test checks that both produce identical outputs. *)

module R = Ordo_sim.Sim.Runtime

type counts = {
  mutable get : int;
  mutable advance : int;
  mutable after : int;
  mutable cmp : int;
  mutable cmp_uncertain : int;
  mutable updates : int;
  mutable lookups : int;
  mutable attempts : int;
  mutable commits : int;
  mutable aborts : int;
}

let counts =
  {
    get = 0;
    advance = 0;
    after = 0;
    cmp = 0;
    cmp_uncertain = 0;
    updates = 0;
    lookups = 0;
    attempts = 0;
    commits = 0;
    aborts = 0;
  }

let reset () =
  counts.get <- 0;
  counts.advance <- 0;
  counts.after <- 0;
  counts.cmp <- 0;
  counts.cmp_uncertain <- 0;
  counts.updates <- 0;
  counts.lookups <- 0;
  counts.attempts <- 0;
  counts.commits <- 0;
  counts.aborts <- 0

(* Span tags.  [Ledger] maps each to its layer. *)
let tag_op = "bench.op"
let tag_ts = "bench.core.ts"
let tag_update = "bench.oplog.update"
let tag_lookup = "bench.oplog.lookup"
let tag_attempt = "bench.db.attempt"

let spanned tag f =
  R.span_begin tag;
  let v = f () in
  R.span_end tag;
  v

module Ts (T : Ordo_core.Timestamp.S) : Ordo_core.Timestamp.S = struct
  let name = T.name
  let boundary = T.boundary

  let get () =
    counts.get <- counts.get + 1;
    spanned tag_ts T.get

  let advance () =
    counts.advance <- counts.advance + 1;
    spanned tag_ts T.advance

  let after t =
    counts.after <- counts.after + 1;
    spanned tag_ts (fun () -> T.after t)

  (* A comparison reads no clock and costs no virtual time: counted only. *)
  let cmp a b =
    counts.cmp <- counts.cmp + 1;
    let r = T.cmp a b in
    if r = 0 then counts.cmp_uncertain <- counts.cmp_uncertain + 1;
    r
end

module Rmap (M : Ordo_oplog.Rmap.S) : Ordo_oplog.Rmap.S = struct
  type t = M.t

  let name = M.name
  let create = M.create

  let update f =
    counts.updates <- counts.updates + 1;
    spanned tag_update f

  let add t ~page ~pte = update (fun () -> M.add t ~page ~pte)
  let remove t ~page ~pte = update (fun () -> M.remove t ~page ~pte)
  let add_all t pairs = update (fun () -> M.add_all t pairs)
  let remove_all t pairs = update (fun () -> M.remove_all t pairs)

  let lookup t ~page =
    counts.lookups <- counts.lookups + 1;
    spanned tag_lookup (fun () -> M.lookup t ~page)

  let total_mappings = M.total_mappings
end

(* An attempt spans [begin_tx] to [commit], or to the [Abort] that
   escapes a read or write.  The types stay transparent so the benchmark
   can read rows back through the unwrapped scheme after the run. *)
module Cc (C : Ordo_db.Cc_intf.S) = struct
  let name = C.name

  type t = C.t
  type tx = C.tx

  exception Abort = C.Abort

  let create = C.create

  let begin_tx t =
    counts.attempts <- counts.attempts + 1;
    R.span_begin tag_attempt;
    C.begin_tx t

  let aborted () =
    counts.aborts <- counts.aborts + 1;
    R.span_end tag_attempt

  let read tx key =
    match C.read tx key with
    | v -> v
    | exception C.Abort ->
      aborted ();
      raise C.Abort

  let write tx key v =
    match C.write tx key v with
    | () -> ()
    | exception C.Abort ->
      aborted ();
      raise C.Abort

  let commit tx =
    let ok = C.commit tx in
    if ok then counts.commits <- counts.commits + 1 else counts.aborts <- counts.aborts + 1;
    R.span_end tag_attempt;
    ok

  let stats_commits = C.stats_commits
  let stats_aborts = C.stats_aborts
end
