(** Ordo-API misuse lint: a small syntactic pass over OCaml sources
    (compiler-libs parser, no typing) for the ways timestamp code goes
    wrong in this tree.

    Rules, each with a path scope (relative paths, ['/']-separated):

    - [poly-compare] — a polymorphic comparison ([compare], [min],
      [max], [=], [<], ...) whose operand is a timestamp-looking
      identifier or field ([ts], [*_ts], [ts_*], [rts]/[wts], or a name
      mentioning [time]/[stamp]/[deadline]).  Timestamps from an
      uncertain clock must be ordered with [cmp_time]; raw comparison
      silently invents an ordering inside ORDO_BOUNDARY.  Comparisons
      against the sentinels [0], [max_int] and [min_int] are exempt.
      Scope: [lib/core], [lib/rlu], [lib/stm], [lib/db], [lib/oplog].

    - [cmp-zero-equality] — [cmp_time a b = 0] (or [T.cmp a b = 0])
      used as an equality test.  Zero means {e uncertain}, never
      "equal"; code may only branch on it to handle uncertainty, which
      is recognized syntactically by binding the test under a name that
      mentions [uncertain].  Same scope as [poly-compare].

    - [raw-clock-read] — a direct read of the hardware clock
      ([get_time], [ticks], [ticks_serialized] through a module path
      mentioning [Clock] or [Tsc]) outside [lib/clock] and [lib/core]:
      everything above the primitive must take timestamps from an
      [Ordo_core.Timestamp.S].

    - [raw-get-time] — a [get_time] or [await_clock] call (typically
      [R.get_time], or [R.await_clock] waiting on the raw clock) inside a
      substrate ([lib/rlu], [lib/stm], [lib/db], [lib/oplog]):
      substrates are parameterized over [Timestamp.S] and must allocate
      stamps through it ([T.get]/[T.after]), or the detector and the
      guard never see the stamp.

    - [atomic-confinement] — a direct member of stdlib [Atomic]
      ([Atomic.make], [Atomic.get], [Stdlib.Atomic.compare_and_set],
      ...) outside [lib/runtime] and [lib/simcore].  Every algorithm in
      this tree is a functor over [Runtime_intf.S]; shared state that
      bypasses the [R.cell]/[R.read]/[R.cas] surface is invisible to the
      simulator's cost model {e and} to the [Mcheck] DPOR explorer, so
      it is exactly the state the correctness tooling cannot check.

    A file opts out of specific rules with a floating attribute, e.g.
    [[@@@ordo_lint.allow "poly-compare"]] — used where raw ordering is
    the documented design (TicToc's [wts]/[rts], oplog's merge
    tie-break), in live-host clock tooling, and at the few justified
    [Atomic] sites (the trace sink's sequence counter, harness-level
    flags in benches and tests). *)

type diagnostic = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
}

val rule_ids : string list
(** All rule identifiers, for documentation and pragma validation. *)

val lint_source :
  ?all_rules:bool -> file:string -> string -> (diagnostic list, string) result
(** Lint one compilation unit given as a string.  [file] determines rule
    scope (and appears in diagnostics); [all_rules] ignores path scoping
    — every rule applies everywhere (pragmas are still honored).
    [Error] carries a parse failure. *)

val lint_file : ?all_rules:bool -> string -> (diagnostic list, string) result
(** [lint_source] over the contents of a file. *)

val pp_diagnostic : diagnostic -> string
(** [file:line:col: [rule] message]. *)
