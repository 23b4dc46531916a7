(** Offline ordering-invariant checker: replay a collected trace and
    verify Ordo's contract — [cmp_time] never inverts physical order,
    [new_time] clears the uncertainty window, and committed [tx.*]
    histories are serializable in commit-timestamp order.  The header of
    [checker.ml] states each invariant and its cost. *)

type tx = {
  tx_tid : int;
  start_ts : int;
  commit_ts : int;
  commit_seq : int;  (** physical order of the commit in the trace *)
  commit_time : int;  (** virtual time of the commit probe *)
  reads : (int * int) list;  (** key, version observed; newest first *)
  installs : (int * int * int) list;  (** key, version installed, seq; newest first *)
}

type violation =
  | Clock_inversion of { earlier : Trace.event; later : Trace.event; delta : int }
      (** [earlier] completed before [later] started, yet its clock value
          exceeds [later]'s by [delta] > boundary. *)
  | New_time_short of { tid : int; time : int; arg : int; result : int }
  | Stamp_inversion of { earlier : Trace.event; later : Trace.event; delta : int }
      (** Guarded variant of [Clock_inversion]: a guard-issued stamp
          ([guard.ts]) certainly inverts an earlier one even under the
          boundary the guard had in effect when the later stamp was
          issued. *)
  | Edge_inversion of { key : int; from_tx : tx; to_tx : tx }
      (** A conflict edge whose source commit timestamp is certainly
          after its target's. *)
  | Conflict_cycle of tx list
      (** A cycle of conflict edges, each tx's successor the next one
          and the last's the first. *)

type report = {
  boundary : int;
  clock_reads : int;
  new_times : int;
  stamps : int;  (** guard-issued stamps checked (guarded runs only) *)
  hazards : int;  (** injected hazard events present in the trace *)
  guard_events : int;  (** guard stamps + actions present in the trace *)
  committed : int;
  aborted : int;
  edges : int;  (** conflict edges between distinct txs, duplicates included *)
  ambiguous : int;
      (** (key, version) lookups skipped because the version had several
          installers *)
  violations : violation list;
      (** invariant 1's (in completion order), then invariant 2's (in
          trace order), then invariant 3's: edge inversions, and at most
          one cycle, last *)
}

val check : boundary:int -> Trace.t -> report
(** Check a trace against a fixed boundary.  Raises [Invalid_argument]
    on a negative boundary. *)

val check_guard : boundary:int -> Trace.t -> report
(** Check a guarded run: guard-issued stamps ([guard.ts]) instead of raw
    clock reads, each judged against the bound in effect at its issue;
    [new_time] against [boundary], the configured floor; conflict edges
    against the guard's bound once both commits existed.  Raw reads may
    invert physical order between a hazard firing and its detection —
    the guard's point is that no such value escapes to the application.
    Raises [Invalid_argument] on a negative boundary. *)

val ok : report -> bool

val describe_violation : violation -> string

val describe : report -> string list
(** The summary line ("checked ...: OK" or "...: N VIOLATIONS"), then
    one line per violation. *)
