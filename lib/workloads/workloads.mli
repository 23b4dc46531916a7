(** Simulated workloads shared by the trace/hazard CLIs, the bench
    harness and the cluster substrate demo.

    Each workload places its threads contiguously on hardware threads
    [0 .. threads-1] of the given machine and drives one of the
    retrofitted substrates (OCC, Hekaton, TL2, RLU, OpLog) — or one of
    the deliberately racy fixtures used by the analyzer tests — through
    the timestamp source it is handed.  Everything else (per-workload
    table sizes, conflict shaping, boundary sampling) is an internal
    detail. *)

val names : string list
(** Available workload names: ["occ"], ["hekaton"], ["tl2"], ["rlu"],
    ["oplog"], ["race"], ["window"], ["handshake"]. *)

val measure_boundary : Ordo_sim.Machine.t -> int
(** Measured [ORDO_BOUNDARY] of the machine (paper Figure 4 algorithm
    over a sampled core set), on the calling domain's current simulator
    instance. *)

val run :
  string ->
  ?report:bool ->
  ?scenario:Ordo_hazard.Scenario.t ->
  Ordo_sim.Machine.t ->
  (module Ordo_core.Timestamp.S) ->
  threads:int ->
  dur:int ->
  Ordo_sim.Engine.stats
(** [run name machine ts ~threads ~dur] executes the named workload for
    [dur] virtual ns.  [report] (default true) prints a short result
    line; [scenario] injects clock faults.
    @raise Invalid_argument on a name not in {!names}. *)
