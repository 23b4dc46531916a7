(* The live substrate: OCaml 5 domains + Atomic cells + the host clock. *)

(* The one sanctioned bridge from the host clock to Runtime_intf. *)
[@@@ordo_lint.allow "raw-clock-read"]

(* Thread ids.  Domains placed by [Exec.run_on] get their slot index;
   the main domain is pinned to 0 at module initialization.  Any other
   domain (a bare [Domain.spawn] that was never placed) draws a fresh
   fallback id instead of silently aliasing tid 0 — aliasing would make
   two live domains share per-thread state (OpLog per-core logs, CC
   contexts) and corrupt it. *)
let fallback_tid = Atomic.make 1
let tid_key = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add fallback_tid 1)
let () = Domain.DLS.set tid_key 0
let set_tid i = Domain.DLS.set tid_key i

module Runtime : Runtime_intf.S = struct
  let name = "real"

  type 'a cell = 'a Atomic.t

  let cell v = Atomic.make v
  let read = Atomic.get
  let write = Atomic.set
  let cas = Atomic.compare_and_set
  let fetch_add c n = Atomic.fetch_and_add c n
  let exchange = Atomic.exchange
  let tid () = Domain.DLS.get tid_key
  let get_time () = Ordo_clock.Clock.Host.get_time ()
  let now () = Ordo_clock.Tsc.mono_ns ()
  let pause () = Ordo_clock.Tsc.cpu_relax ()
  let await_clock accept = Runtime_intf.poll ~read:get_time ~pause accept
  let await_cell c accept = Runtime_intf.poll ~read:(fun () -> Atomic.get c) ~pause accept

  let work n =
    if n > 0 then begin
      let stop = Ordo_clock.Tsc.mono_ns () + n in
      while Ordo_clock.Tsc.mono_ns () < stop do
        Ordo_clock.Tsc.cpu_relax ()
      done
    end

  let fence () = ignore (Atomic.get (Atomic.make 0))

  (* Tracing hooks: best-effort on the real substrate (host monotonic ns
     as the timestamp).  The [enabled] guard keeps the disabled path to
     one domain-local read and no allocation. *)
  module Trace = Ordo_trace.Trace

  let span_begin tag =
    if Trace.enabled () then
      Trace.emit ~tid:(tid ()) ~time:(now ()) Trace.Span_begin ~a:(Trace.intern tag) ~b:0 ~c:0

  let span_end tag =
    if Trace.enabled () then
      Trace.emit ~tid:(tid ()) ~time:(now ()) Trace.Span_end ~a:(Trace.intern tag) ~b:0 ~c:0

  let probe tag a b =
    if Trace.enabled () then
      Trace.emit ~tid:(tid ()) ~time:(now ()) Trace.Probe ~a:(Trace.intern tag) ~b:a ~c:b
end

module Exec : Runtime_intf.EXEC = struct
  module Runtime = Runtime

  let num_cores () = Ordo_clock.Tsc.num_cpus ()

  let run_on jobs =
    (* The trace sink is domain-local: hand the launcher's sink to every
       worker so their emissions land in the parent's recording. *)
    let trace = Ordo_trace.Trace.active_handle () in
    let spawn i (core, fn) =
      Domain.spawn (fun () ->
          set_tid i;
          let own = Ordo_trace.Trace.active_handle () in
          Ordo_trace.Trace.adopt trace;
          ignore (Ordo_clock.Tsc.set_affinity core : bool);
          (* hand the sink back, or the trace gate's holder count stays up *)
          Fun.protect fn ~finally:(fun () -> Ordo_trace.Trace.adopt own))
    in
    let domains = List.mapi spawn jobs in
    List.iter Domain.join domains
end

let run ~threads fn =
  Exec.run_on (List.init threads (fun i -> (i, fun () -> fn i)))
