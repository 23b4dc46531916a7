(* Reference for [Ordo_core.Ordo.Make]: the primitive as it was written
   first, with [new_time] spelled out as the get_time/pause loop of the
   paper's Figure 3, kept only to be compared against.  The library's
   [new_time] hands the same loop to the runtime's [await_clock], which
   in the simulator takes the waiting steps from the dispatch loop; the
   two must agree on every stamp, every event and every trace record. *)

module Race = Ordo_analyze.Race

module Make
    (R : Ordo_runtime.Runtime_intf.S)
    (Config : sig
      val boundary : int
    end) : Ordo_core.Ordo.S = struct
  let boundary = Config.boundary

  let get_time () =
    let t = R.get_time () in
    if Race.enabled () then Race.on_publish ~tid:(R.tid ()) t;
    t

  let cmp_time t1 t2 =
    let c = Ordo_analyze.Hb.cmp ~boundary t1 t2 in
    if Race.enabled () then Race.on_order ~tid:(R.tid ()) t1 t2 c;
    c

  let new_time t =
    let rec wait () =
      let now = get_time () in
      if cmp_time now t = 1 then now
      else begin
        R.pause ();
        wait ()
      end
    in
    let result = wait () in
    R.probe "ordo.new_time" t result;
    result
end
