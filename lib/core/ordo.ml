module type S = sig
  val boundary : int
  val get_time : unit -> int
  val cmp_time : int -> int -> int
  val new_time : int -> int
end

module Race = Ordo_analyze.Race

module Make
    (R : Ordo_runtime.Runtime_intf.S)
    (Config : sig
      val boundary : int
    end) =
struct
  let boundary =
    if Config.boundary < 0 then invalid_arg "Ordo.Make: negative boundary";
    Config.boundary

  (* The race detector's hooks: every issued stamp is published (its
     value maps to the issuer's shadow clock), every comparison verdict
     is reported — a nonzero answer admits a happens-before edge, a zero
     answer marks the caller as inside the uncertainty window.  Both are
     gated on one domain-local read and perturb nothing. *)
  let publish t = if Race.enabled () then Race.on_publish ~tid:(R.tid ()) t

  let get_time () =
    let t = R.get_time () in
    publish t;
    t

  let cmp_time t1 t2 =
    let c = Ordo_analyze.Hb.cmp ~boundary t1 t2 in
    if Race.enabled () then Race.on_order ~tid:(R.tid ()) t1 t2 c;
    c

  (* Every reading of the wait is published, accepted or not, as
     [get_time] would.  The detector is installed around a whole run, so
     one check per call stands for one per reading. *)
  let new_time t =
    let accept =
      if Race.enabled () then (fun now ->
        publish now;
        cmp_time now t = 1)
      else fun now -> Ordo_analyze.Hb.cmp ~boundary now t = 1
    in
    let result = R.await_clock accept in
    R.probe "ordo.new_time" t result;
    result
end
