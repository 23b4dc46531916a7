(* Reference for [Ordo_runtime.Mcs.Make]: the queue lock with its two
   waits written out as read/pause loops, kept only to be compared
   against.  The library's lock hands the same waits to the runtime's
   [await_cell], which in the simulator takes the waiting steps from the
   dispatch loop; the two must agree on every event, every trace record
   and every race verdict. *)

module Make (R : Ordo_runtime.Runtime_intf.S) = struct
  type node = {
    locked : bool R.cell;
    next : node option R.cell;
    mutable self : node option;
  }

  type t = node option R.cell
  type token = node

  let create () : t = R.cell None

  let acquire t =
    let node = { locked = R.cell true; next = R.cell None; self = None } in
    node.self <- Some node;
    let pred = R.exchange t node.self in
    (match pred with
    | None -> ()
    | Some p ->
      R.write p.next node.self;
      while R.read node.locked do
        R.pause ()
      done);
    node

  let release t node =
    match R.read node.next with
    | Some succ -> R.write succ.locked false
    | None ->
      if not (R.cas t node.self None) then begin
        let rec find () =
          match R.read node.next with
          | Some s -> s
          | None ->
            R.pause ();
            find ()
        in
        R.write (find ()).locked false
      end
end
