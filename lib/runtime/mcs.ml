(** MCS queue lock.

    Under hundreds of contending threads, both TAS and ticket locks make
    every handoff invalidate every waiter's copy of the lock word, so the
    handoff cost grows with the number of waiters and throughput collapses
    — which is why heavily contended kernel locks are queue-based.  MCS
    waiters spin on their own queue node; a handoff touches exactly one
    remote line, so a saturated lock degrades to a flat ceiling instead of
    a collapse. *)

module Make (R : Runtime_intf.S) = struct
  (* [self] caches the one [Some node] allocation so compare-and-set on
     the tail (which compares physically) can use the exact value that was
     exchanged in. *)
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
      ignore (R.await_cell node.locked not : bool));
    node

  let release t node =
    match R.read node.next with
    | Some succ -> R.write succ.locked false
    | None ->
      if not (R.cas t node.self None) then begin
        (* A successor won the tail exchange but has not linked in yet. *)
        let succ = Option.get (R.await_cell node.next Option.is_some) in
        R.write succ.locked false
      end

  let with_lock t f =
    let node = acquire t in
    Fun.protect ~finally:(fun () -> release t node) f
end
