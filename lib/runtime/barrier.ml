(** Centralized generation-counting spin barrier, written against the
    runtime signature so both substrates can use it (the offset measurement
    of Figure 4 synchronizes its two workers with this). *)

module Make (R : Runtime_intf.S) = struct
  type t = { count : int R.cell; gen : int R.cell; parties : int }

  let create parties =
    if parties < 1 then invalid_arg "Barrier.create: parties must be >= 1";
    { count = R.cell 0; gen = R.cell 0; parties }

  (* The last arrival resets the counter and publishes a new generation;
     everyone else spins on the generation word. *)
  let wait t =
    let g = R.read t.gen in
    if R.fetch_add t.count 1 = t.parties - 1 then begin
      R.write t.count 0;
      R.write t.gen (g + 1)
    end
    else ignore (R.await_cell t.gen (fun gen -> gen <> g) : int)

  (* Completed generations — every party has passed [wait] exactly
     [phase t] times.  Observational (tests, progress reporting). *)
  let phase t = R.read t.gen
end
