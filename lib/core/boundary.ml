module Make (E : Ordo_runtime.Runtime_intf.EXEC) = struct
  module R = E.Runtime
  module Barrier = Ordo_runtime.Barrier.Make (R)

  (* One measured direction (paper Figure 4, lines 4–25): [writer] plays
     remote_worker, [reader] plays local_worker.  The reader arms the
     round, the writer publishes its clock through the shared line, the
     reader timestamps the moment it observes the value.  Software
     overhead, interrupts and coherence traffic only ever inflate the
     result, so the minimum over runs converges to one-way-delay plus
     skew. *)
  let clock_offset ?(runs = 1000) ~writer ~reader () =
    if writer = reader then 0
    else begin
      let clock = R.cell 0
      and phase = R.cell 0
      and barrier = Barrier.create 2
      and min_offset = ref max_int in
      let remote_worker () =
        for _ = 1 to runs do
          ignore (R.await_cell phase (fun p -> p = 1) : int);
          R.write clock (R.get_time ());
          Barrier.wait barrier
        done
      in
      let local_worker () =
        for _ = 1 to runs do
          R.write clock 0;
          R.write phase 1;
          let observed = R.await_cell clock (fun v -> v <> 0) in
          let delta = R.get_time () - observed in
          if delta < !min_offset then min_offset := delta;
          R.write phase 0;
          Barrier.wait barrier
        done
      in
      E.run_on [ (reader, local_worker); (writer, remote_worker) ];
      !min_offset
    end

  let pair_offset ?runs c0 c1 =
    max
      (clock_offset ?runs ~writer:c0 ~reader:c1 ())
      (clock_offset ?runs ~writer:c1 ~reader:c0 ())

  let default_cores () = List.init (E.num_cores ()) Fun.id

  let offset_matrix ?runs ?cores () =
    let cores = match cores with Some l -> Array.of_list l | None -> Array.of_list (default_cores ()) in
    let n = Array.length cores in
    let m = Array.make_matrix n n 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then m.(i).(j) <- clock_offset ?runs ~writer:cores.(i) ~reader:cores.(j) ()
      done
    done;
    m

  let measure ?runs ?cores () =
    let m = offset_matrix ?runs ?cores () in
    Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 m

  let pair_matrix ?runs ?cores () =
    let m = offset_matrix ?runs ?cores () in
    let n = Array.length m in
    Array.init n (fun i -> Array.init n (fun j -> max m.(i).(j) m.(j).(i)))
end
