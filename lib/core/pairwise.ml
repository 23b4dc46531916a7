module Make
    (R : Ordo_runtime.Runtime_intf.S)
    (Config : sig
      val table : int array array
    end) =
struct
  let table = Config.table

  let () =
    let n = Array.length table in
    Array.iter
      (fun row -> if Array.length row <> n then invalid_arg "Pairwise.Make: table not square")
      table;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if table.(i).(j) <> table.(j).(i) then invalid_arg "Pairwise.Make: table not symmetric";
        if table.(i).(j) < 0 then invalid_arg "Pairwise.Make: negative boundary"
      done
    done

  let boundary c1 c2 = table.(c1).(c2)
  let global_boundary = Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 table
  let get_time () = R.get_time ()
  let cmp_time ~c1 t1 ~c2 t2 = Ordo_analyze.Hb.cmp ~boundary:(boundary c1 c2) t1 t2

  let new_time ~c_from t =
    let b = boundary (R.tid ()) c_from in
    R.await_clock (fun now -> Ordo_analyze.Hb.cmp ~boundary:b now t = 1)
end
