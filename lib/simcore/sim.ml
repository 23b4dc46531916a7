module Runtime_intf = Ordo_runtime.Runtime_intf

module Runtime : Runtime_intf.S = struct
  let name = "sim"

  type 'a cell = 'a Engine.cell

  let cell = Engine.cell
  let read = Engine.read
  let write = Engine.write
  let cas = Engine.cas
  let fetch_add = Engine.fetch_add
  let exchange = Engine.exchange
  let tid = Engine.tid
  let get_time = Engine.get_time
  let now = Engine.now
  let pause = Engine.pause
  let await_clock = Engine.await_clock
  let await_cell = Engine.await_cell
  let work = Engine.work
  let fence = Engine.fence
  let span_begin = Engine.span_begin
  let span_end = Engine.span_end
  let probe = Engine.probe
end

let run_on ?scenario machine jobs = Engine.run ?scenario machine jobs
let with_fresh_instance f = Engine.Instance.fresh f

let run ?scenario machine ~threads fn =
  Engine.run ?scenario machine (List.init threads (fun i -> (i, fun () -> fn i)))

let exec machine : (module Runtime_intf.EXEC) =
  (module struct
    module Runtime = Runtime

    let num_cores () = Ordo_util.Topology.total_threads machine.Machine.topo
    let run_on jobs = ignore (Engine.run machine jobs : Engine.stats)
  end)
