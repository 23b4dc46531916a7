(** Reduced TPC-C (NewOrder + Payment, 50/50) over any CC scheme —
    Figure 14's contended workload, 60 warehouses, hash-index access.

    The keyspace is laid out per warehouse: one warehouse row, 10 district
    rows, customers and a stock segment.  NewOrder reads the warehouse,
    bumps the district's next-order id, and updates 5–15 stock rows;
    Payment updates the warehouse and district YTD (the classic hot rows)
    and a customer balance.  Order-line inserts are modeled as writes to a
    per-district ring of pre-allocated rows, as DBx1000 does with its hash
    index. *)

module Rng = Ordo_util.Rng

type config = {
  warehouses : int;
  districts : int;  (** Per warehouse. *)
  customers : int;  (** Per district. *)
  stock : int;  (** Per warehouse. *)
  order_slots : int;  (** Pre-allocated order rows per district. *)
}

let default = { warehouses = 60; districts = 10; customers = 30; stock = 1_000; order_slots = 64 }

(* Row layout per warehouse:
   [0]                      warehouse (YTD)
   [1 .. d]                 districts (next_o_id / YTD)
   [d+1 .. d+d*c]           customers
   [.. + stock]             stock
   [.. + d*order_slots]     order rings *)
let per_warehouse cfg =
  1 + cfg.districts + (cfg.districts * cfg.customers) + cfg.stock
  + (cfg.districts * cfg.order_slots)

let total_rows cfg = cfg.warehouses * per_warehouse cfg

module Make (R : Ordo_runtime.Runtime_intf.S) (C : Cc_intf.S) = struct
  module Exec = Cc_intf.Execute (R) (C)

  (* A NewOrder orders 5 to 15 items. *)
  let max_items = 15

  type t = {
    config : config;
    db : C.t;
    stock_keys : int array array;  (* per thread, a NewOrder's item rows *)
  }

  let create ?(config = default) ~threads () =
    {
      config;
      db = C.create ~threads ~rows:(total_rows config) ();
      stock_keys = Array.init threads (fun _ -> Array.make max_items 0);
    }

  let wh_base cfg w = w * per_warehouse cfg
  let warehouse_row cfg w = wh_base cfg w
  let district_row cfg w d = wh_base cfg w + 1 + d

  let customer_row cfg w d c =
    wh_base cfg w + 1 + cfg.districts + (d * cfg.customers) + c

  let stock_row cfg w s =
    wh_base cfg w + 1 + cfg.districts + (cfg.districts * cfg.customers) + s

  let order_row cfg w d slot =
    wh_base cfg w + 1 + cfg.districts
    + (cfg.districts * cfg.customers)
    + cfg.stock
    + (d * cfg.order_slots)
    + slot

  let new_order t rng tid =
    let cfg = t.config in
    let w = Rng.int rng cfg.warehouses in
    let d = Rng.int rng cfg.districts in
    let items = 5 + Rng.int rng (max_items - 4) in
    let stock_keys = t.stock_keys.(tid) in
    for i = 0 to items - 1 do
      stock_keys.(i) <- stock_row cfg w (Rng.int rng cfg.stock)
    done;
    Exec.run t.db (fun tx ->
        (* order-entry logic outside the footprint *)
        R.work 2_200;
        ignore (C.read tx (warehouse_row cfg w) : int);
        (* district next_o_id: read-modify-write on a hot row *)
        let next_o_id = C.read tx (district_row cfg w d) in
        C.write tx (district_row cfg w d) (next_o_id + 1);
        for i = 0 to items - 1 do
          let key = stock_keys.(i) in
          let qty = C.read tx key in
          C.write tx key (if qty > 10 then qty - 1 else qty + 91)
        done;
        (* order insert into the pre-allocated ring *)
        let slot = order_row cfg w d (next_o_id mod cfg.order_slots) in
        C.write tx slot (next_o_id lor (tid lsl 24)))

  let payment t rng _tid =
    let cfg = t.config in
    let w = Rng.int rng cfg.warehouses in
    let d = Rng.int rng cfg.districts in
    let c = Rng.int rng cfg.customers in
    let amount = 1 + Rng.int rng 5000 in
    Exec.run t.db (fun tx ->
        R.work 900;
        let ytd = C.read tx (warehouse_row cfg w) in
        C.write tx (warehouse_row cfg w) (ytd + amount);
        let dytd = C.read tx (district_row cfg w d) in
        C.write tx (district_row cfg w d) (dytd + amount);
        let bal = C.read tx (customer_row cfg w d c) in
        C.write tx (customer_row cfg w d c) (bal - amount))

  let order_status t rng _tid =
    (* Read-only: a customer checks their last order. *)
    let cfg = t.config in
    let w = Rng.int rng cfg.warehouses in
    let d = Rng.int rng cfg.districts in
    let c = Rng.int rng cfg.customers in
    ignore
      (Exec.run t.db (fun tx ->
           R.work 600;
           let bal = C.read tx (customer_row cfg w d c) in
           let next_o_id = C.read tx (district_row cfg w d) in
           let last = order_row cfg w d ((max 0 (next_o_id - 1)) mod cfg.order_slots) in
           bal + C.read tx last)
        : int)

  let delivery t rng _tid =
    (* Batch: deliver the newest order of every district of one
       warehouse, crediting the customers — the heavyweight writer. *)
    let cfg = t.config in
    let w = Rng.int rng cfg.warehouses in
    Exec.run t.db (fun tx ->
        R.work 1_500;
        for d = 0 to cfg.districts - 1 do
          let next_o_id = C.read tx (district_row cfg w d) in
          let slot = order_row cfg w d ((max 0 (next_o_id - 1)) mod cfg.order_slots) in
          let order = C.read tx slot in
          if order <> 0 then begin
            C.write tx slot 0;
            let c = customer_row cfg w d (order mod cfg.customers) in
            C.write tx c (C.read tx c + 1)
          end
        done)

  let stock_level t rng _tid =
    (* Read-only: count low-stock items behind one district. *)
    let cfg = t.config in
    let w = Rng.int rng cfg.warehouses in
    let d = Rng.int rng cfg.districts in
    ignore
      (Exec.run t.db (fun tx ->
           R.work 800;
           ignore (C.read tx (district_row cfg w d) : int);
           let low = ref 0 in
           for _ = 1 to 20 do
             if C.read tx (stock_row cfg w (Rng.int rng cfg.stock)) < 15 then incr low
           done;
           !low)
        : int)

  (* One transaction of the 50/50 NewOrder/Payment mix (the paper's
     Figure 14 configuration). *)
  let run_tx t rng ~tid =
    if Rng.bool rng then new_order t rng tid else payment t rng tid

  (* One transaction of the standard five-transaction TPC-C mix
     (45/43/4/4/4). *)
  let run_tx_full t rng ~tid =
    let roll = Rng.int rng 100 in
    if roll < 45 then new_order t rng tid
    else if roll < 88 then payment t rng tid
    else if roll < 92 then order_status t rng tid
    else if roll < 96 then delivery t rng tid
    else stock_level t rng tid

  let stats_commits t = C.stats_commits t.db
  let stats_aborts t = C.stats_aborts t.db
end
