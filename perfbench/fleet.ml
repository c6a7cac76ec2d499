(* fleet: 256 e1000 bindings of one module streaming 1500-byte frames
   through the virtual switch. A large working set (256 rings and device
   models) whose host time goes to Clock, Irq, the e1000 model and
   driver, Ring and Latency; the rings amortize XPC crossings away. The
   workload takes no seed: its inputs are fixed. *)

module K = Decaf_kernel
module W = Decaf_workloads

let run m ~ports ~duration_ns =
  Meter.setup_begin m;
  let links =
    Meter.boot m (fun () ->
        Meter.boot_machine ();
        List.init ports Machine.add_e1000)
  in
  let base = Meter.baseline () in
  let traffic = ref None in
  Meter.in_thread (fun () ->
      let ids, up = Machine.bring_up m (List.init ports Fun.id) links in
      Meter.setup_end m;
      Meter.check m (List.length up = ports) "fleet: %d of %d ports up"
        (List.length up) ports;
      Meter.run_begin m;
      let v0 = K.Clock.now () and busy0 = K.Clock.busy_ns () in
      if up <> [] then begin
        let r =
          Spans.with_span "traffic" (fun () ->
              W.Vswitch.run ~ports:up ~duration_ns ~msg_bytes:1500)
        in
        m.Meter.cpu_util <- K.Clock.utilization ~since:v0 ~busy_since:busy0;
        let dropped =
          List.fold_left
            (fun acc (p : W.Vswitch.port) ->
              acc + (K.Netcore.stats p.netdev).K.Netcore.tx_dropped)
            0 up
        in
        traffic := Some (r, dropped)
      end;
      List.iter (fun id -> ignore (Machine.rmmod m id)) ids;
      Machine.drain ());
  Meter.run_end m;
  Meter.quiescent m ~what:"fleet" base;
  let l = m.Meter.layers in
  let packets, dropped =
    match !traffic with
    | Some (r, dropped) ->
        m.Meter.goodput_mbps <- r.W.Vswitch.aggregate_mbps;
        m.Meter.port_mbps <- r.W.Vswitch.per_port_mbps;
        (r.W.Vswitch.packets, dropped)
    | None -> (0, 0)
  in
  m.Meter.paths <- Layers.path_stats l;
  m.Meter.counts <- [ ("vswitch.packets", packets) ];
  m.Meter.attempted <- packets + l.Layers.produced + Meter.op_count m;
  m.Meter.failed <-
    l.Layers.ring_overflow + l.Layers.ring_discarded + l.Layers.batch_dropped
    + dropped + m.Meter.failed_ops;
  let spread = Meter.fair_spread m in
  Meter.check m (spread <= 2.) "fleet: fairness spread %.3f > 2" spread
