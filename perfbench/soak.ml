(* soak: the two-phase, all-five-driver soak of Decaf_workloads.Soak
   (fleet of 4, steady then churn), seeded. The virtual tail metrics,
   the Sched threads, the Batch and dirty-delta notify paths, hotplug,
   PM and the fault plans all do real work here. Soak binds its devices
   inside [Soak.run], so set-up covers boot and XPC configuration only;
   it is repeated to give set-up time a median.

   [Soak.run] keeps its links and its churn ops private, so the
   benchmark's per-port goodput and control-op latencies for this
   workload come from a fixed probe on a fresh machine after the soak:
   four e1000 ports are bound, opened, streamed through and unloaded. *)

module K = Decaf_kernel
module W = Decaf_workloads

let setup_repeats = 25
let probe_ports = [ 0; 1; 2; 3 ]

(* The probe's machine: its post-boot baseline and its stream. *)
let probe m ~stream_ns =
  Spans.new_run ();
  let links =
    Meter.boot m (fun () ->
        Meter.boot_machine ();
        List.map Machine.add_e1000 probe_ports)
  in
  let base = Meter.baseline () in
  let stream = ref None in
  Meter.in_thread (fun () ->
      let ids, up = Machine.bring_up m probe_ports links in
      if up <> [] then
        ignore
          (Meter.op m "burst" (fun () ->
               let s = W.Vswitch.run ~ports:up ~duration_ns:stream_ns ~msg_bytes:1500 in
               stream := Some s;
               s.W.Vswitch.packets > 0));
      List.iter (fun id -> ignore (Machine.rmmod m id)) ids;
      Machine.drain ());
  (base, !stream)

let run m ~seed ~fleet ~phase_ns ~stream_ns =
  for _ = 1 to setup_repeats do
    Meter.setup_begin m;
    Meter.boot m Meter.boot_machine;
    Meter.setup_end m
  done;
  let base = Meter.baseline () in
  Meter.run_begin m;
  let v0 = K.Clock.now () and busy0 = K.Clock.busy_ns () in
  let r =
    Spans.with_span "soak" (fun () ->
        Spans.around_sched (fun () -> W.Soak.run ~fleet ~seed ~phase_ns ()))
  in
  m.Meter.cpu_util <- K.Clock.utilization ~since:v0 ~busy_since:busy0;
  let steady = r.W.Soak.steady and churn = r.W.Soak.churn in
  Meter.check m (r.W.Soak.leaked_tracker_entries = 0)
    "soak: %d tracker entries leaked" r.W.Soak.leaked_tracker_entries;
  Meter.check m (r.W.Soak.leaked_kmalloc_bytes = 0)
    "soak: %d kmalloc bytes leaked" r.W.Soak.leaked_kmalloc_bytes;
  Meter.check m (steady.W.Soak.audio_misses = 0)
    "soak: %d audio misses in the steady phase" steady.W.Soak.audio_misses;
  Meter.quiescent m ~what:"soak" base;
  let probe_base, stream = probe m ~stream_ns in
  Meter.run_end m;
  Meter.quiescent m ~what:"soak probe" probe_base;
  let probe_packets =
    match stream with
    | Some s ->
        m.Meter.port_mbps <- s.W.Vswitch.per_port_mbps;
        s.W.Vswitch.packets
    | None ->
        Meter.violation m "soak probe: the stream did not run";
        0
  in
  let frames = steady.W.Soak.packets + churn.W.Soak.packets in
  (* every soak frame is one 1500-byte message on a wire *)
  m.Meter.goodput_mbps <-
    float_of_int (frames * 1500 * 8) /. float_of_int (2 * phase_ns) *. 1e3;
  m.Meter.paths <-
    List.map
      (fun (p : W.Soak.path_stats) ->
        ( p.W.Soak.path,
          { Layers.samples = p.W.Soak.samples; p50_ns = p.W.Soak.p50_ns;
            p99_ns = p.W.Soak.p99_ns } ))
      steady.W.Soak.paths;
  let sum f = f steady + f churn in
  let periods = sum (fun p -> p.W.Soak.audio_periods) in
  let misses = sum (fun p -> p.W.Soak.audio_misses) in
  let events = sum (fun p -> p.W.Soak.input_events) in
  m.Meter.counts <-
    [
      ("vswitch.packets", probe_packets);
      ("soak.frames", frames);
      ("soak.audio_periods", periods);
      ("soak.audio_misses", misses);
      ("soak.input_events", events);
      ("soak.usb_bytes", sum (fun p -> p.W.Soak.usb_bytes));
      ("soak.path_samples",
        sum (fun ph ->
            List.fold_left (fun a (p : W.Soak.path_stats) -> a + p.W.Soak.samples) 0
              ph.W.Soak.paths));
    ]
    @ List.concat_map
        (fun (ph : W.Soak.phase) ->
          List.concat_map
            (fun (p : W.Soak.path_stats) ->
              let k = ph.W.Soak.phase_name ^ "." ^ p.W.Soak.path in
              [ (k ^ ".samples", p.W.Soak.samples); (k ^ ".p50", p.W.Soak.p50_ns);
                (k ^ ".p99", p.W.Soak.p99_ns); (k ^ ".max", p.W.Soak.max_ns) ])
            ph.W.Soak.paths)
        [ steady; churn ];
  let l = m.Meter.layers in
  m.Meter.attempted <-
    frames + l.Layers.produced + periods + events + Meter.op_count m;
  m.Meter.failed <-
    misses + l.Layers.ring_overflow + l.Layers.ring_discarded
    + l.Layers.batch_dropped + m.Meter.failed_ops
