(* Tests for the workload generators driving the simulated devices. *)

open Decaf_drivers
open Decaf_workloads
module K = Decaf_kernel
module Hw = Decaf_hw
module Scenario = Decaf_experiments.Scenario

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_thread f =
  let result = ref None in
  ignore (K.Sched.spawn ~name:"wl" (fun () -> result := Some (f ())));
  K.Sched.run ();
  Option.get !result

let bind name active = Testutil.bind name Driver_env.Native active

let test_netperf_send_saturates_gige () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
       ~mac:"\x00\x1b\x21\x0a\x0b\x0c" ~link ());
  let r =
    in_thread (fun () ->
        let t = bind "e1000" E1000_drv.active in
        let nd = E1000_drv.netdev t in
        ignore (K.Netcore.open_dev nd);
        let r = Netperf.send ~netdev:nd ~link ~duration_ns:500_000_000 ~msg_bytes:1500 in
        Driver_core.rmmod "e1000";
        r)
  in
  check_bool "near wire rate" true (r.Netperf.throughput_mbps > 900.);
  check_bool "not a spin loop" true (r.Netperf.cpu_utilization < 0.7);
  check_bool "packets counted" true (r.Netperf.packets > 20_000)

let test_netperf_recv_counts_delivered () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  ignore
    (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10
       ~mac:"\x00\x1b\x21\x0a\x0b\x0c" ~link ());
  let r =
    in_thread (fun () ->
        let t = bind "8139too" Rtl8139_drv.active in
        let nd = Rtl8139_drv.netdev t in
        ignore (K.Netcore.open_dev nd);
        let r = Netperf.recv ~netdev:nd ~link ~duration_ns:500_000_000 ~msg_bytes:1500 in
        Driver_core.rmmod "8139too";
        r)
  in
  check_bool "receives near wire rate" true (r.Netperf.throughput_mbps > 85.);
  check_bool "packets delivered" true (r.Netperf.packets > 3_000)

let test_mpg123_realtime () =
  Scenario.boot ();
  let model = Ens1371_drv.setup_device ~slot:"00:06.0" ~io_base:0xd000 ~irq:9 () in
  let r =
    in_thread (fun () ->
        let t = bind "ens1371" Ens1371_drv.active in
        let r =
          Mpg123.play ~substream:(Ens1371_drv.substream t) ~model
            ~duration_ns:1_000_000_000
        in
        Driver_core.rmmod "ens1371";
        r)
  in
  Alcotest.(check (float 0.05)) "played one second" 1.0 r.Mpg123.seconds_played;
  check_bool "at most the final partial period short" true (r.Mpg123.underruns <= 1);
  check_bool "low cpu" true (r.Mpg123.cpu_utilization < 0.05)

let test_tar_respects_usb_bandwidth () =
  Scenario.boot ();
  let model = Uhci_drv.setup_device ~io_base:0xe000 ~irq:5 () in
  let r =
    in_thread (fun () ->
        ignore (bind "uhci-hcd" Uhci_drv.active);
        let r = Tar_usb.untar ~model ~files:8 ~file_bytes:65_536 in
        Driver_core.rmmod "uhci-hcd";
        r)
  in
  check "all bytes written" (8 * 65_536) r.Tar_usb.bytes_written;
  (* 1280 bytes per 1 ms frame = 10.24 Mb/s ceiling *)
  check_bool "within USB 1.1 ceiling" true (r.Tar_usb.effective_kbps <= 10_300.);
  check_bool "reasonably close to ceiling" true (r.Tar_usb.effective_kbps > 8_000.)

let test_mouse_move_event_stream () =
  Scenario.boot ();
  let model = Psmouse_drv.setup_device () in
  let r =
    in_thread (fun () ->
        let t = bind "psmouse" Psmouse_drv.active in
        let r =
          Mouse_move.run ~model ~input:(Psmouse_drv.input_dev t)
            ~duration_ns:3_000_000_000
        in
        Driver_core.rmmod "psmouse";
        r)
  in
  (* one report every 10 ms for 3 s *)
  check_bool "about 300 packets" true (r.Mouse_move.packets >= 290 && r.Mouse_move.packets <= 310);
  check_bool "each packet yields >= 2 input events" true
    (r.Mouse_move.events_delivered >= 2 * r.Mouse_move.packets);
  check_bool "negligible cpu" true (r.Mouse_move.cpu_utilization < 0.02)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_workloads"
    [
      ( "netperf",
        [
          tc "send saturates gige" test_netperf_send_saturates_gige;
          tc "recv counts delivered" test_netperf_recv_counts_delivered;
        ] );
      ("mpg123", [ tc "realtime playback" test_mpg123_realtime ]);
      ("tar", [ tc "usb bandwidth ceiling" test_tar_respects_usb_bandwidth ]);
      ("mouse", [ tc "event stream" test_mouse_move_event_stream ]);
    ]
