(* netperf over the E1000, native vs decaf: reproduces the headline
   result of the paper's Table 3 — steady-state performance of the decaf
   driver is indistinguishable from the native driver, because the data
   path never leaves the kernel.

   Run with:  dune exec examples/netperf_e1000.exe *)

module K = Decaf_kernel
module Hw = Decaf_hw
open Decaf_drivers
open Decaf_workloads

let run mode =
  Decaf_experiments.Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
       ~mac:"\x00\x1b\x21\x0a\x0b\x0c" ~link ());
  let result = ref None in
  ignore
    (K.Sched.spawn ~name:"netperf" (fun () ->
         (match Driver_core.insmod "e1000" ~mode with
         | Ok () -> ()
         | Error rc -> failwith (Printf.sprintf "insmod: %d" rc));
         let nd = E1000_drv.netdev (Option.get (E1000_drv.active ())) in
         (match K.Netcore.open_dev nd with
         | Ok () -> ()
         | Error rc -> failwith (Printf.sprintf "open: %d" rc));
         let send =
           Netperf.send ~netdev:nd ~link ~duration_ns:2_000_000_000
             ~msg_bytes:1500
         in
         let recv =
           Netperf.recv ~netdev:nd ~link ~duration_ns:2_000_000_000
             ~msg_bytes:1500
         in
         let init =
           (Driver_core.snapshot "e1000").Driver_core.s_init_latency_ns
         in
         Driver_core.rmmod "e1000";
         result := Some (send, recv, init)));
  K.Sched.run ();
  Option.get !result

let () =
  let n_send, n_recv, n_init = run Driver_env.Native in
  let d_send, d_recv, d_init = run Driver_env.Decaf in
  Printf.printf "%-10s %-6s %12s %8s %12s\n" "workload" "mode" "throughput"
    "CPU" "init";
  let row workload mode (r : Netperf.result) init =
    Printf.printf "%-10s %-6s %9.1f Mb/s %6.1f%% %9.2f ms\n" workload mode
      r.Netperf.throughput_mbps
      (100. *. r.Netperf.cpu_utilization)
      (float_of_int init /. 1e6)
  in
  row "send" "native" n_send n_init;
  row "send" "decaf" d_send d_init;
  row "recv" "native" n_recv n_init;
  row "recv" "decaf" d_recv d_init;
  Printf.printf "\nrelative performance (decaf/native): send %.3f, recv %.3f\n"
    (d_send.Netperf.throughput_mbps /. n_send.Netperf.throughput_mbps)
    (d_recv.Netperf.throughput_mbps /. n_recv.Netperf.throughput_mbps)
