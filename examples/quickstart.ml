(* Quickstart: boot the simulated machine, load the E1000 as a decaf
   driver (init/shutdown at user level, data path in the kernel), move
   some packets, and look at what crossed the kernel/user boundary. The
   driver is bound the one way every driver is: through the registry,
   Driver_core, which supervises it and drains its deferred work before
   it goes.

   Run with:  dune exec examples/quickstart.exe *)

module K = Decaf_kernel
module Hw = Decaf_hw
open Decaf_drivers

let () =
  (* 1. power on the machine (registering the five drivers) and plug in
     a gigabit NIC *)
  Decaf_experiments.Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
       ~mac:"\x00\x1b\x21\x0a\x0b\x0c" ~link ());

  (* 2. everything below runs inside the simulated kernel *)
  ignore
    (K.Sched.spawn ~name:"main" (fun () ->
         (* load the driver in decaf mode: probe runs in the decaf driver
            with XDR marshaling of the adapter structure *)
         (match Driver_core.insmod "e1000" ~mode:Driver_env.Decaf with
         | Ok () -> ()
         | Error rc -> failwith (Printf.sprintf "insmod failed: %d" rc));
         let t = Option.get (E1000_drv.active ()) in
         Printf.printf "e1000 loaded in %.1f ms\n"
           (float_of_int (Driver_core.snapshot "e1000").Driver_core.s_init_latency_ns
           /. 1e6);

         (* bring the interface up and send a little traffic *)
         let nd = E1000_drv.netdev t in
         (match K.Netcore.open_dev nd with
         | Ok () -> ()
         | Error rc -> failwith (Printf.sprintf "open failed: %d" rc));
         for _ = 1 to 100 do
           ignore (K.Netcore.dev_queue_xmit nd (K.Netcore.Skb.alloc 1500))
         done;
         K.Sched.sleep_ns 5_000_000;

         let stats = K.Netcore.stats nd in
         Printf.printf "sent %d packets (%d bytes) on the wire\n"
           stats.K.Netcore.tx_packets stats.K.Netcore.tx_bytes;

         (* the data path never crossed to user level; init did *)
         let x = Decaf_xpc.Channel.stats () in
         Printf.printf "kernel/user crossings: %d (all during init)\n"
           x.Decaf_xpc.Channel.kernel_user_calls;
         Printf.printf "bytes marshaled across domains: %d\n"
           x.Decaf_xpc.Channel.bytes_marshaled;

         (* run 5 virtual seconds: the watchdog fires in the decaf driver *)
         K.Sched.sleep_ns 5_000_000_000;
         Printf.printf "watchdog ran %d times in the decaf driver\n"
           (E1000_drv.watchdog_runs t);
         Driver_core.rmmod "e1000";
         print_endline "driver unloaded cleanly"));
  K.Sched.run ()
