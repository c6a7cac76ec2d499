(* Whole-simulation properties: determinism, repeated driver lifecycle,
   multi-device coexistence, scheduler stress. *)

open Decaf_drivers
module K = Decaf_kernel
module Hw = Decaf_hw
module Scenario = Decaf_experiments.Scenario

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mac1 = "\x00\x1b\x21\x0a\x0b\x0c"
let mac2 = "\x00\x1b\x21\x0a\x0b\x0d"

let in_thread f =
  let result = ref None in
  ignore (K.Sched.spawn ~name:"sim" (fun () -> result := Some (f ())));
  K.Sched.run ();
  Option.get !result

let bind = Testutil.bind

(* --- determinism: the virtual machine is a pure function of its inputs --- *)

let run_e1000_send () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
       ~mac:mac1 ~link ());
  in_thread (fun () ->
      let t = bind "e1000" Driver_env.Decaf E1000_drv.active in
      let nd = E1000_drv.netdev t in
      ignore (K.Netcore.open_dev nd);
      let r =
        Decaf_workloads.Netperf.send ~netdev:nd ~link
          ~duration_ns:300_000_000 ~msg_bytes:1500
      in
      let crossings = (Decaf_xpc.Channel.stats ()).Decaf_xpc.Channel.kernel_user_calls in
      let now = K.Clock.now () in
      let busy = K.Clock.busy_ns () in
      Driver_core.rmmod "e1000";
      (r.Decaf_workloads.Netperf.packets, crossings, now, busy))

let test_simulation_deterministic () =
  let a = run_e1000_send () in
  let b = run_e1000_send () in
  check_bool "two runs are bit-identical" true (a = b)

(* --- repeated lifecycle: no leak across load/unload cycles --- *)

let test_repeated_insmod_rmmod () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
       ~mac:mac1 ~link ());
  in_thread (fun () ->
      for _cycle = 1 to 10 do
        let t = bind "e1000" Driver_env.Decaf E1000_drv.active in
        let nd = E1000_drv.netdev t in
        (match K.Netcore.open_dev nd with
        | Ok () -> ()
        | Error rc -> Alcotest.failf "open: %d" rc);
        ignore (K.Netcore.dev_queue_xmit nd (K.Netcore.Skb.alloc 512));
        K.Sched.sleep_ns 1_000_000;
        Driver_core.rmmod "e1000";
        let live, _ = K.Kmem.outstanding () in
        check "no allocations survive rmmod" 0 live
      done);
  match K.Boot.check_quiescent () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent after 10 cycles: %s" msg

(* --- two NICs coexist, one native and one decaf --- *)

let test_two_nics_coexist () =
  Scenario.boot ();
  let link1 = Hw.Link.create ~rate_bps:100_000_000 () in
  let link2 = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac:mac1
       ~link:link1 ());
  ignore
    (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
       ~mac:mac2 ~link:link2 ());
  in_thread (fun () ->
      let t1 = bind "8139too" Driver_env.Native Rtl8139_drv.active in
      let t2 = bind "e1000" Driver_env.Decaf E1000_drv.active in
      let nd1 = Rtl8139_drv.netdev t1 and nd2 = E1000_drv.netdev t2 in
      check_bool "distinct interface names" true
        (K.Netcore.name nd1 <> K.Netcore.name nd2);
      ignore (K.Netcore.open_dev nd1);
      ignore (K.Netcore.open_dev nd2);
      (* interleave traffic on both *)
      for _ = 1 to 20 do
        ignore (K.Netcore.dev_queue_xmit nd1 (K.Netcore.Skb.alloc 500));
        ignore (K.Netcore.dev_queue_xmit nd2 (K.Netcore.Skb.alloc 1500));
        K.Sched.sleep_ns 200_000
      done;
      K.Sched.sleep_ns 5_000_000;
      check "rtl8139 sent everything" 20 (Hw.Link.tx_frames link1);
      check "e1000 sent everything" 20 (Hw.Link.tx_frames link2);
      (* interrupts were delivered on both lines *)
      check_bool "both irq lines fired" true
        (K.Irq.delivered 10 > 0 && K.Irq.delivered 11 > 0);
      Driver_core.rmmod "e1000";
      Driver_core.rmmod "8139too")

(* --- scheduler stress --- *)

let prop_scheduler_stress =
  QCheck.Test.make ~name:"random thread soup completes with a monotone clock"
    ~count:25
    QCheck.(list_of_size Gen.(int_range 1 20) (int_range 1 200))
    (fun sleeps ->
      K.Boot.boot ();
      let done_count = ref 0 in
      let monotone = ref true in
      let last = ref 0 in
      List.iter
        (fun us ->
          ignore
            (K.Sched.spawn (fun () ->
                 for _ = 1 to 3 do
                   if K.Clock.now () < !last then monotone := false;
                   last := max !last (K.Clock.now ());
                   K.Sched.sleep_ns (us * 1_000);
                   K.Sched.yield ()
                 done;
                 incr done_count)))
        sleeps;
      K.Sched.run ();
      !done_count = List.length sleeps
      && !monotone
      && K.Clock.busy_ns () <= K.Clock.now ())

let prop_mutex_exclusion =
  QCheck.Test.make ~name:"mutex holds mutual exclusion under random sleeps"
    ~count:25
    QCheck.(list_of_size Gen.(int_range 2 10) (int_range 0 50))
    (fun sleeps ->
      K.Boot.boot ();
      let m = K.Sync.Mutex.create () in
      let inside = ref 0 in
      let violated = ref false in
      List.iteri
        (fun i us ->
          ignore
            (K.Sched.spawn ~name:(Printf.sprintf "m%d" i) (fun () ->
                 K.Sync.Mutex.with_lock m (fun () ->
                     incr inside;
                     if !inside > 1 then violated := true;
                     K.Sched.sleep_ns (us * 1_000);
                     decr inside))))
        sleeps;
      K.Sched.run ();
      (not !violated) && not (K.Sync.Mutex.held m))

let test_irq_storm_coalesces () =
  K.Boot.boot ();
  let handled = ref 0 in
  K.Irq.request_irq 6 ~name:"storm" (fun () -> incr handled);
  (* a device asserting the line 1000 times in one instant *)
  K.Sched.local_irq_save ();
  for _ = 1 to 1000 do
    K.Irq.raise_irq 6
  done;
  K.Sched.local_irq_restore ();
  K.Clock.consume 100_000;
  check_bool "level-triggered storm coalesces" true (!handled >= 1 && !handled <= 3)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_sim"
    [
      ( "whole-system",
        [
          tc "deterministic" test_simulation_deterministic;
          tc "repeated insmod/rmmod" test_repeated_insmod_rmmod;
          tc "two NICs coexist" test_two_nics_coexist;
          tc "irq storm coalesces" test_irq_storm_coalesces;
        ] );
      ( "stress",
        List.map QCheck_alcotest.to_alcotest
          [ prop_scheduler_stress; prop_mutex_exclusion ] );
    ]
